// Package vfs is the simulated kernel's virtual file system layer:
// the FS interface that concrete file systems (memfs, btfs, wrapfs)
// implement, a dentry cache guarded by the global dcache_lock the
// paper instruments in §3.3, a mount namespace with path resolution,
// and a buffer-cache/disk model that gives workloads realistic
// CPU-versus-I/O balance.
package vfs

import (
	"encoding/binary"
	"errors"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// NodeID identifies an inode within one file system.
type NodeID uint64

// FileType distinguishes inode flavors.
type FileType uint8

// Inode types.
const (
	TypeReg FileType = iota
	TypeDir
	TypeDev
)

func (t FileType) String() string {
	switch t {
	case TypeReg:
		return "reg"
	case TypeDir:
		return "dir"
	case TypeDev:
		return "dev"
	}
	return "?"
}

// Attr is the stat payload. StatSize is the number of bytes a stat
// result occupies when copied to user space (struct stat on the
// paper's ia32 Linux is 88 bytes; we round to 96 for alignment).
type Attr struct {
	ID    NodeID
	Type  FileType
	Size  int64
	Nlink int
	Mode  uint16
	Mtime sim.Cycles
}

// StatSize is the user-visible size of a stat structure.
const StatSize = 96

// EncodeAttr lays a out as the StatSize-byte struct stat every
// submission path writes into a caller's stat window: ID, Size,
// Nlink, Mode, Type and Mtime as little-endian uint64s at offsets 0,
// 8, 16, 24, 32 and 40, then zero padding.
func EncodeAttr(a Attr) [StatSize]byte {
	var b [StatSize]byte
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(a.ID))
	le.PutUint64(b[8:], uint64(a.Size))
	le.PutUint64(b[16:], uint64(a.Nlink))
	le.PutUint64(b[24:], uint64(a.Mode))
	le.PutUint64(b[32:], uint64(a.Type))
	le.PutUint64(b[40:], uint64(a.Mtime))
	return b
}

// DecodeAttr is EncodeAttr's inverse; buf holds one StatSize-byte
// record.
func DecodeAttr(buf []byte) Attr {
	le := binary.LittleEndian
	return Attr{
		ID:    NodeID(le.Uint64(buf[0:])),
		Size:  int64(le.Uint64(buf[8:])),
		Nlink: int(le.Uint64(buf[16:])),
		Mode:  uint16(le.Uint64(buf[24:])),
		Type:  FileType(le.Uint64(buf[32:])),
		Mtime: sim.Cycles(le.Uint64(buf[40:])),
	}
}

// DirEnt is one directory entry. DirEntSize approximates the linux
// dirent record copied out by getdents (fixed part + name).
type DirEnt struct {
	Name string
	ID   NodeID
	Type FileType
}

// DirEntFixed is the fixed portion of a serialized dirent.
const DirEntFixed = 24

// Bytes reports the serialized size of the entry.
func (d DirEnt) Bytes() int { return DirEntFixed + len(d.Name) }

// Errors mirroring the kernel's errno values.
var (
	ErrNotExist = errors.New("vfs: no such file or directory")
	ErrExist    = errors.New("vfs: file exists")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	ErrInval    = errors.New("vfs: invalid argument")
	ErrNoDev    = errors.New("vfs: no such device")
)

// FS is the interface every simulated file system implements. All
// operations run in kernel mode on behalf of process p and charge
// their own CPU and I/O costs.
type FS interface {
	FSName() string
	Root() NodeID
	Lookup(p *kernel.Process, dir NodeID, name string) (NodeID, error)
	Getattr(p *kernel.Process, n NodeID) (Attr, error)
	Create(p *kernel.Process, dir NodeID, name string) (NodeID, error)
	Mkdir(p *kernel.Process, dir NodeID, name string) (NodeID, error)
	Unlink(p *kernel.Process, dir NodeID, name string) error
	Rmdir(p *kernel.Process, dir NodeID, name string) error
	Readdir(p *kernel.Process, dir NodeID) ([]DirEnt, error)
	Read(p *kernel.Process, n NodeID, off int64, buf []byte) (int, error)
	Write(p *kernel.Process, n NodeID, off int64, data []byte) (int, error)
	Truncate(p *kernel.Process, n NodeID, size int64) error
	Rename(p *kernel.Process, odir NodeID, oname string, ndir NodeID, nname string) error
	Sync(p *kernel.Process) error
}

// Device is a character device exposed through the namespace (the
// event monitor's /dev/kernevents). Reads run in kernel mode and
// return up to len(buf) bytes.
type Device interface {
	DevRead(p *kernel.Process, buf []byte) (int, error)
	DevWrite(p *kernel.Process, data []byte) (int, error)
}

// OpCPU is the baseline kernel CPU cost of one VFS operation
// (dispatch, argument validation, inode locking).
const OpCPU = sim.Cycles(350)
