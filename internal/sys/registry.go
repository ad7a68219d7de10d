package sys

import (
	"errors"
	"fmt"

	"repro/internal/kring"
	"repro/internal/mem"
	"repro/internal/vfs"
)

// The syscall registry: every system call is defined ONCE, as a
// kernel-side body operating on decoded Args. Three front ends invoke
// it; they differ only in how arguments arrive and how boundary costs
// are charged:
//
//   - the classic trap path: the exported Proc methods in calls.go /
//     consolidated.go decode Go-typed arguments into Args, bracket
//     the body with pr.enter/pr.exit (trap + per-byte user-copy
//     charges), and translate Args back to Go results. klint's
//     chargecov analyzer proves enter/exit balance on each wrapper.
//
//   - the ring drain: ring.go pops SQEs, the per-call decoder in this
//     table turns the SQE + data-area windows into the same Args, and
//     KernelCall runs the body in kernel context with only KernelCall
//     + kernel-rate copy charges — the whole batch shares one trap.
//
//   - Cosy compounds: cosy/kext decodes each OpSys operation's
//     registers and data-segment strings and windows into Args and
//     runs it through the same KernelCall — one crossing for the
//     whole compound.
//
// Payload buffers are mem.UserViews on every path: the classic path
// views the caller's user buffer, the ring path the shared data
// area, Cosy the compound's data segment in that same area, and the
// body cannot tell the difference — one charging- and fault-correct
// data plane.

// Args is the decoded argument/result record a syscall body operates
// on. Decoders fill the inputs; bodies fill Attr/Out and return the
// syscall's primary result.
type Args struct {
	// Path/Path2 are pathname arguments (Path2 is rename's target).
	Path, Path2 string
	// Fd is the descriptor argument.
	Fd int
	// Off/Whence are lseek's arguments.
	Off    int64
	Whence int
	// Flags are open's flags.
	Flags int
	// Buf is the payload window: the user buffer on the classic path,
	// a data-area window on the ring path, a window on the compound's
	// data segment in a Cosy compound. Zero (invalid) when the call carries no payload
	// or the caller wants none materialized.
	Buf mem.UserView
	// Attr receives stat results.
	Attr vfs.Attr
	// In/Out are the payload byte counts consumed/produced, used by
	// each entry path for its own copy accounting (user-rate on the
	// classic path, kernel-rate in kernel context).
	In, Out int
	// CopiedIn records that the body consumed the input payload (the
	// classic write path charges copyin only in that case, matching
	// the historical exit accounting).
	CopiedIn bool
}

// sysdef is one registered system call.
type sysdef struct {
	// body is the kernel-side implementation; nil marks calls that
	// exist only as classic entry points with un-tabled result shapes
	// (getdents, readdirplus, the probe/ku/ring management calls).
	body func(pr *Proc, a *Args) (int64, error)
	// decode turns a popped SQE into Args for the ring path; nil
	// marks the call not ring-invocable (ENOSYS completion).
	decode func(pr *Proc, d *drain, e *kring.SQE, a *Args) error
	// fdArg marks calls whose Args[0] is a descriptor, the ones
	// FlagFDRel may rewrite to a prior completion's result.
	fdArg bool
}

// sysTable is the registry, indexed by Nr.
var sysTable = [nrCount]sysdef{
	NrOpen:           {body: bodyOpen, decode: decOpen},
	NrClose:          {body: bodyClose, decode: decFd, fdArg: true},
	NrRead:           {body: bodyRead, decode: decReadWrite, fdArg: true},
	NrWrite:          {body: bodyWrite, decode: decReadWrite, fdArg: true},
	NrLseek:          {body: bodyLseek, decode: decLseek, fdArg: true},
	NrStat:           {body: bodyStat, decode: decStat},
	NrFstat:          {body: bodyFstat, decode: decFstat, fdArg: true},
	NrGetdents:       {}, // classic-only: returns a Go slice
	NrCreat:          {body: bodyCreat, decode: decPath},
	NrUnlink:         {body: bodyUnlink, decode: decPath},
	NrMkdir:          {body: bodyMkdir, decode: decPath},
	NrRmdir:          {body: bodyRmdir, decode: decPath},
	NrRename:         {body: bodyRename, decode: decRename},
	NrFsync:          {body: bodyFsync, decode: decFd, fdArg: true},
	NrGetpid:         {body: bodyGetpid, decode: decNone},
	NrReaddirPlus:    {}, // classic-only: returns a Go slice
	NrOpenReadClose:  {body: bodyOpenReadClose, decode: decOpenReadClose},
	NrOpenWriteClose: {body: bodyOpenWriteClose, decode: decOpenWriteClose},
	NrOpenFstat:      {body: bodyOpenFstat, decode: decOpenFstat},
	// NrCosy is ring-invocable through Kernel.Cosy, which the Cosy
	// extension sets, not this table; probe/ku/ring management calls
	// are classic-only (a ring cannot nest inside its own drain).
}

// Syscall bodies. Each is the single kernel-side implementation of
// its call; charges made here are entry-path independent.

func bodyOpen(pr *Proc, a *Args) (int64, error) {
	fd, err := pr.openInternal(a.Path, a.Flags)
	return int64(fd), err
}

func bodyCreat(pr *Proc, a *Args) (int64, error) {
	fd, err := pr.openInternal(a.Path, OCreate|OTrunc)
	return int64(fd), err
}

func bodyClose(pr *Proc, a *Args) (int64, error) {
	return 0, pr.closeInternal(a.Fd)
}

func bodyRead(pr *Proc, a *Args) (int64, error) {
	kbuf := pr.kbuf(a.Buf.Len())
	n, err := pr.readInternal(a.Fd, kbuf)
	if err != nil {
		return 0, err
	}
	if werr := a.Buf.CopyOut(0, kbuf[:n]); werr != nil {
		return 0, werr
	}
	a.Out = n
	return int64(n), nil
}

func bodyWrite(pr *Proc, a *Args) (int64, error) {
	kbuf := pr.kbuf(a.Buf.Len())
	if err := a.Buf.CopyIn(0, kbuf); err != nil {
		return 0, err
	}
	a.CopiedIn = true
	n, err := pr.writeInternal(a.Fd, kbuf)
	return int64(n), err
}

func bodyLseek(pr *Proc, a *Args) (int64, error) {
	return pr.lseekInternal(a.Fd, a.Off, a.Whence)
}

func bodyStat(pr *Proc, a *Args) (int64, error) {
	at, err := pr.statInternal(a.Path)
	if err != nil {
		return 0, err
	}
	a.Attr = at
	a.Out = vfs.StatSize
	return 0, materializeAttr(a)
}

func bodyFstat(pr *Proc, a *Args) (int64, error) {
	at, err := pr.fstatInternal(a.Fd)
	if err != nil {
		return 0, err
	}
	a.Attr = at
	a.Out = vfs.StatSize
	return 0, materializeAttr(a)
}

func bodyUnlink(pr *Proc, a *Args) (int64, error) {
	return 0, pr.unlinkInternal(a.Path)
}

func bodyMkdir(pr *Proc, a *Args) (int64, error) {
	fs, parent, name, err := pr.K.NS.ResolveParent(pr.P, a.Path)
	if err != nil {
		return 0, err
	}
	id, err := fs.Mkdir(pr.P, parent, name)
	if err != nil {
		return 0, err
	}
	pr.K.NS.Dc.Insert(pr.P, fs, parent, name, id)
	return 0, nil
}

func bodyRmdir(pr *Proc, a *Args) (int64, error) {
	fs, parent, name, err := pr.K.NS.ResolveParent(pr.P, a.Path)
	if err != nil {
		return 0, err
	}
	if err := fs.Rmdir(pr.P, parent, name); err != nil {
		return 0, err
	}
	pr.K.NS.Dc.Invalidate(pr.P, fs, parent, name)
	return 0, nil
}

func bodyRename(pr *Proc, a *Args) (int64, error) {
	ofs, oparent, oname, err := pr.K.NS.ResolveParent(pr.P, a.Path)
	if err != nil {
		return 0, err
	}
	nfs, nparent, nname, err := pr.K.NS.ResolveParent(pr.P, a.Path2)
	if err != nil {
		return 0, err
	}
	if ofs != nfs {
		return 0, vfs.ErrInval
	}
	if err := ofs.Rename(pr.P, oparent, oname, nparent, nname); err != nil {
		return 0, err
	}
	pr.K.NS.Dc.Invalidate(pr.P, ofs, oparent, oname)
	pr.K.NS.Dc.Invalidate(pr.P, nfs, nparent, nname)
	return 0, nil
}

func bodyFsync(pr *Proc, a *Args) (int64, error) {
	f, err := pr.file(a.Fd)
	if err != nil {
		return 0, err
	}
	return 0, f.fs.Sync(pr.P)
}

func bodyGetpid(pr *Proc, a *Args) (int64, error) {
	return int64(pr.P.PID), nil
}

func bodyOpenReadClose(pr *Proc, a *Args) (int64, error) {
	fd, err := pr.openInternal(a.Path, ORdonly)
	if err != nil {
		return 0, err
	}
	kbuf := make([]byte, a.Buf.Len())
	n, err := pr.readInternal(fd, kbuf)
	cerr := pr.closeInternal(fd)
	if err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if werr := a.Buf.CopyOut(0, kbuf[:n]); werr != nil {
		return 0, werr
	}
	a.Out = n
	return int64(n), nil
}

func bodyOpenWriteClose(pr *Proc, a *Args) (int64, error) {
	kbuf := make([]byte, a.Buf.Len())
	if err := a.Buf.CopyIn(0, kbuf); err != nil {
		return 0, err
	}
	fd, err := pr.openInternal(a.Path, OCreate|OTrunc)
	if err != nil {
		return 0, err
	}
	// The payload is committed from here on: the historical exit
	// accounting charges copyin only once the write path consumes it.
	a.CopiedIn = true
	n, err := pr.writeInternal(fd, kbuf)
	cerr := pr.closeInternal(fd)
	if err == nil {
		err = cerr
	}
	return int64(n), err
}

func bodyOpenFstat(pr *Proc, a *Args) (int64, error) {
	fd, err := pr.openInternal(a.Path, ORdonly)
	if err != nil {
		return 0, err
	}
	at, err := pr.fstatInternal(fd)
	if err != nil {
		_ = pr.closeInternal(fd)
		return 0, err
	}
	a.Attr = at
	a.Out = vfs.StatSize
	if err := materializeAttr(a); err != nil {
		_ = pr.closeInternal(fd)
		return 0, err
	}
	return int64(fd), nil
}

// materializeAttr serializes a.Attr into a.Buf when the caller
// supplied an output window (ring and Cosy); the classic path reads
// the Attr field directly and passes no window.
func materializeAttr(a *Args) error {
	if !a.Buf.Valid() {
		return nil
	}
	if a.Buf.Len() < vfs.StatSize {
		return fmt.Errorf("%w: %d-byte stat window", vfs.ErrInval, a.Buf.Len())
	}
	b := vfs.EncodeAttr(a.Attr)
	return a.Buf.CopyOut(0, b[:])
}

// Ring-path decoders. Argument conventions (DESIGN.md §12):
//
//	open            path in data window; Args[0] = flags
//	creat/unlink/
//	mkdir/rmdir     path in data window
//	close/fsync     Args[0] = fd
//	read/write      Args[0] = fd; payload in data window
//	lseek           Args[0] = fd, Args[1] = off, Args[2] = whence
//	stat            path in data window; Args[0] = attr offset (<0: none)
//	fstat           Args[0] = fd, Args[1] = attr offset (<0: none)
//	rename          old path in data window; new at Args[0]/Args[1]
//	open_read_close path at Args[0]/Args[1]; read window in data window
//	open_write_close path at Args[0]/Args[1]; payload in data window
//	open_fstat      path in data window; Args[0] = attr offset (<0: none)
//
// Every decoder fully validates offsets and lengths against the ring
// geometry before the body runs; a hostile SQE yields an errno
// completion, never a fault in the drain loop.

// maxRingPath bounds pathname windows, mirroring PATH_MAX.
const maxRingPath = 4096

func decNone(pr *Proc, d *drain, e *kring.SQE, a *Args) error { return nil }

func decFd(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	a.Fd = int(e.Args[0])
	return nil
}

func decFstat(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	a.Fd = int(e.Args[0])
	return d.attrWindow(e.Args[1], a)
}

func decPath(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	return d.pathArg(e.DataOff, e.DataLen, a)
}

func decOpen(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	a.Flags = int(e.Args[0])
	return d.pathArg(e.DataOff, e.DataLen, a)
}

func decReadWrite(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	a.Fd = int(e.Args[0])
	buf, err := d.rs.kr.Data(int(e.DataOff), int(e.DataLen))
	if err != nil {
		return fmt.Errorf("%w: payload window: %v", vfs.ErrInval, err)
	}
	a.Buf = buf
	if e.Op == uint16(NrWrite) {
		a.In = int(e.DataLen)
	}
	return nil
}

func decLseek(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	a.Fd = int(e.Args[0])
	a.Off = e.Args[1]
	a.Whence = int(e.Args[2])
	return nil
}

func decStat(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	if err := d.pathArg(e.DataOff, e.DataLen, a); err != nil {
		return err
	}
	return d.attrWindow(e.Args[0], a)
}

func decRename(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	if err := d.pathArg(e.DataOff, e.DataLen, a); err != nil {
		return err
	}
	p2, err := d.pathString(e.Args[0], e.Args[1])
	if err != nil {
		return err
	}
	a.Path2 = p2
	a.In += len(p2)
	return nil
}

func decOpenReadClose(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	path, err := d.pathString(e.Args[0], e.Args[1])
	if err != nil {
		return err
	}
	a.Path = path
	a.In = len(path)
	buf, err := d.rs.kr.Data(int(e.DataOff), int(e.DataLen))
	if err != nil {
		return fmt.Errorf("%w: payload window: %v", vfs.ErrInval, err)
	}
	a.Buf = buf
	return nil
}

func decOpenWriteClose(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	if err := decOpenReadClose(pr, d, e, a); err != nil {
		return err
	}
	a.In += int(e.DataLen)
	return nil
}

func decOpenFstat(pr *Proc, d *drain, e *kring.SQE, a *Args) error {
	if err := d.pathArg(e.DataOff, e.DataLen, a); err != nil {
		return err
	}
	return d.attrWindow(e.Args[0], a)
}

// Errno codes for CQE.Err, mirroring Linux numbering where a
// counterpart exists.
const (
	errnoNoEnt    uint32 = 2
	errnoBadF     uint32 = 9
	errnoExist    uint32 = 17
	errnoNotDir   uint32 = 20
	errnoIsDir    uint32 = 21
	errnoInval    uint32 = 22
	errnoMFile    uint32 = 24
	errnoNoSys    uint32 = 38
	errnoNotEmpty uint32 = 39
	errnoNoDev    uint32 = 19
	errnoCanceled uint32 = 125
	errnoKuDead   uint32 = 129
	errnoIO       uint32 = 5
)

// errCanceled reports an entry canceled by anycall steering or by a
// failed FDRel reference.
var errCanceled = errors.New("sys: ring entry canceled")

// errNoSys reports a call with no kernel-context body, or an op the
// ring cannot dispatch.
var errNoSys = errors.New("sys: call not invocable in kernel context")

// errnoOf maps a body error to its CQE errno code.
func errnoOf(err error) uint32 {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, vfs.ErrNotExist):
		return errnoNoEnt
	case errors.Is(err, ErrBadFD):
		return errnoBadF
	case errors.Is(err, vfs.ErrExist):
		return errnoExist
	case errors.Is(err, vfs.ErrNotDir):
		return errnoNotDir
	case errors.Is(err, vfs.ErrIsDir):
		return errnoIsDir
	case errors.Is(err, vfs.ErrInval):
		return errnoInval
	case errors.Is(err, vfs.ErrNotEmpty):
		return errnoNotEmpty
	case errors.Is(err, vfs.ErrNoDev):
		return errnoNoDev
	case errors.Is(err, ErrTooMany):
		return errnoMFile
	case errors.Is(err, errCanceled):
		return errnoCanceled
	case errors.Is(err, errNoSys):
		return errnoNoSys
	case errors.Is(err, ErrKuDead):
		return errnoKuDead
	default:
		return errnoIO
	}
}
