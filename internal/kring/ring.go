// Package kring implements the submission/completion ring pair that
// carries batched syscalls across the user/kernel boundary in one
// crossing.
//
// The ring lives in ordinary user-mapped frames that the kernel maps
// into its own address space with mem.MapFrame (shared, not copied) —
// so the user side and the kernel side of a Ring are two UserViews of
// the same physical bytes, and "submitting" an entry is just a store
// plus a tail bump. The only boundary crossing is ring_enter, which
// drains the whole submission queue in one trap.
//
// Shared-memory layout (all fields little-endian):
//
//	off   0: sq_head    u32   consumer cursor (kernel bumps)
//	off   4: sq_tail    u32   producer cursor (user bumps)
//	off   8: cq_head    u32   consumer cursor (user bumps)
//	off  12: cq_tail    u32   producer cursor (kernel bumps)
//	off  16: sq_dropped u32   SQEs rejected at push (SQ full)
//	off  20: cq_overflow u32  CQEs dropped at completion (CQ full)
//	off  64: SQ entries  entries × 64 B
//	then:    CQ entries  2·entries × 32 B
//	then:    data area   payload staging / zero-copy windows
//
// Cursors are free-running uint32s; an index is cursor & (size-1), so
// every slot is usable and empty/full are head==tail and
// tail-head==size. The CQ holds 2·entries so a drain that completes
// every SQE plus anycall-emitted extras has room before backpressure
// kicks in.
//
// kring knows nothing about syscalls: entries carry an opaque op
// number, four int64 args, a window into the data area, and a user
// tag echoed into the completion. Dispatch lives in internal/sys.
package kring

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Ring geometry. Entries are power-of-two sized and the header is one
// cache-line-ish block, so no entry or header word ever straddles a
// page: every access below can take the zero-copy Bytes path.
const (
	// SQESize is the byte size of one submission entry.
	SQESize = 64
	// CQESize is the byte size of one completion entry.
	CQESize = 32
	// HdrSize is the byte size of the shared header block.
	HdrSize = 64
	// MaxEntries bounds the submission queue size.
	MaxEntries = 4096
)

// Header field offsets.
const (
	offSqHead     = 0
	offSqTail     = 4
	offCqHead     = 8
	offCqTail     = 12
	offSqDropped  = 16
	offCqOverflow = 20
)

// OpAnycall marks an SQE as an in-kernel control-flow step: instead
// of naming a syscall, Ext names a loaded kucode extension that
// inspects prior completions and steers the rest of the batch.
const OpAnycall uint16 = 0xFFFF

// FlagFDRel makes the entry's fd argument relative: Args[0] = n means
// "the fd produced by the completion n entries back in this drain",
// so open→read→close chains submit in one batch without knowing fd
// numbers in advance.
const FlagFDRel uint16 = 1 << 0

// SQE is one submission-queue entry.
type SQE struct {
	// Op names a registered syscall number, a registered ring op, or
	// OpAnycall.
	Op uint16
	// Flags modify dispatch (FlagFDRel).
	Flags uint16
	// Ext is the kucode extension id for OpAnycall entries.
	Ext uint32
	// Args are the op's scalar arguments.
	Args [4]int64
	// DataOff/DataLen window the ring's data area for the op's
	// payload (path bytes, read/write buffers, encoded structs).
	DataOff uint32
	DataLen uint32
	// UserTag is echoed verbatim into the entry's CQE.
	UserTag uint64
}

// CQE is one completion-queue entry.
type CQE struct {
	// UserTag is the submitting SQE's tag.
	UserTag uint64
	// Res is the op's result value (count, fd, offset...).
	Res int64
	// Err is the op's errno (0 on success); see internal/sys for the
	// code table.
	Err uint32
	// Copied counts payload bytes the op moved through the data area.
	Copied uint32
}

// Ring errors.
var (
	ErrSQFull   = errors.New("kring: submission queue full")
	ErrSQEmpty  = errors.New("kring: submission queue empty")
	ErrCQFull   = errors.New("kring: completion queue full")
	ErrCQEmpty  = errors.New("kring: completion queue empty")
	ErrGeometry = errors.New("kring: bad ring geometry")
)

// BytesFor sizes the shared region for a ring of the given geometry.
func BytesFor(entries, dataBytes int) int {
	return HdrSize + entries*SQESize + 2*entries*CQESize + dataBytes
}

// Ring is one side's handle on the shared region: the user process
// and the kernel each Attach their own Ring over their own mapping of
// the same frames. All cursor state lives in the shared header, so
// the two handles are automatically coherent.
type Ring struct {
	v       mem.UserView
	entries uint32
	sqOff   int
	cqOff   int
	dataOff int
	dataLen int
}

// Attach opens a ring handle over a shared region previously sized
// with BytesFor. It validates geometry only — no memory is touched,
// so attaching is charge-free. The handle is a value, for the caller
// to keep wherever it keeps the ring's other state.
func Attach(v mem.UserView, entries int) (Ring, error) {
	if entries < 1 || entries > MaxEntries || entries&(entries-1) != 0 {
		return Ring{}, fmt.Errorf("%w: entries %d (want power of two in [1,%d])", ErrGeometry, entries, MaxEntries)
	}
	min := BytesFor(entries, 0)
	if !v.Valid() || v.Len() < min {
		return Ring{}, fmt.Errorf("%w: view %d bytes, need >= %d", ErrGeometry, v.Len(), min)
	}
	cqOff := HdrSize + entries*SQESize
	dataOff := cqOff + 2*entries*CQESize
	return Ring{
		v:       v,
		entries: uint32(entries),
		sqOff:   HdrSize,
		cqOff:   cqOff,
		dataOff: dataOff,
		dataLen: v.Len() - dataOff,
	}, nil
}

// Entries reports the submission-queue size.
func (r *Ring) Entries() int { return int(r.entries) }

// DataLen reports the data area size in bytes.
func (r *Ring) DataLen() int { return r.dataLen }

// Data returns a sub-view of the data area window [off, off+n).
func (r *Ring) Data(off, n int) (mem.UserView, error) {
	if off < 0 || n < 0 || off > r.dataLen || n > r.dataLen-off {
		return mem.UserView{}, fmt.Errorf("%w: data window [%d,+%d) of %d", ErrGeometry, off, n, r.dataLen)
	}
	return r.v.Sub(r.dataOff+off, n)
}

func (r *Ring) u32(off int) (uint32, error)    { return r.v.U32(off) }
func (r *Ring) putU32(off int, x uint32) error { return r.v.PutU32(off, x) }

// SqLen reports the number of submitted-but-undrained entries.
func (r *Ring) SqLen() (int, error) {
	head, err := r.u32(offSqHead)
	if err != nil {
		return 0, err
	}
	tail, err := r.u32(offSqTail)
	if err != nil {
		return 0, err
	}
	return int(tail - head), nil
}

// CqLen reports the number of completed-but-unreaped entries.
func (r *Ring) CqLen() (int, error) {
	head, err := r.u32(offCqHead)
	if err != nil {
		return 0, err
	}
	tail, err := r.u32(offCqTail)
	if err != nil {
		return 0, err
	}
	return int(tail - head), nil
}

// CqSpace reports the number of free completion slots.
func (r *Ring) CqSpace() (int, error) {
	n, err := r.CqLen()
	if err != nil {
		return 0, err
	}
	return 2*int(r.entries) - n, nil
}

// SqPush appends an SQE at the producer tail. ErrSQFull bumps the
// shared sq_dropped counter and leaves the queue unchanged.
func (r *Ring) SqPush(e *SQE) error {
	head, err := r.u32(offSqHead)
	if err != nil {
		return err
	}
	tail, err := r.u32(offSqTail)
	if err != nil {
		return err
	}
	if tail-head >= r.entries {
		dropped, err := r.u32(offSqDropped)
		if err != nil {
			return err
		}
		if err := r.putU32(offSqDropped, dropped+1); err != nil {
			return err
		}
		return ErrSQFull
	}
	slot := r.sqOff + int(tail&(r.entries-1))*SQESize
	b, err := r.v.Bytes(slot, SQESize, mem.AccessWrite)
	if err != nil {
		return err
	}
	encodeSQE(b, e)
	return r.putU32(offSqTail, tail+1)
}

// SqPop removes the SQE at the consumer head (the kernel's drain
// step). ErrSQEmpty when nothing is pending.
func (r *Ring) SqPop(e *SQE) error {
	head, err := r.u32(offSqHead)
	if err != nil {
		return err
	}
	tail, err := r.u32(offSqTail)
	if err != nil {
		return err
	}
	if tail == head {
		return ErrSQEmpty
	}
	slot := r.sqOff + int(head&(r.entries-1))*SQESize
	b, err := r.v.Bytes(slot, SQESize, mem.AccessRead)
	if err != nil {
		return err
	}
	decodeSQE(b, e)
	return r.putU32(offSqHead, head+1)
}

// CqPush appends a CQE at the producer tail (the kernel's completion
// step). ErrCQFull leaves the queue unchanged; the caller decides
// between backpressure (stop draining) and overflow (NoteOverflow).
func (r *Ring) CqPush(e *CQE) error {
	head, err := r.u32(offCqHead)
	if err != nil {
		return err
	}
	tail, err := r.u32(offCqTail)
	if err != nil {
		return err
	}
	if tail-head >= 2*r.entries {
		return ErrCQFull
	}
	slot := r.cqOff + int(tail&(2*r.entries-1))*CQESize
	b, err := r.v.Bytes(slot, CQESize, mem.AccessWrite)
	if err != nil {
		return err
	}
	encodeCQE(b, e)
	return r.putU32(offCqTail, tail+1)
}

// CqPop removes the CQE at the consumer head (the user's reap step).
func (r *Ring) CqPop(e *CQE) error {
	head, err := r.u32(offCqHead)
	if err != nil {
		return err
	}
	tail, err := r.u32(offCqTail)
	if err != nil {
		return err
	}
	if tail == head {
		return ErrCQEmpty
	}
	slot := r.cqOff + int(head&(2*r.entries-1))*CQESize
	b, err := r.v.Bytes(slot, CQESize, mem.AccessRead)
	if err != nil {
		return err
	}
	decodeCQE(b, e)
	return r.putU32(offCqHead, head+1)
}

// NoteOverflow bumps the shared cq_overflow counter: a completion was
// dropped because the CQ was full.
func (r *Ring) NoteOverflow() error {
	n, err := r.u32(offCqOverflow)
	if err != nil {
		return err
	}
	return r.putU32(offCqOverflow, n+1)
}

// Overflows reports the shared cq_overflow counter.
func (r *Ring) Overflows() (uint32, error) { return r.u32(offCqOverflow) }

// Dropped reports the shared sq_dropped counter.
func (r *Ring) Dropped() (uint32, error) { return r.u32(offSqDropped) }

// Entry codecs. Little-endian, fixed offsets; the encoded forms ARE
// the ABI documented in DESIGN.md §12.

var le = binary.LittleEndian

func encodeSQE(b []byte, e *SQE) {
	le.PutUint16(b[0:], e.Op)
	le.PutUint16(b[2:], e.Flags)
	le.PutUint32(b[4:], e.Ext)
	for i, a := range e.Args {
		le.PutUint64(b[8+i*8:], uint64(a))
	}
	le.PutUint32(b[40:], e.DataOff)
	le.PutUint32(b[44:], e.DataLen)
	le.PutUint64(b[48:], e.UserTag)
	for i := 56; i < SQESize; i++ {
		b[i] = 0
	}
}

func decodeSQE(b []byte, e *SQE) {
	e.Op = le.Uint16(b[0:])
	e.Flags = le.Uint16(b[2:])
	e.Ext = le.Uint32(b[4:])
	for i := range e.Args {
		e.Args[i] = int64(le.Uint64(b[8+i*8:]))
	}
	e.DataOff = le.Uint32(b[40:])
	e.DataLen = le.Uint32(b[44:])
	e.UserTag = le.Uint64(b[48:])
}

// EncodeSQE serializes e into a 64-byte slot; exported for anycall
// extensions' staged-block layout and tests.
func EncodeSQE(b []byte, e *SQE) { encodeSQE(b, e) }

// DecodeSQE deserializes a 64-byte slot; exported for staged-block
// validation and tests.
func DecodeSQE(b []byte, e *SQE) { decodeSQE(b, e) }

func encodeCQE(b []byte, e *CQE) {
	le.PutUint64(b[0:], e.UserTag)
	le.PutUint64(b[8:], uint64(e.Res))
	le.PutUint32(b[16:], e.Err)
	le.PutUint32(b[20:], e.Copied)
	for i := 24; i < CQESize; i++ {
		b[i] = 0
	}
}

func decodeCQE(b []byte, e *CQE) {
	e.UserTag = le.Uint64(b[0:])
	e.Res = int64(le.Uint64(b[8:]))
	e.Err = le.Uint32(b[16:])
	e.Copied = le.Uint32(b[20:])
}
