package workload

import (
	"errors"
	"fmt"

	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/kring"
	"repro/internal/sys"
)

// A Submitter carries one program's file operations to the kernel.
// The program is written once; the Submitter decides how its
// operations cross the boundary: one trap per operation (NewTrap),
// one Cosy compound per transaction (NewCosy), or batches of ring
// SQEs (NewRing). Every backend performs the same operations in an
// order the program cannot tell apart, so results agree across them;
// payload bytes are unspecified on every path.
//
// Errors stick: after the first failure Do does nothing and End and
// Finish report it. A descriptor must be closed within the
// transaction (or the run of operations outside any transaction)
// that opened it, and no other operation may touch its file while it
// is open: the ring runs a descriptor's operations at its close. A
// Submitter serves one program run.
type Submitter interface {
	// Start binds the submitter to pr before the first operation;
	// bufLen is the largest payload any operation moves.
	Start(pr *sys.Proc, bufLen int) error
	// Begin opens a transaction whose user compute is think.
	Begin(think func(pr *sys.Proc) error)
	// Do submits op and returns the descriptor an open or creat
	// produces. Results are settled later: by End (Cosy), at reap
	// (ring), or at once (trap).
	Do(op Op) FD
	// End closes the transaction and reports the sticky error.
	End() error
	// Finish submits whatever is still staged, releases the
	// submitter's kernel resources, and reports the sticky error.
	Finish() error
	// BytesRead is the total read so far, counting settled reads only.
	BytesRead() int64
}

// Op is one file operation. Path names the file of an open, creat or
// unlink; FD names the descriptor of a read, write, lseek or close.
// Read and write move Len payload bytes.
type Op struct {
	Nr     sys.Nr
	Path   string
	FD     FD
	Flags  int // open flags
	Len    int
	Off    int64 // lseek offset
	Whence int   // lseek whence
}

// FD is a descriptor handle, meaningful only to the Submitter that
// returned it.
type FD int

// NewTrap returns the classic backend: every operation is one system
// call, and every transaction one OpPostmarkTxn request.
func NewTrap() Submitter { return &trapSub{} }

type trapSub struct {
	pr   *sys.Proc
	buf  sys.UserBuf
	read int64
	err  error
}

func (t *trapSub) Start(pr *sys.Proc, bufLen int) error {
	t.pr = pr
	t.buf, t.err = pr.Mmap(bufLen)
	return t.err
}

func (t *trapSub) Begin(think func(pr *sys.Proc) error) {
	t.pr.BeginOp(OpPostmarkTxn)
	if t.err == nil {
		t.err = think(t.pr)
	}
}

func (t *trapSub) Do(op Op) FD {
	if t.err != nil {
		return 0
	}
	pr, fd, ub := t.pr, int(op.FD), sys.UserBuf{Addr: t.buf.Addr, Len: op.Len}
	var n int
	switch op.Nr {
	case sys.NrOpen:
		fd, t.err = pr.Open(op.Path, op.Flags)
	case sys.NrCreat:
		fd, t.err = pr.Creat(op.Path)
	case sys.NrRead:
		n, t.err = pr.Read(fd, ub)
		t.read += int64(n)
	case sys.NrWrite:
		_, t.err = pr.Write(fd, ub)
	case sys.NrLseek:
		_, t.err = pr.Lseek(fd, op.Off, op.Whence)
	case sys.NrClose:
		t.err = pr.Close(fd)
	case sys.NrUnlink:
		t.err = pr.Unlink(op.Path)
	default:
		t.err = fmt.Errorf("workload: %v is not a submitter op", op.Nr)
	}
	return FD(fd)
}

func (t *trapSub) End() error {
	t.pr.EndOp()
	return t.err
}

func (t *trapSub) Finish() error    { return t.err }
func (t *trapSub) BytesRead() int64 { return t.read }

// NewCosy returns the Cosy backend: a transaction's operations are
// built into one compound, run on e at End as one OpPostmarkTxn
// request (its read results summed into the compound's return value).
// Operations outside a transaction stay plain system calls.
func NewCosy(e *kext.Engine) Submitter { return &cosySub{e: e} }

type cosySub struct {
	trapSub
	e *kext.Engine
	// The open transaction: its compound (nil outside one), the
	// payload buffer's data-segment offset, the register summing
	// reads, and its think time.
	b      *lib.Builder
	bufOff int
	ret    lang.Reg
	think  func(pr *sys.Proc) error
}

func (c *cosySub) Begin(think func(pr *sys.Proc) error) {
	c.b, c.think = lib.New(), think
	c.bufOff = c.b.Alloc(c.buf.Len)
	c.ret = c.b.Const(0)
}

func (c *cosySub) Do(op Op) FD {
	b := c.b
	if b == nil {
		return c.trapSub.Do(op)
	}
	nr, fd := uint16(op.Nr), lang.Reg(op.FD)
	switch op.Nr {
	case sys.NrOpen:
		return FD(b.Sys(nr, b.Const(int64(b.String(op.Path))), b.Const(int64(op.Flags))))
	case sys.NrCreat:
		return FD(b.Sys(nr, b.Const(int64(b.String(op.Path)))))
	case sys.NrRead:
		n := b.Sys(nr, fd, b.Const(int64(c.bufOff)), b.Const(int64(op.Len)))
		b.BinInto(c.ret, "+", c.ret, n)
	case sys.NrWrite:
		b.Sys(nr, fd, b.Const(int64(c.bufOff)), b.Const(int64(op.Len)))
	case sys.NrLseek:
		b.Sys(nr, fd, b.Const(op.Off), b.Const(int64(op.Whence)))
	case sys.NrClose:
		b.Sys(nr, fd)
	case sys.NrUnlink:
		b.Sys(nr, b.Const(int64(b.String(op.Path))))
	default:
		if c.err == nil {
			c.err = fmt.Errorf("workload: %v is not a submitter op", op.Nr)
		}
	}
	return 0
}

func (c *cosySub) End() error {
	b := c.b
	c.b = nil
	if c.err != nil {
		return c.err
	}
	raw, err := b.Build(c.ret)
	if err == nil {
		pr := c.pr
		pr.BeginOp(OpPostmarkTxn)
		if err = c.think(pr); err == nil {
			var n int64
			n, err = c.e.ExecRing(pr, raw)
			c.read += n
		}
		pr.EndOp()
	}
	c.err = err
	return err
}

// OpPostmarkBatch is the traced request of the ring backend: one per
// ring_enter, the analogue of OpPostmarkTxn on the other paths.
const OpPostmarkBatch = "postmark.batch"

// tagRead marks read SQEs so their byte counts settle at reap.
const tagRead uint64 = 1

// NewRing returns the kring backend. The operations on one descriptor
// are staged until its close and then committed as one group of SQEs
// (later entries name the descriptor with FlagFDRel); an unlink is a
// group of its own. Payloads ride the shared data area, and batch
// SQEs share one ring_enter crossing. Think time is charged at Begin.
func NewRing(batch int) Submitter { return &ringSub{batch: max(batch, 1)} }

type ringSub struct {
	pr     *sys.Proc
	h      *sys.RingHandle
	batch  int // flush threshold in SQEs
	pushed int
	cursor int    // data-area staging cursor, reset per flush
	open   [][]Op // staged operations by descriptor; nil once closed
	read   int64
	err    error
}

// nextPow2 rounds n up to a power of two (min 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

func (r *ringSub) Start(pr *sys.Proc, bufLen int) error {
	r.pr = pr
	// A PostMark transaction is up to 7 SQEs. Size the data area for
	// the batch's payloads, but let the cursor check flush early
	// rather than exceed the ring ceiling.
	entries := max(min(nextPow2(r.batch), kring.MaxEntries), 8)
	dataBytes := min(r.batch*(bufLen+64)+2*bufLen+8192, sys.MaxRingData)
	r.h, r.err = pr.RingSetup(entries, dataBytes)
	return r.err
}

func (r *ringSub) Begin(think func(pr *sys.Proc) error) {
	if r.err == nil {
		r.err = think(r.pr)
	}
}

func (r *ringSub) Do(op Op) FD {
	if r.err != nil {
		return 0
	}
	switch op.Nr {
	case sys.NrOpen, sys.NrCreat:
		r.open = append(r.open, []Op{op})
		return FD(len(r.open) - 1)
	case sys.NrUnlink:
		r.err = r.commit([]Op{op})
		return 0
	}
	if op.FD < 0 || int(op.FD) >= len(r.open) || r.open[op.FD] == nil {
		r.err = fmt.Errorf("workload: ring: %v on unknown descriptor %d", op.Nr, op.FD)
		return 0
	}
	g := append(r.open[op.FD], op)
	r.open[op.FD] = g
	if op.Nr == sys.NrClose {
		r.open[op.FD] = nil
		for len(r.open) > 0 && r.open[len(r.open)-1] == nil {
			r.open = r.open[:len(r.open)-1]
		}
		r.err = r.commit(g)
	}
	return 0
}

// commit pushes one group after flushing if it would not fit the
// current batch, so a group never straddles two ring_enters.
func (r *ringSub) commit(g []Op) error {
	need := 0
	for _, op := range g {
		need += len(op.Path) + op.Len
	}
	if r.pushed+len(g) > r.h.Entries() || r.cursor+need > r.h.DataLen() || r.pushed >= r.batch {
		if err := r.flush(); err != nil {
			return err
		}
	}
	for i, op := range g {
		// Entry i of a group names the descriptor the group's first
		// entry produced, i completions back.
		e := kring.SQE{Op: uint16(op.Nr)}
		if i > 0 {
			e.Flags, e.Args[0] = kring.FlagFDRel, int64(i)
		}
		switch op.Nr {
		case sys.NrOpen, sys.NrCreat, sys.NrUnlink:
			v, err := r.h.View(r.cursor, len(op.Path))
			if err == nil {
				err = v.CopyOut(0, []byte(op.Path))
			}
			if err != nil {
				return err
			}
			e.Args[0] = int64(op.Flags)
			e.DataOff, e.DataLen = uint32(r.cursor), uint32(len(op.Path))
			r.cursor += len(op.Path)
		case sys.NrRead, sys.NrWrite:
			// Payload windows are claimed, never filled: their
			// contents are whatever the area last held.
			e.DataOff, e.DataLen = uint32(r.cursor), uint32(op.Len)
			r.cursor += op.Len
			if op.Nr == sys.NrRead {
				e.UserTag = tagRead
			}
		case sys.NrLseek:
			e.Args[1], e.Args[2] = op.Off, int64(op.Whence)
		}
		if err := r.h.Push(&e); err != nil {
			return err
		}
		r.pushed++
	}
	return nil
}

// flush drains the staged batch in one crossing and settles read byte
// counts from the completions.
func (r *ringSub) flush() error {
	if r.pushed == 0 {
		return nil
	}
	r.pr.BeginOp(OpPostmarkBatch)
	n, err := r.h.Enter()
	r.pr.EndOp()
	if err != nil {
		return err
	}
	if int(n) != r.pushed {
		return fmt.Errorf("workload: ring: flushed %d of %d entries", n, r.pushed)
	}
	for i := int64(0); i < n; i++ {
		cqe, herr, err := r.h.Pop()
		if err != nil {
			return err
		}
		if herr != nil {
			return herr
		}
		if cqe.UserTag == tagRead {
			r.read += cqe.Res
		}
	}
	r.pushed, r.cursor = 0, 0
	return nil
}

func (r *ringSub) End() error { return r.err }

func (r *ringSub) Finish() error {
	if r.err == nil && len(r.open) > 0 {
		r.err = errors.New("workload: ring: descriptor left open at finish")
	}
	if r.err == nil {
		r.err = r.flush()
	}
	if err := r.h.Close(); r.err == nil {
		r.err = err
	}
	return r.err
}

func (r *ringSub) BytesRead() int64 { return r.read }
