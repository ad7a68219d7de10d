// Package kext is the Cosy kernel extension, "the heart of the Cosy
// framework. It decodes each operation within a compound and then
// executes each operation in turn" (§2.3).
//
// Safety is enforced exactly the way the paper describes:
//
//   - static checks: the decoder fully bounds-checks the compound
//     buffer and Validate rejects bad registers and jump targets;
//   - x86 segmentation: every shared-buffer access runs through a
//     segment descriptor; a reference outside the segment raises a
//     protection fault that aborts the compound;
//   - kernel preemption: "we use a preemptive kernel that checks the
//     running time of a Cosy process inside the kernel every time it
//     is scheduled out. If this time has exceeded the maximum allowed
//     kernel time then the process is terminated" — implemented on
//     the scheduler's preemption hook.
package kext

import (
	"errors"
	"fmt"

	"repro/internal/cosy/lang"
	"repro/internal/kernel"
	"repro/internal/kperf"
	"repro/internal/kring"
	"repro/internal/mem"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// Mode selects the memory-protection approach of §2.3.
type Mode int

const (
	// ModeIsolated puts the user function in an isolated segment:
	// "This approach assures maximum security ... However, to invoke
	// a function in a different segment involves overhead" — charged
	// as a far call (SegLoad) each time execution enters user-function
	// code.
	ModeIsolated Mode = iota
	// ModeDataSeg isolates only the function's data: "this approach
	// involves no additional runtime overhead while calling such a
	// function ... However ... it provides little protection against
	// self-modifying code and is also vulnerable to hand-crafted user
	// functions."
	ModeDataSeg
)

func (m Mode) String() string {
	if m == ModeIsolated {
		return "isolated-segment"
	}
	return "data-segment"
}

// Stats counts extension activity.
type Stats struct {
	Compounds  int64
	Ops        int64
	Syscalls   int64
	SegEntries int64 // far calls into the isolated segment (mode A)
	Faults     int64
	Kills      int64
}

// Engine is the loaded Cosy kernel extension.
type Engine struct {
	K     *sys.Kernel
	Table *seg.Table
	Mode  Mode
	// MaxKernel overrides Costs.MaxKernelCycles when nonzero.
	MaxKernel sim.Cycles

	// shms indexes shared buffers by selector so ring SQEs can name
	// them by scalar argument.
	shms map[seg.Selector]*Shm
	// rings caches one submission ring per process for ExecRing.
	rings map[int]*sys.RingHandle

	Stats Stats
}

// New loads the extension into a kernel. Loading registers the NrCosy
// ring op: a kring SQE naming NrCosy carries an encoded compound in
// its data window and the shm selector in Args[0], so compounds ride
// ring batches like any other submission.
func New(k *sys.Kernel, mode Mode) *Engine {
	e := &Engine{
		K: k, Table: seg.NewTable(), Mode: mode,
		shms:  make(map[seg.Selector]*Shm),
		rings: make(map[int]*sys.RingHandle),
	}
	k.RegisterRingOp(uint16(sys.NrCosy), e.ringExec)
	return e
}

// Shm is one shared buffer: mapped in the kernel, addressable by the
// compound through a segment descriptor, and writable by user code
// before the call (the "zero-copy" buffer: both sides see the same
// pages, so data moved by in-kernel syscalls never crosses the
// boundary).
type Shm struct {
	eng  *Engine
	base mem.Addr
	size int
	sel  seg.Selector
}

// NewShm maps a shared buffer of at least size bytes.
func (e *Engine) NewShm(size int) (*Shm, error) {
	pages := mem.PagesFor(size)
	if pages == 0 {
		pages = 1
	}
	base, err := e.K.M.KAS.MapRegion(pages, mem.PermRW)
	if err != nil {
		return nil, err
	}
	sel := e.Table.Alloc(seg.Descriptor{
		Name: "cosy-shm", Base: base, Limit: uint64(size), Perm: mem.PermRW,
	})
	s := &Shm{eng: e, base: base, size: size, sel: sel}
	e.shms[sel] = s
	return s, nil
}

// Selector names the buffer in ring submissions (SQE Args[0]).
func (s *Shm) Selector() seg.Selector { return s.sel }

// Size reports the buffer size.
func (s *Shm) Size() int { return s.size }

// Write places data at off (user-side setup or test inspection; the
// segment check still applies).
func (s *Shm) Write(off int, data []byte) error {
	addr, err := s.eng.Table.Check(s.sel, uint64(off), len(data), mem.AccessWrite)
	if err != nil {
		return err
	}
	return s.eng.K.M.KAS.View(addr, len(data)).CopyOut(0, data)
}

// Read returns n bytes at off.
func (s *Shm) Read(off, n int) ([]byte, error) {
	addr, err := s.eng.Table.Check(s.sel, uint64(off), n, mem.AccessRead)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := s.eng.K.M.KAS.View(addr, n).CopyIn(0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ErrBadCompound wraps rejection errors.
var ErrBadCompound = errors.New("cosy: compound rejected")

// Ring submission geometry for ExecRing's per-process ring.
const (
	ringEntries = 8
	ringDataMin = 64 << 10
)

// Ring returns the engine's cached submission ring for pr's process,
// creating (or re-creating, when the data area is too small for need
// bytes) it on demand. Exposed so callers can batch their own NrCosy
// SQEs on the exact ring ExecRing uses.
func (e *Engine) Ring(pr *sys.Proc, need int) (*sys.RingHandle, error) {
	h := e.rings[pr.P.PID]
	if h != nil && h.DataLen() >= need {
		return h, nil
	}
	if h != nil {
		if err := h.Close(); err != nil {
			return nil, err
		}
		delete(e.rings, pr.P.PID)
	}
	dataBytes := ringDataMin
	for dataBytes < need {
		dataBytes *= 2
	}
	h, err := pr.RingSetup(ringEntries, dataBytes)
	if err != nil {
		return nil, err
	}
	e.rings[pr.P.PID] = h
	return h, nil
}

// OpCosy names the operation each ExecRing compound opens.
const OpCosy = "cosy.compound"

// ExecRing runs one encoded compound through the kring data plane:
// the compound bytes are staged into the ring's shared data area, a
// single NrCosy SQE names them plus the shm selector, and ring_enter
// dispatches it — still one boundary crossing, now on the same path
// that batches arbitrary submissions. Each compound is one ktrace
// operation: a request of its own when the workload opened none, a
// child span of the workload's request otherwise.
func (e *Engine) ExecRing(pr *sys.Proc, encoded []byte, shm *Shm) (int64, error) {
	pr.BeginOp(OpCosy)
	defer pr.EndOp()
	h, err := e.Ring(pr, len(encoded))
	if err != nil {
		return 0, err
	}
	if len(encoded) > 0 {
		v, err := h.View(0, len(encoded))
		if err != nil {
			return 0, err
		}
		if err := v.CopyOut(0, encoded); err != nil {
			return 0, err
		}
	}
	if err := h.Push(&kring.SQE{
		Op:      uint16(sys.NrCosy),
		Args:    [4]int64{int64(shm.sel)},
		DataLen: uint32(len(encoded)),
	}); err != nil {
		return 0, err
	}
	if _, err := h.Enter(); err != nil {
		return 0, err
	}
	cqe, herr, err := h.Pop()
	if err != nil {
		return 0, err
	}
	if herr != nil {
		return 0, herr
	}
	return cqe.Res, nil
}

// ringExec is the registered NrCosy ring op: Args[0] selects the shm,
// the data window holds the encoded compound. The compound bytes are
// read through the shared mapping without a boundary copy charge —
// the same charge-free treatment the legacy trap entry gave its
// encoded argument (decode cost is charged per op inside).
func (e *Engine) ringExec(pr *sys.Proc, args [4]int64, data mem.UserView) (int64, error) {
	shm := e.shms[seg.Selector(args[0])]
	if shm == nil {
		return 0, fmt.Errorf("%w: no shm with selector %d", ErrBadCompound, args[0])
	}
	encoded := make([]byte, data.Len())
	if len(encoded) > 0 {
		if err := data.CopyIn(0, encoded); err != nil {
			return 0, err
		}
	}
	return e.execInKernel(pr, encoded, shm)
}

func (e *Engine) execInKernel(pr *sys.Proc, encoded []byte, shm *Shm) (int64, error) {
	costs := &e.K.M.Costs
	p := pr.P
	p.Perf.Push(kperf.SubCosy)
	defer p.Perf.Pop()

	c, err := lang.Decode(encoded)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCompound, err)
	}
	p.Charge(sim.Cycles(len(c.Code)) * costs.CosyDecodeOp)
	if c.ShmSize > shm.size {
		return 0, fmt.Errorf("%w: compound wants %d shm bytes, buffer has %d",
			ErrBadCompound, c.ShmSize, shm.size)
	}
	for _, ini := range c.Init {
		if err := shm.Write(ini.Off, ini.Data); err != nil {
			return 0, fmt.Errorf("%w: init: %v", ErrBadCompound, err)
		}
		p.Charge(sim.Cycles(len(ini.Data)) * costs.CopyKernByte)
	}

	// Arm the preemption watchdog.
	max := e.MaxKernel
	if max == 0 {
		max = costs.MaxKernelCycles
	}
	prev := p.OnPreempt
	p.OnPreempt = func(p *kernel.Process) error {
		if p.KernelStreak() > max {
			e.Stats.Kills++
			return fmt.Errorf("cosy: compound exceeded maximum kernel time (%v > %v)",
				p.KernelStreak(), max)
		}
		if prev != nil {
			return prev(p)
		}
		return nil
	}
	defer func() { p.OnPreempt = prev }()

	e.Stats.Compounds++
	regs := make([]int64, c.NRegs)
	inUserFunc := false
	enterUserFunc := func() {
		if e.Mode == ModeIsolated && !inUserFunc {
			p.Charge(costs.SegLoad)
			e.Stats.SegEntries++
		}
		inUserFunc = true
	}

	pc := 0
	for {
		if pc < 0 || pc >= len(c.Code) {
			return 0, fmt.Errorf("%w: pc %d out of range", ErrBadCompound, pc)
		}
		in := &c.Code[pc]
		e.Stats.Ops++
		p.Charge(costs.CosyExecOp)
		switch in.Op {
		case lang.OpEnd:
			if in.A == lang.NoReg {
				return 0, nil
			}
			return regs[in.A], nil
		case lang.OpConst:
			enterUserFunc()
			regs[in.Dst] = in.Imm
		case lang.OpMov:
			enterUserFunc()
			regs[in.Dst] = regs[in.A]
		case lang.OpBin:
			enterUserFunc()
			v, err := evalBin(in.Sub, regs[in.A], regs[in.B])
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case lang.OpUn:
			enterUserFunc()
			switch in.Sub {
			case lang.UnNeg:
				regs[in.Dst] = -regs[in.A]
			case lang.UnNot:
				if regs[in.A] == 0 {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
			case lang.UnBNot:
				regs[in.Dst] = ^regs[in.A]
			}
		case lang.OpLoad:
			enterUserFunc()
			v, err := e.shmLoad(p, shm, regs[in.A], int(in.Sub))
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case lang.OpStore:
			enterUserFunc()
			if err := e.shmStore(p, shm, regs[in.A], regs[in.B], int(in.Sub)); err != nil {
				return 0, err
			}
		case lang.OpJmp:
			pc = int(in.Imm)
			continue
		case lang.OpBrz:
			enterUserFunc()
			if regs[in.A] == 0 {
				pc = int(in.Imm)
				continue
			}
		case lang.OpSys:
			inUserFunc = false
			e.Stats.Syscalls++
			v, err := e.dispatch(pr, shm, sys.Nr(in.Imm), in.Args, regs)
			if err != nil {
				regs[in.Dst] = -1
				// System call errors terminate the compound, like an
				// errno check would; the error is reported to user
				// space.
				return 0, err
			}
			regs[in.Dst] = v
		default:
			return 0, fmt.Errorf("%w: opcode %v", ErrBadCompound, in.Op)
		}
		pc++
	}
}

// shmLoad reads size bytes at shm offset off through the segment.
func (e *Engine) shmLoad(p *kernel.Process, shm *Shm, off int64, size int) (int64, error) {
	addr, err := e.Table.Check(shm.sel, uint64(off), size, mem.AccessRead)
	if err != nil {
		e.Stats.Faults++
		return 0, err
	}
	if size == 1 {
		var b [1]byte
		if err := e.K.M.KAS.ReadBytes(addr, b[:]); err != nil {
			return 0, err
		}
		return int64(b[0]), nil
	}
	v, err := e.K.M.KAS.ReadU64(addr)
	return int64(v), err
}

func (e *Engine) shmStore(p *kernel.Process, shm *Shm, off, val int64, size int) error {
	addr, err := e.Table.Check(shm.sel, uint64(off), size, mem.AccessWrite)
	if err != nil {
		e.Stats.Faults++
		return err
	}
	if size == 1 {
		return e.K.M.KAS.WriteBytes(addr, []byte{byte(val)})
	}
	return e.K.M.KAS.WriteU64(addr, uint64(val))
}

// readShmString reads a NUL-terminated string at shm offset off.
func (e *Engine) readShmString(shm *Shm, off int64) (string, error) {
	var out []byte
	for int(off)+len(out) < shm.size && len(out) < 4096 {
		b, err := shm.Read(int(off)+len(out), 1)
		if err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
	}
	return "", fmt.Errorf("%w: unterminated string at shm offset %d", ErrBadCompound, off)
}

// dispatch executes one syscall operation. Buffers live in the shared
// region: data moved by read/write is copied once inside the kernel
// (page cache <-> shm) and never crosses the boundary.
func (e *Engine) dispatch(pr *sys.Proc, shm *Shm, nr sys.Nr, args []lang.Reg, regs []int64) (int64, error) {
	costs := &e.K.M.Costs
	arg := func(i int) int64 {
		if i < len(args) {
			return regs[args[i]]
		}
		return 0
	}
	argN := func(want int) error {
		if len(args) != want {
			return fmt.Errorf("%w: sys_%v wants %d args, got %d", ErrBadCompound, nr, want, len(args))
		}
		return nil
	}
	switch nr {
	case sys.NrOpen:
		if err := argN(2); err != nil {
			return 0, err
		}
		path, err := e.readShmString(shm, arg(0))
		if err != nil {
			return 0, err
		}
		fd, err := pr.KOpen(path, int(arg(1)))
		return int64(fd), err
	case sys.NrCreat:
		if err := argN(1); err != nil {
			return 0, err
		}
		path, err := e.readShmString(shm, arg(0))
		if err != nil {
			return 0, err
		}
		fd, err := pr.KCreat(path)
		return int64(fd), err
	case sys.NrClose:
		if err := argN(1); err != nil {
			return 0, err
		}
		return 0, pr.KClose(int(arg(0)))
	case sys.NrRead:
		if err := argN(3); err != nil {
			return 0, err
		}
		fd, bufOff, count := int(arg(0)), arg(1), int(arg(2))
		if count < 0 || count > shm.size {
			return 0, fmt.Errorf("%w: read of %d bytes", ErrBadCompound, count)
		}
		// Segment-check the destination before doing any work.
		addr, err := e.Table.Check(shm.sel, uint64(bufOff), count, mem.AccessWrite)
		if err != nil {
			e.Stats.Faults++
			return 0, err
		}
		kbuf := make([]byte, count)
		n, err := pr.KRead(fd, kbuf)
		if err != nil {
			return 0, err
		}
		if err := e.K.M.KAS.WriteBytes(addr, kbuf[:n]); err != nil {
			return 0, err
		}
		pr.P.Charge(sim.Cycles(n) * costs.CopyKernByte)
		return int64(n), nil
	case sys.NrWrite:
		if err := argN(3); err != nil {
			return 0, err
		}
		fd, bufOff, count := int(arg(0)), arg(1), int(arg(2))
		if count < 0 || count > shm.size {
			return 0, fmt.Errorf("%w: write of %d bytes", ErrBadCompound, count)
		}
		addr, err := e.Table.Check(shm.sel, uint64(bufOff), count, mem.AccessRead)
		if err != nil {
			e.Stats.Faults++
			return 0, err
		}
		kbuf := make([]byte, count)
		if err := e.K.M.KAS.ReadBytes(addr, kbuf); err != nil {
			return 0, err
		}
		pr.P.Charge(sim.Cycles(count) * costs.CopyKernByte)
		n, err := pr.KWrite(fd, kbuf)
		return int64(n), err
	case sys.NrLseek:
		if err := argN(3); err != nil {
			return 0, err
		}
		off, err := pr.KLseek(int(arg(0)), arg(1), int(arg(2)))
		return off, err
	case sys.NrStat, sys.NrFstat:
		var a vfs.Attr
		var err error
		var statOff int64
		if nr == sys.NrStat {
			if err := argN(2); err != nil {
				return 0, err
			}
			var path string
			path, err = e.readShmString(shm, arg(0))
			if err != nil {
				return 0, err
			}
			statOff = arg(1)
			a, err = pr.KStat(path)
		} else {
			if err := argN(2); err != nil {
				return 0, err
			}
			statOff = arg(1)
			a, err = pr.KFstat(int(arg(0)))
		}
		if err != nil {
			return 0, err
		}
		buf := EncodeStat(a)
		addr, err := e.Table.Check(shm.sel, uint64(statOff), len(buf), mem.AccessWrite)
		if err != nil {
			e.Stats.Faults++
			return 0, err
		}
		if err := e.K.M.KAS.WriteBytes(addr, buf); err != nil {
			return 0, err
		}
		pr.P.Charge(sim.Cycles(len(buf)) * costs.CopyKernByte)
		return 0, nil
	case sys.NrUnlink:
		if err := argN(1); err != nil {
			return 0, err
		}
		path, err := e.readShmString(shm, arg(0))
		if err != nil {
			return 0, err
		}
		return 0, pr.KUnlink(path)
	case sys.NrMkdir:
		if err := argN(1); err != nil {
			return 0, err
		}
		path, err := e.readShmString(shm, arg(0))
		if err != nil {
			return 0, err
		}
		return 0, pr.KMkdir(path)
	}
	return 0, fmt.Errorf("%w: syscall %v not permitted in compounds", ErrBadCompound, nr)
}

func evalBin(code uint8, a, b int64) (int64, error) {
	switch code {
	case lang.BinAdd:
		return a + b, nil
	case lang.BinSub:
		return a - b, nil
	case lang.BinMul:
		return a * b, nil
	case lang.BinDiv:
		if b == 0 {
			return 0, errors.New("cosy: division by zero in compound")
		}
		return a / b, nil
	case lang.BinMod:
		if b == 0 {
			return 0, errors.New("cosy: modulo by zero in compound")
		}
		return a % b, nil
	case lang.BinAnd:
		return a & b, nil
	case lang.BinOr:
		return a | b, nil
	case lang.BinXor:
		return a ^ b, nil
	case lang.BinShl:
		return a << (uint64(b) & 63), nil
	case lang.BinShr:
		return a >> (uint64(b) & 63), nil
	case lang.BinEq:
		return b2i(a == b), nil
	case lang.BinNe:
		return b2i(a != b), nil
	case lang.BinLt:
		return b2i(a < b), nil
	case lang.BinLe:
		return b2i(a <= b), nil
	case lang.BinGt:
		return b2i(a > b), nil
	case lang.BinGe:
		return b2i(a >= b), nil
	}
	return 0, fmt.Errorf("cosy: bad binop code %d", code)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// EncodeStat serializes an Attr into the vfs.StatSize-byte struct
// stat layout the compound sees in the shared buffer.
func EncodeStat(a vfs.Attr) []byte {
	buf := make([]byte, vfs.StatSize)
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put(0, uint64(a.ID))
	put(8, uint64(a.Size))
	put(16, uint64(a.Nlink))
	put(24, uint64(a.Mode))
	put(32, uint64(a.Type))
	put(40, uint64(a.Mtime))
	return buf
}

// DecodeStat is the inverse of EncodeStat.
func DecodeStat(buf []byte) vfs.Attr {
	get := func(off int) uint64 {
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(buf[off+i])
		}
		return v
	}
	return vfs.Attr{
		ID:    vfs.NodeID(get(0)),
		Size:  int64(get(8)),
		Nlink: int(get(16)),
		Mode:  uint16(get(24)),
		Type:  vfs.FileType(get(32)),
		Mtime: sim.Cycles(get(40)),
	}
}
