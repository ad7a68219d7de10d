// Package kext is the Cosy kernel extension, "the heart of the Cosy
// framework. It decodes each operation within a compound and then
// executes each operation in turn" (§2.3).
//
// Safety is enforced exactly the way the paper describes:
//
//   - static checks: the decoder fully bounds-checks the compound
//     buffer and Validate rejects bad registers and jump targets;
//   - x86 segmentation: a compound's data segment is the rest of the
//     ring entry that carries it, in the submitting process's own
//     ring, and every load, store, path string and payload window
//     runs through a segment descriptor over it. A reference outside
//     the segment raises a protection fault that aborts the compound,
//     and a compound has no way to name any other memory;
//   - kernel preemption: "we use a preemptive kernel that checks the
//     running time of a Cosy process inside the kernel every time it
//     is scheduled out. If this time has exceeded the maximum allowed
//     kernel time then the process is terminated". Every compound
//     runs inside a ring drain, and the drain's watchdog
//     (sim.Costs.MaxKernelCycles) is that check.
//
// Operators mean what they mean in minic: OpBin and OpUn carry
// minic's operator codes and run through minic.EvalBinOp and
// minic.EvalUnOp.
package kext

import (
	"errors"
	"fmt"

	"repro/internal/cosy/lang"
	"repro/internal/kperf"
	"repro/internal/kring"
	"repro/internal/mem"
	"repro/internal/minic"
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
}

// Engine is the loaded Cosy kernel extension.
type Engine struct {
	K    *sys.Kernel
	Mode Mode

	// procs holds each process's engine state by PID.
	procs map[int]*procState

	Stats Stats
}

// procState is the engine's state for one process: the submission
// ring ExecRing uses, whose data area carries each compound and its
// data segment, and the scratch its compounds are decoded and run in,
// reused from one compound to the next. The scratch must be per
// process, not per engine: a compound can be preempted inside a
// Charge, and another process's compound can run on the engine before
// it resumes.
type procState struct {
	ring    *sys.RingHandle
	encoded []byte        // staging copy of the compound bytes
	c       lang.Compound // the decoded compound
	regs    []int64
	// args serves every syscall of the compound: it escapes through
	// the registry's indirect call, so one per operation would cost a
	// heap object each.
	args sys.Args
	// path is the last path string a compound of the process named,
	// handed back while the next one names the same bytes.
	path string
}

// state returns pid's engine state, creating it on first use.
func (e *Engine) state(pid int) *procState {
	ps := e.procs[pid]
	if ps == nil {
		ps = &procState{}
		e.procs[pid] = ps
	}
	return ps
}

// New loads the extension into a kernel. Loading sets the kernel's
// NrCosy ring handler: a kring SQE naming NrCosy carries an encoded
// compound and then its data segment in its data window, with Args[0]
// the window offset where the data segment starts, so compounds ride
// ring batches like any other submission.
func New(k *sys.Kernel, mode Mode) *Engine {
	e := &Engine{K: k, Mode: mode, procs: make(map[int]*procState)}
	k.Cosy = e.ringExec
	return e
}

// ErrBadCompound wraps rejection errors.
var ErrBadCompound = errors.New("cosy: compound rejected")

// Ring submission geometry for ExecRing's per-process ring.
const (
	ringEntries = 8
	ringDataMin = 64 << 10
)

// ring returns the engine's cached submission ring for pr's process,
// creating (or re-creating, when the data area is too small for need
// bytes) it on demand.
func (e *Engine) ring(pr *sys.Proc, need int) (*sys.RingHandle, error) {
	ps := e.state(pr.P.PID)
	h := ps.ring
	if h != nil && h.DataLen() >= need {
		return h, nil
	}
	if h != nil {
		if err := h.Close(); err != nil {
			return nil, err
		}
		ps.ring = nil
	}
	dataBytes := ringDataMin
	for dataBytes < need {
		dataBytes *= 2
	}
	h, err := pr.RingSetup(ringEntries, dataBytes)
	if err != nil {
		return nil, err
	}
	ps.ring = h
	return h, nil
}

// OpCosy names the operation each ExecRing compound opens.
const OpCosy = "cosy.compound"

// ExecRing runs one encoded compound through the kring data plane:
// the compound bytes are staged in the process's ring data area with
// the ShmSize bytes its header asks for right after them, a single
// NrCosy SQE covers both, and ring_enter dispatches it — still one
// boundary crossing, now on the same path that batches arbitrary
// submissions. Those bytes are the compound's data segment. It is
// not cleared between compounds: bytes the compound's Init does not
// cover hold whatever the process's previous submission left. A
// compound too large for any ring fails with ErrBadCompound before
// the ring is touched. Each compound is one ktrace operation: a
// request of its own when the workload opened none, a child span of
// the workload's request otherwise.
func (e *Engine) ExecRing(pr *sys.Proc, encoded []byte) (int64, error) {
	size, err := lang.ShmSize(encoded)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCompound, err)
	}
	if size > sys.MaxRingData-len(encoded) {
		return 0, fmt.Errorf("%w: %d compound bytes and %d data bytes exceed a %d-byte ring",
			ErrBadCompound, len(encoded), size, sys.MaxRingData)
	}
	pr.BeginOp(OpCosy)
	defer pr.EndOp()
	n := len(encoded) + size
	h, err := e.ring(pr, n)
	if err != nil {
		return 0, err
	}
	v, err := h.View(0, len(encoded))
	if err != nil {
		return 0, err
	}
	if err := v.CopyOut(0, encoded); err != nil {
		return 0, err
	}
	if err := h.Push(&kring.SQE{
		Op:      uint16(sys.NrCosy),
		Args:    [4]int64{int64(len(encoded))},
		DataLen: uint32(n),
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

// ringExec is the kernel's NrCosy ring handler. The data window holds
// the encoded compound and then its data segment, which starts at
// window offset Args[0]. The compound bytes are copied into the
// process's scratch without a copy charge and decoded there (decoding
// is charged per op inside); the rest of the window is reached only
// through a segment descriptor over it.
func (e *Engine) ringExec(pr *sys.Proc, args [4]int64, data mem.UserView) (int64, error) {
	// Range-check before any conversion, so no narrowing can alias a
	// valid split (2^32 + n is not n).
	if args[0] < 0 || args[0] > int64(data.Len()) {
		return 0, fmt.Errorf("%w: data segment at %d of a %d-byte entry",
			ErrBadCompound, args[0], data.Len())
	}
	split := int(args[0])
	ps := e.state(pr.P.PID)
	if cap(ps.encoded) < split {
		ps.encoded = make([]byte, split)
	}
	ps.encoded = ps.encoded[:split]
	if split > 0 {
		if err := data.CopyIn(0, ps.encoded); err != nil {
			return 0, err
		}
	}
	d := seg.Descriptor{
		Name:  "cosy-data",
		Base:  data.Base() + mem.Addr(split),
		Limit: uint64(data.Len() - split),
		Perm:  mem.PermRW,
	}
	return e.execInKernel(pr, ps, &d)
}

// execInKernel decodes and runs the compound staged in ps.encoded over
// the data segment d.
func (e *Engine) execInKernel(pr *sys.Proc, ps *procState, d *seg.Descriptor) (int64, error) {
	costs := &e.K.M.Costs
	p := pr.P
	p.Perf.Push(kperf.SubCosy)
	defer p.Perf.Pop()

	c := &ps.c
	if err := lang.DecodeInto(c, ps.encoded); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCompound, err)
	}
	p.Charge(sim.Cycles(len(c.Code)) * costs.CosyDecodeOp)
	if uint64(c.ShmSize) > d.Limit {
		return 0, fmt.Errorf("%w: compound wants %d data bytes, segment has %d",
			ErrBadCompound, c.ShmSize, d.Limit)
	}
	for _, ini := range c.Init {
		w, err := e.window(d, int64(ini.Off), len(ini.Data), mem.AccessWrite)
		if err == nil {
			err = w.CopyOut(0, ini.Data)
		}
		if err != nil {
			return 0, fmt.Errorf("%w: init: %v", ErrBadCompound, err)
		}
		p.Charge(sim.Cycles(len(ini.Data)) * costs.CopyKernByte)
	}

	e.Stats.Compounds++
	if cap(ps.regs) < c.NRegs {
		ps.regs = make([]int64, c.NRegs)
	}
	regs := ps.regs[:c.NRegs]
	clear(regs)
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
			v, err := minic.EvalBinOp(minic.BinOp(in.Sub), regs[in.A], regs[in.B])
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case lang.OpUn:
			enterUserFunc()
			regs[in.Dst] = minic.EvalUnOp(minic.UnOp(in.Sub), regs[in.A])
		case lang.OpLoad:
			enterUserFunc()
			v, err := e.shmLoad(d, regs[in.A], int(in.Sub))
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case lang.OpStore:
			enterUserFunc()
			if err := e.shmStore(d, regs[in.A], regs[in.B], int(in.Sub)); err != nil {
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
			v, err := e.dispatch(pr, ps, d, in, regs)
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

// segCheck translates a data-segment access through the descriptor,
// counting the protection faults it raises. Every access a compound
// makes to its data goes through here.
func (e *Engine) segCheck(d *seg.Descriptor, off int64, size int, access mem.Access) (mem.Addr, error) {
	addr, err := d.Check(uint64(off), size, access)
	if err != nil {
		e.Stats.Faults++
	}
	return addr, err
}

// shmLoad reads size bytes at data offset off through the segment.
func (e *Engine) shmLoad(d *seg.Descriptor, off int64, size int) (int64, error) {
	addr, err := e.segCheck(d, off, size, mem.AccessRead)
	if err != nil {
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

func (e *Engine) shmStore(d *seg.Descriptor, off, val int64, size int) error {
	addr, err := e.segCheck(d, off, size, mem.AccessWrite)
	if err != nil {
		return err
	}
	if size == 1 {
		return e.K.M.KAS.WriteBytes(addr, []byte{byte(val)})
	}
	return e.K.M.KAS.WriteU64(addr, uint64(val))
}

// readShmString reads a NUL-terminated string at data offset off,
// one segment-checked byte at a time. When the bytes match the
// process's previous path string it returns that string, so a process
// that names one file compound after compound copies the name in once.
func (e *Engine) readShmString(ps *procState, d *seg.Descriptor, off int64) (string, error) {
	var out [4096]byte
	for n := 0; off+int64(n) < int64(d.Limit) && n < len(out); n++ {
		addr, err := e.segCheck(d, off+int64(n), 1, mem.AccessRead)
		if err != nil {
			return "", err
		}
		if err := e.K.M.KAS.ReadBytes(addr, out[n:n+1]); err != nil {
			return "", err
		}
		if out[n] == 0 {
			if string(out[:n]) != ps.path {
				ps.path = string(out[:n])
			}
			return ps.path, nil
		}
	}
	return "", fmt.Errorf("%w: unterminated string at data offset %d", ErrBadCompound, off)
}

// compoundArity is the set of system calls a compound may make, with
// the register arguments each takes; zero marks a call compounds may
// not make.
var compoundArity = [...]int{
	sys.NrOpen:   2, // path, flags
	sys.NrClose:  1, // fd
	sys.NrRead:   3, // fd, buffer, count
	sys.NrWrite:  3, // fd, buffer, count
	sys.NrLseek:  3, // fd, offset, whence
	sys.NrStat:   2, // path, stat buffer
	sys.NrFstat:  2, // fd, stat buffer
	sys.NrCreat:  1, // path
	sys.NrUnlink: 1, // path
	sys.NrMkdir:  1, // path
}

// dispatch executes one syscall operation through sys.KernelCall, the
// registry body a trapping process runs: "the system call invocation
// by the Cosy kernel module is the same as a normal process" (§2.3).
// The operation's registers decode into the process's ps.args: paths
// are strings in the data segment d, and payload and stat buffers are
// segment-checked windows of it, so data moved by read/write is copied
// once inside the kernel (page cache <-> ring data area) and never
// crosses the boundary. Those copies are charged at kernel rate: twice per
// payload byte (kernel buffer and data segment), once per stat byte.
func (e *Engine) dispatch(pr *sys.Proc, ps *procState, d *seg.Descriptor, in *lang.Instr, regs []int64) (int64, error) {
	if in.Imm < 0 || in.Imm >= int64(len(compoundArity)) || compoundArity[in.Imm] == 0 {
		return 0, fmt.Errorf("%w: syscall %v not permitted in compounds", ErrBadCompound, sys.Nr(in.Imm))
	}
	nr := sys.Nr(in.Imm)
	if want := compoundArity[nr]; len(in.Args) != want {
		return 0, fmt.Errorf("%w: sys_%v wants %d args, got %d", ErrBadCompound, nr, want, len(in.Args))
	}
	arg := func(i int) int64 { return regs[in.Args[i]] }
	copyCost := e.K.M.Costs.CopyKernByte

	a := &ps.args
	*a = sys.Args{}
	var err error
	switch nr {
	case sys.NrOpen, sys.NrCreat, sys.NrUnlink, sys.NrMkdir:
		a.Path, err = e.readShmString(ps, d, arg(0))
		if nr == sys.NrOpen {
			a.Flags = int(arg(1))
		}
	case sys.NrStat:
		if a.Path, err = e.readShmString(ps, d, arg(0)); err == nil {
			a.Buf, err = e.window(d, arg(1), vfs.StatSize, mem.AccessWrite)
		}
	case sys.NrFstat:
		a.Fd = int(arg(0))
		a.Buf, err = e.window(d, arg(1), vfs.StatSize, mem.AccessWrite)
	case sys.NrClose:
		a.Fd = int(arg(0))
	case sys.NrLseek:
		a.Fd, a.Off, a.Whence = int(arg(0)), arg(1), int(arg(2))
	case sys.NrRead, sys.NrWrite:
		a.Fd = int(arg(0))
		count := arg(2)
		if count < 0 || count > int64(d.Limit) {
			return 0, fmt.Errorf("%w: %v of %d bytes", ErrBadCompound, nr, count)
		}
		access := mem.AccessWrite
		if nr == sys.NrWrite {
			access = mem.AccessRead
		}
		a.Buf, err = e.window(d, arg(1), int(count), access)
	}
	if err != nil {
		return 0, err
	}
	if nr == sys.NrWrite {
		pr.P.Charge(sim.Cycles(2*a.Buf.Len()) * copyCost)
	}

	v, err := pr.KernelCall(nr, a)
	if err != nil {
		return 0, err
	}
	switch nr {
	case sys.NrRead:
		pr.P.Charge(sim.Cycles(2*v) * copyCost)
	case sys.NrStat, sys.NrFstat:
		pr.P.Charge(vfs.StatSize * copyCost)
	}
	return v, nil
}

// window returns the segment-checked data range [off, off+n) as a
// kernel view.
func (e *Engine) window(d *seg.Descriptor, off int64, n int, access mem.Access) (mem.UserView, error) {
	addr, err := e.segCheck(d, off, n, access)
	if err != nil {
		return mem.UserView{}, err
	}
	return e.K.M.KAS.View(addr, n), nil
}
