package sys

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/kgcc"
	"repro/internal/kperf"
	"repro/internal/kprobe"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Kernel bundles the machine, the mount namespace, and the syscall
// probes: everything the syscall layer needs.
type Kernel struct {
	M  *kernel.Machine
	NS *vfs.Namespace
	// Calls counts syscall invocations by number, and CallsTotal
	// counts them all; enter bumps both.
	Calls      [nrCount]int64
	CallsTotal int64
	// BytesIn/BytesOut count bytes copied across the user/kernel
	// boundary in each direction (copyin/copyout).
	BytesIn, BytesOut int64

	// RingOps counts SQEs dispatched by ring_enter drain loops; they
	// are deliberately NOT in Calls, so TotalCalls stays a faithful
	// count of boundary crossings. RingBytes counts payload bytes that
	// moved at kernel-copy rate through ring data areas instead of
	// crossing the boundary; RingOverflows counts completions lost (or
	// staged blocks rejected) to a full CQ or pending queue.
	RingOps, RingBytes, RingOverflows int64

	// Cosy runs an NrCosy ring entry: the Cosy extension sets it when
	// it loads (kext.New), and a drain hands it the entry's scalar args
	// and its data-area window. It charges its own cycles. While it is
	// nil, an NrCosy entry fails like an unknown op.
	Cosy func(pr *Proc, args [4]int64, data mem.UserView) (int64, error)

	// Probes is the kprobe subsystem (nil on kernels booted without
	// it); enter/exit dispatch its syscall tracepoints.
	Probes *kprobe.Manager

	// Ku is the kucode extension loader, created lazily on the first
	// ku_load.
	Ku *kgcc.Loader[struct{}]

	// exitTaps observe syscall completion from kernel context with
	// the span duration, before the kernel->user return. Unlike
	// observers, a tap runs while the syscall is still open, so charges
	// it makes (e.g. kmon event dispatch) attribute inside the
	// syscall's kperf slot — the seam E9's streaming bridge uses.
	exitTaps []ExitTap
}

// ExitTap observes one completed syscall in kernel context: the
// process, the call, the boundary byte counts, and the span duration
// in cycles.
type ExitTap func(p *kernel.Process, nr Nr, in, out int, dur sim.Cycles)

// AddExitTap registers a kernel-context syscall-completion observer.
func (k *Kernel) AddExitTap(t ExitTap) {
	k.exitTaps = append(k.exitTaps, t)
}

// NewKernel wires a syscall layer over machine and namespace.
func NewKernel(m *kernel.Machine, ns *vfs.Namespace) *Kernel {
	return &Kernel{M: m, NS: ns}
}

// TotalCalls reports the total number of system calls served.
func (k *Kernel) TotalCalls() int64 { return k.CallsTotal }

// Errors of the syscall layer.
var (
	ErrBadFD    = errors.New("sys: bad file descriptor")
	ErrTooMany  = errors.New("sys: too many open files")
	ErrNotFound = vfs.ErrNotExist
)

// maxFDs bounds the per-process descriptor table.
const maxFDs = 256

// file is an open file description: a slot of the descriptor table,
// in use while open is set.
type file struct {
	fs   vfs.FS
	node vfs.NodeID
	off  int64
	dev  vfs.Device
	open bool
}

// Proc is a process's view of the syscall layer: its descriptor
// table plus helpers for managing user-space buffers.
type Proc struct {
	K *Kernel
	P *kernel.Process

	// fds is the descriptor table. Open descriptions live in it, so
	// opening a file allocates nothing.
	fds [maxFDs]file

	// scratch is the kernel-side staging buffer for the boundary
	// copies in Read/Write, reused across syscalls so the host does
	// not allocate per call; see kbuf.
	scratch []byte

	// lastEnter is the clock at the current syscall's entry; exit
	// taps and the syscall_exit tracepoint use it for span durations.
	lastEnter sim.Cycles

	// rings are the process's mapped krings by id (lookup only, never
	// iterated — map order must not reach the simulation).
	rings      map[int]*ringState
	nextRingID int
	// freeDrain is a one-slot free list of ring_enter dispatch
	// contexts: a drain takes it and puts it back on return.
	freeDrain *drain
}

// kbuf returns an n-byte kernel staging buffer, reusing the
// per-process scratch allocation. The contents are unspecified and
// only valid until the next kbuf call: Read/Write fill the used
// prefix before handing it anywhere. Processes are single-threaded
// and the buffer never escapes a syscall, so one per Proc suffices.
func (pr *Proc) kbuf(n int) []byte {
	if cap(pr.scratch) < n {
		pr.scratch = make([]byte, n)
	}
	return pr.scratch[:n]
}

// NewProc attaches a syscall context to a running process.
func NewProc(k *Kernel, p *kernel.Process) *Proc {
	return &Proc{K: k, P: p}
}

// UserBuf is a buffer in the process's user address space.
type UserBuf struct {
	Addr mem.Addr
	Len  int
}

// Mmap maps n bytes (rounded to pages) of fresh user memory.
func (pr *Proc) Mmap(n int) (UserBuf, error) {
	base, err := pr.P.UAS.MapRegion(mem.PagesFor(n), mem.PermRW)
	if err != nil {
		return UserBuf{}, err
	}
	return UserBuf{Addr: base, Len: n}, nil
}

// Poke fills a user buffer directly (test/workload setup; the user
// program producing the data is part of its modeled compute, so no
// separate charge).
func (pr *Proc) Poke(ub UserBuf, data []byte) error {
	if len(data) > ub.Len {
		return fmt.Errorf("sys: poke of %d bytes into %d-byte buffer", len(data), ub.Len)
	}
	return pr.P.UAS.View(ub.Addr, ub.Len).CopyOut(0, data)
}

// Peek reads a user buffer's contents.
func (pr *Proc) Peek(ub UserBuf, n int) ([]byte, error) {
	if n > ub.Len {
		n = ub.Len
	}
	out := make([]byte, n)
	if err := pr.P.UAS.View(ub.Addr, ub.Len).CopyIn(0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// enter performs the user->kernel transition for syscall nr: user
// dispatch cost, the trap, and copyin accounting for in bytes of
// arguments.
func (pr *Proc) enter(nr Nr, in int) {
	c := &pr.K.M.Costs
	pr.lastEnter = pr.K.M.Clock.Now()
	pr.P.Perf.SyscallEnter(uint16(nr), pr.lastEnter)
	pr.K.M.SyscallEnter(pr.P.PID, uint16(nr))
	pr.P.Perf.Push(kperf.SubBoundary)
	pr.P.ChargeUser(c.UserDispatch)
	pr.P.EnterKernel()
	pr.P.Charge(c.Trap)
	if in > 0 {
		pr.P.Charge(sim.Cycles(in) * c.CopyUserByte)
		pr.K.BytesIn += int64(in)
	}
	pr.P.Perf.Pop()
	pr.K.Calls[nr]++
	pr.K.CallsTotal++
	if pr.K.Probes != nil {
		if cost := pr.K.Probes.SyscallEnter(pr.P.PID, int(nr), in); cost > 0 {
			pr.chargeExec(kperf.SubProbe, cost)
		}
	}
}

// chargeExec bills in-kernel execution — probe programs (SubProbe:
// observer overhead is itself a measured, attributable quantity) or
// kucode (SubKu) — to the process as kernel time tagged with sub, and
// announces the slice to the observers as an exec span.
func (pr *Proc) chargeExec(sub kperf.Subsys, c sim.Cycles) {
	start := pr.K.M.Clock.Now()
	pr.P.Perf.Push(sub)
	pr.P.Charge(c)
	pr.P.Perf.Pop()
	pr.K.M.ExecSpan(pr.P.PID, sub, start)
}

// exit performs the kernel->user transition, charging copyout for
// out bytes and announcing the completed call to the observers.
func (pr *Proc) exit(nr Nr, in, out int) {
	c := &pr.K.M.Costs
	if out > 0 {
		pr.P.Perf.Push(kperf.SubBoundary)
		pr.P.Charge(sim.Cycles(out) * c.CopyUserByte)
		pr.P.Perf.Pop()
		pr.K.BytesOut += int64(out)
	}
	dur := pr.K.M.Clock.Now() - pr.lastEnter
	if pr.K.Probes != nil {
		if cost := pr.K.Probes.SyscallExit(pr.P.PID, int(nr), in, out, dur); cost > 0 {
			pr.chargeExec(kperf.SubProbe, cost)
		}
	}
	for _, t := range pr.K.exitTaps {
		t(pr.P, nr, in, out, dur)
	}
	pr.P.ExitKernel()
	pr.P.Perf.SyscallExit(pr.K.M.Clock.Now())
	pr.K.M.SyscallExit(pr.P.PID, uint16(nr), in, out)
}

// BeginOp opens a logical operation of the process (a workload
// transaction, a Cosy compound, a ku_call) for the observers;
// operations nest. It charges nothing.
func (pr *Proc) BeginOp(op string) { pr.K.M.BeginOp(pr.P.PID, op) }

// EndOp closes the process's innermost open operation.
func (pr *Proc) EndOp() { pr.K.M.EndOp(pr.P.PID) }

// installFD puts f in the lowest free descriptor.
func (pr *Proc) installFD(f file) (int, error) {
	for i := range pr.fds {
		if !pr.fds[i].open {
			f.open = true
			pr.fds[i] = f
			return i, nil
		}
	}
	return -1, ErrTooMany
}

// file returns the open description of fd, in place in the table.
func (pr *Proc) file(fd int) (*file, error) {
	if fd < 0 || fd >= maxFDs || !pr.fds[fd].open {
		return nil, ErrBadFD
	}
	return &pr.fds[fd], nil
}

// OpenFDs reports the number of open descriptors (leak tests).
func (pr *Proc) OpenFDs() int {
	n := 0
	for i := range pr.fds {
		if pr.fds[i].open {
			n++
		}
	}
	return n
}
