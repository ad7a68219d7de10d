package kernel

import (
	"repro/internal/kperf"
	"repro/internal/sim"
)

// Observer is the machine's one host-side observation seam. The
// machine announces every scheduling transition, scheduler tick and
// notable event through it, and the syscall layer announces syscall
// entry/exit, in-kernel execution slices and workload operations.
// Charges are not announced: kperf attributes every one to a (process,
// mode, subsystem, syscall) cell, and an observer that needs them reads
// those cells. No method returns anything, so an observer has
// no way to hand a cost back: a machine with observers attached is
// bit-identical in simulated time to one without, by construction
// (klint's hookpure proves every implementation transitively reaches
// no charging or state-mutating code). Observers are satisfied
// structurally — ktrace, kflight and trace import kperf and sim, not
// kernel — and embed kperf.NopObserver, overriding only the events
// they use.
type Observer interface {
	// OnBlock fires when a process gives up the CPU to wait on an
	// event; sub names what it waits on (SubDisk for block I/O).
	OnBlock(pid int, sub kperf.Subsys, at sim.Cycles)
	// OnReady fires when a process becomes runnable while off-CPU:
	// preempted, yielded, or woken from a blocked wait.
	OnReady(pid int, at sim.Cycles)
	// OnRun fires when a previously off-CPU process is running again.
	OnRun(pid int, at sim.Cycles)
	// Tick fires at scheduler boundaries: after every dispatch, after
	// idle gaps, and at every timeslice expiry. Ticks are frequent.
	Tick(now sim.Cycles)
	// Event fires on notable occurrences, one of the Event* kinds.
	Event(now sim.Cycles, kind, detail string)
	// SyscallEnter fires as a process enters system call nr, before
	// the crossing is charged.
	SyscallEnter(pid int, nr uint16)
	// SyscallExit fires after the kernel->user return of system call
	// nr, with the bytes copied in each direction.
	SyscallExit(pid int, nr uint16, in, out int)
	// BeginOp and EndOp bracket one logical operation of a process (a
	// workload transaction, a Cosy compound, a ku_call); operations
	// nest.
	BeginOp(pid int, op string)
	EndOp(pid int)
	// ExecSpan reports a completed in-kernel execution slice (probe,
	// kucode or ring drain work) tagged with its subsystem.
	ExecSpan(pid int, sub kperf.Subsys, start, end sim.Cycles)
}

// Event kinds, the kind strings passed to Observer.Event.
const (
	// EventKill: a process was terminated by Kill/KillErr (watchdog,
	// probe violation unwinding).
	EventKill = "kill"
	// EventTrap: a guard (Kefence) page fault fired.
	EventTrap = "trap"
	// EventKuDead: a kucode extension died on a runtime check
	// violation; subsequent calls return ErrKuDead.
	EventKuDead = "kudead"
	// EventProbeDead: a kprobe program died on a runtime violation.
	EventProbeDead = "probedead"
	// EventRunEnd: Machine.Run drained every process.
	EventRunEnd = "run_end"
)

// Observe attaches o. Observers are called in the order they were
// attached; with none attached each announcement is one length check.
func (m *Machine) Observe(o Observer) { m.obs = append(m.obs, o) }

func (m *Machine) noteBlock(p *Process, sub kperf.Subsys) {
	for _, o := range m.obs {
		o.OnBlock(p.PID, sub, m.Clock.Now())
	}
}

func (m *Machine) noteReady(p *Process) {
	for _, o := range m.obs {
		o.OnReady(p.PID, m.Clock.Now())
	}
}

func (m *Machine) noteRun(p *Process) {
	for _, o := range m.obs {
		o.OnRun(p.PID, m.Clock.Now())
	}
}

func (m *Machine) tick() {
	for _, o := range m.obs {
		o.Tick(m.Clock.Now())
	}
}

// Event announces a notable event of one of the Event* kinds.
func (m *Machine) Event(kind, detail string) {
	for _, o := range m.obs {
		o.Event(m.Clock.Now(), kind, detail)
	}
}

// SyscallEnter announces that pid is entering system call nr.
func (m *Machine) SyscallEnter(pid int, nr uint16) {
	for _, o := range m.obs {
		o.SyscallEnter(pid, nr)
	}
}

// SyscallExit announces that pid returned from system call nr.
func (m *Machine) SyscallExit(pid int, nr uint16, in, out int) {
	for _, o := range m.obs {
		o.SyscallExit(pid, nr, in, out)
	}
}

// BeginOp announces that pid opened operation op.
func (m *Machine) BeginOp(pid int, op string) {
	for _, o := range m.obs {
		o.BeginOp(pid, op)
	}
}

// EndOp announces that pid closed its innermost open operation.
func (m *Machine) EndOp(pid int) {
	for _, o := range m.obs {
		o.EndOp(pid)
	}
}

// ExecSpan announces an in-kernel execution slice of pid under sub
// that started at start and ends now.
func (m *Machine) ExecSpan(pid int, sub kperf.Subsys, start sim.Cycles) {
	for _, o := range m.obs {
		o.ExecSpan(pid, sub, start, m.Clock.Now())
	}
}
