// Package kernel implements the simulated operating system core: a
// single-CPU machine with a virtual-time clock, processes scheduled
// cooperatively in round-robin with a timeslice, a pending-event queue
// for blocking I/O, and per-process user/system/wait time accounting.
//
// Everything the paper measures is a ratio of elapsed, system, and
// user times, so the machine's one job is to attribute every virtual
// cycle to exactly one of those buckets for exactly one process.
//
// Concurrency model: each Process runs on its own goroutine, but the
// machine enforces strict hand-off — at any instant at most one
// goroutine (either the scheduler loop or the current process) is
// executing. This gives deterministic interleaving and makes all
// shared state effectively single-threaded. The scheduler loop's steps
// do not always run on the loop's goroutine: a process that blocks
// while nothing else is ready and its own wakeup is the next event
// runs those steps itself (idle to the wakeup, wake, redispatch) and
// keeps the CPU, while the loop's goroutine stays parked until the
// process next yields. Still one goroutine at a time, in the same
// order, so the run is the same either way.
package kernel

import (
	"fmt"
	"slices"

	"repro/internal/alloc"
	"repro/internal/klog"
	"repro/internal/kperf"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/sim"
)

// ProbeTap is the kprobe dispatch seam: the machine announces
// tracepoint events through it and charges whatever cycle cost the
// probe subsystem reports, tagged to the probe kperf subsystem. The
// kernel package stays ignorant of kprobe itself; internal/kprobe's
// Manager implements this interface and core wires it in. A nil Tap
// — or a Tap with nothing attached, which must return 0 — costs
// nothing, preserving the zero-cost observability gate.
type ProbeTap interface {
	// CtxSwitch fires on every process-to-process switch, in
	// scheduler context, with the process being switched in.
	CtxSwitch(p *Process) sim.Cycles
	// Fault fires after a page fault has been handled.
	Fault(p *Process, guard, write bool) sim.Cycles
	// DiskWait fires when a process wakes from a disk wait of d
	// cycles.
	DiskWait(p *Process, d sim.Cycles) sim.Cycles
}

// Machine is the simulated computer.
type Machine struct {
	Clock sim.Clock
	Costs sim.Costs
	Phys  *mem.Phys
	// KAS is the kernel address space: allocators carve from it, and
	// rings' shared frames, which also carry Cosy compounds and their
	// data, are mapped into it.
	KAS *mem.AddressSpace
	Km  *alloc.Kmalloc
	Vm  *alloc.Vmalloc
	Log *klog.Log

	// Perf is the machine's observability bundle; nil disables all
	// instrumentation. kperf only observes charges the machine makes
	// anyway, so enabling it never moves a simulated cycle.
	Perf *kperf.Set

	// Tap is the kprobe tracepoint seam (nil = no probe subsystem).
	// Unlike Perf, a tap may charge simulated cycles — probe
	// execution is real, measured work — but only when a program is
	// attached at the firing tracepoint.
	Tap ProbeTap

	// obs are the attached observers (Observe), host-side only: like
	// Perf they can never move a simulated cycle.
	obs []Observer

	procs   []*Process // live processes in spawn order
	ready   *ring.Deque[*Process]
	current *Process
	events  eventHeap
	nextPID int
	lastRun *Process
	// schedStart is when the running process's sched span opened:
	// dispatch opens it, and a lone sleeper closes and reopens it.
	schedStart sim.Cycles
	// noInlineSleep sends every block through the scheduler
	// goroutine, and inlineSleeps counts the blocks that were not;
	// tests use both to compare the two paths.
	noInlineSleep bool
	inlineSleeps  int64

	// CtxSwitches counts process-to-process switches.
	CtxSwitches int64
	// IdleCycles accumulates time when no process was runnable.
	IdleCycles sim.Cycles

	// Mem counts the MMU events of KAS and of every process's UAS,
	// which all point at it, over the machine's whole life.
	Mem mem.Stats
}

// Config controls machine creation.
type Config struct {
	// Costs overrides the cost model; nil selects sim.DefaultCosts.
	Costs *sim.Costs
	// Perf, when set, enables the kperf observability layer.
	Perf *kperf.Set
}

// New creates a machine.
func New(cfg Config) *Machine {
	costs := sim.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	m := &Machine{
		Costs:   costs,
		Phys:    mem.NewPhys(884 << 20), // the paper's 884MB
		Perf:    cfg.Perf,
		ready:   ring.NewDeque[*Process](16),
		nextPID: 1,
	}
	m.KAS = mem.NewAddressSpace("kernel", m.Phys, &m.Costs)
	m.KAS.Charge = m.ChargeTagged(kperf.SubMem)
	m.KAS.Stats = &m.Mem
	m.Km = alloc.NewKmalloc(m.KAS, &m.Costs, m.ChargeTagged(kperf.SubAlloc))
	m.Vm = alloc.NewVmalloc(m.KAS, &m.Costs, m.ChargeTagged(kperf.SubAlloc))
	m.Log = klog.New(&m.Clock, 0)
	if m.Perf != nil {
		m.Log.Req = func() uint64 {
			if p := m.current; p != nil {
				id, _ := p.Perf.Request()
				return id
			}
			return 0
		}
	}
	// The fault probe is installed unconditionally: kperf's Fault is
	// nil-safe and the kprobe tap attaches programs at runtime, so
	// the seam must exist even on machines booted without Perf.
	m.KAS.FaultProbe = func(f *mem.Fault) {
		if p := m.current; p != nil {
			m.fault(p, f)
		}
	}
	return m
}

// fault reports a handled page fault of p to kperf, announces guard
// faults as trap events, and dispatches the page-fault tracepoint,
// charging the probe cost to p as kernel time under the probe
// subsystem.
func (m *Machine) fault(p *Process, f *mem.Fault) {
	p.Perf.Fault(m.Clock.Now(), f.Guard, f.Access == mem.AccessWrite)
	if f.Guard {
		m.Event(EventTrap, fmt.Sprintf("guard fault in %s-%d at %#x", p.Name, p.PID, f.Addr))
	}
	if m.Tap == nil {
		return
	}
	if c := m.Tap.Fault(p, f.Guard, f.Access == mem.AccessWrite); c > 0 {
		p.Perf.Push(kperf.SubProbe)
		p.ChargeSys(c)
		p.Perf.Pop()
	}
}

// probeDiskWait dispatches the disk-wait tracepoint when a process
// wakes from blocking on disk.
func (m *Machine) probeDiskWait(p *Process, d sim.Cycles) {
	if m.Tap == nil {
		return
	}
	if c := m.Tap.DiskWait(p, d); c > 0 {
		p.Perf.Push(kperf.SubProbe)
		p.ChargeSys(c)
		p.Perf.Pop()
	}
}

// chargeCurrent attributes cycles from subsystems (MMU, allocators) to
// whatever process is running, in its current mode; charges with no
// current process (machine setup) advance the clock as system time of
// nobody.
func (m *Machine) chargeCurrent(c sim.Cycles) {
	if p := m.current; p != nil {
		p.Charge(c)
		return
	}
	m.Perf.OnSetup(c)
	m.Clock.Advance(c)
}

// ChargeTagged returns a charge function that attributes through the
// current process with the given kperf subsystem tag. The charge
// itself is identical to chargeCurrent — the tag only routes the
// cycles to the right attribution cell.
func (m *Machine) ChargeTagged(sub kperf.Subsys) func(sim.Cycles) {
	return func(c sim.Cycles) {
		if p := m.current; p != nil {
			p.Perf.Push(sub)
			p.Charge(c)
			p.Perf.Pop()
			return
		}
		m.Perf.OnSetup(c)
		m.Clock.Advance(c)
	}
}

// Elapsed reports total virtual time since boot.
func (m *Machine) Elapsed() sim.Cycles { return m.Clock.Now() }

// Spawn creates a process executing fn on its own goroutine. The
// process does not run until Run is called. Its user address space is
// created with a stack/heap region already mapped.
func (m *Machine) Spawn(name string, fn func(*Process) error) *Process {
	p := &Process{
		M:      m,
		PID:    m.nextPID,
		Name:   name,
		resume: make(chan struct{}),
		yield:  make(chan yieldKind),
		state:  stateReady,
		bonus:  defaultBonus,
	}
	m.nextPID++
	p.UAS = mem.NewAddressSpace(fmt.Sprintf("user-%s-%d", name, p.PID), m.Phys, &m.Costs)
	p.UAS.Charge = p.Charge
	p.UAS.Stats = &m.Mem
	if m.Perf != nil {
		p.Perf = m.Perf.NewProc(p.PID, name)
		p.UAS.Charge = func(c sim.Cycles) {
			p.Perf.Push(kperf.SubMem)
			p.Charge(c)
			p.Perf.Pop()
		}
	}
	p.UAS.FaultProbe = func(f *mem.Fault) { m.fault(p, f) }
	m.procs = append(m.procs, p)
	m.ready.PushBack(p)
	go p.top(fn)
	return p
}

// Run drives the machine until every spawned process has finished.
// It returns the first process error encountered (processes killed by
// the watchdog report that as their error), though all processes run
// to completion regardless.
func (m *Machine) Run() error {
	var firstErr error
	for len(m.procs) > 0 {
		m.deliverDue()
		if m.ready.Len() == 0 {
			if m.events.Len() == 0 {
				panic("kernel: deadlock - processes alive but nothing runnable and no pending events")
			}
			ev := m.events.pop()
			m.idleTo(ev.when)
			ev.proc.wake()
			continue
		}
		p, _ := m.ready.PopFront()
		if p.state != stateReady {
			continue
		}
		m.dispatch(p)
		m.tick()
		switch p.state {
		case stateDone:
			if p.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("process %s: %w", p.Name, p.err)
			}
			i := slices.Index(m.procs, p)
			m.procs = slices.Delete(m.procs, i, i+1)
		case stateReady:
			m.ready.PushBack(p)
		case stateBlocked:
			// Wake event already queued by BlockFor.
		}
	}
	m.Event(EventRunEnd, "")
	return firstErr
}

// dispatch switches to p and runs it until it yields.
func (m *Machine) dispatch(p *Process) {
	if m.lastRun != p && m.lastRun != nil {
		m.CtxSwitches++
		m.chargeSwitch(p, m.Costs.CtxSwitch, kperf.SubSched)
		p.UAS.TLBFlush()
		m.KAS.TLBFlush()
		if m.Tap != nil {
			if c := m.Tap.CtxSwitch(p); c > 0 {
				m.chargeSwitch(p, c, kperf.SubProbe)
			}
		}
	}
	m.lastRun = p
	m.current = p
	p.state = stateRunning
	p.sliceLeft = p.sliceLen()
	m.schedStart = m.Clock.Now()
	p.resume <- struct{}{}
	<-p.yield
	m.current = nil
	p.Perf.SchedSpan(m.schedStart, m.Clock.Now())
}

// idleTo idles the CPU until when, if that is still ahead, and ticks
// at the end of the gap.
func (m *Machine) idleTo(when sim.Cycles) {
	if gap := when - m.Clock.Now(); gap > 0 {
		m.IdleCycles += gap
		m.Perf.OnIdle(gap)
		m.Clock.AdvanceTo(when)
		m.tick()
	}
}

// sleepsAlone reports whether, were p to hand the CPU over after
// queueing its wakeup, the scheduler loop would only idle until that
// wakeup and dispatch p again: nothing is ready and p's wakeup is the
// earliest event. p's wakeup was queued last, so any other wakeup at
// the same cycle sorts before it and p's is the earliest only when
// every other one is later.
func (m *Machine) sleepsAlone(p *Process) bool {
	if m.noInlineSleep || m.ready.Len() > 0 {
		return false
	}
	ev, ok := m.events.peek()
	return ok && ev.proc == p
}

// sleepInline runs, on blocked p's own goroutine, the steps the
// scheduler loop would take once sleepsAlone(p) holds, in the loop's
// order: dispatch's return closes p's sched span, the loop ticks, pops
// p's wakeup, idles to it and wakes p, and dispatch resumes p with no
// switch, reopening the span. The loop's goroutine stays parked in
// dispatch until p next yields.
func (m *Machine) sleepInline(p *Process) {
	m.inlineSleeps++
	m.current = nil
	p.Perf.SchedSpan(m.schedStart, m.Clock.Now())
	m.tick()
	m.idleTo(m.events.pop().when)
	m.noteReady(p)
	m.current = p
	m.schedStart = m.Clock.Now()
}

// chargeSwitch bills scheduler-context cycles to the incoming process
// p as system time under sub: it advances the clock and p's system
// time directly, because ChargeSys would preempt here.
func (m *Machine) chargeSwitch(p *Process, c sim.Cycles, sub kperf.Subsys) {
	m.Clock.Advance(c)
	p.sysCycles += c
	p.Perf.Push(sub)
	p.Perf.OnCycles(c, true)
	p.Perf.Pop()
}

// runnableOthers reports whether any process other than the current
// one is ready to run (the preemption condition).
func (m *Machine) runnableOthers() bool {
	for i := 0; i < m.ready.Len(); i++ {
		if m.ready.At(i).state == stateReady {
			return true
		}
	}
	return false
}

// addEvent queues a wakeup for proc at time when.
func (m *Machine) addEvent(when sim.Cycles, proc *Process) {
	m.events.push(event{when: when, proc: proc})
}

// deliverDue wakes every process whose event time has passed. The
// scheduler loop calls it before dispatching, and preemption points
// call it from process context so a spinning process cannot starve a
// sleeper whose I/O already completed (only one goroutine runs at a
// time, so this is safe).
func (m *Machine) deliverDue() {
	for {
		ev, ok := m.events.peek()
		if !ok || ev.when > m.Clock.Now() {
			return
		}
		m.events.pop()
		ev.proc.wake()
	}
}

// Procs reports the number of live processes.
func (m *Machine) Procs() int { return len(m.procs) }

// MemTotals reports the machine's TLB hit, TLB miss, fault and
// guard-promotion counts: those of the kernel address space and of
// every user address space, including processes that already exited.
func (m *Machine) MemTotals() (tlbHits, tlbMisses, faults, guardPromos uint64) {
	return uint64(m.Mem.TLBHits), uint64(m.Mem.TLBMisses), uint64(m.Mem.Faults), uint64(m.Mem.GuardPromos)
}
