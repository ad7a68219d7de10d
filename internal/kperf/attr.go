package kperf

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Subsys labels which subsystem a charged cycle belongs to. The
// kernel's instrumented seams push a subsystem tag around the charges
// they were already making; untagged kernel work attributes to
// SubKern and untagged user work to SubUser.
type Subsys uint8

// Subsystem tags, in folded-stack order.
const (
	// SubKern is untagged kernel-mode work: syscall bodies, VFS,
	// dispatch glue.
	SubKern Subsys = iota
	// SubUser is untagged user-mode compute.
	SubUser
	// SubBoundary is the user/kernel crossing: trap, user-side
	// dispatch, copyin/copyout.
	SubBoundary
	// SubMem is MMU work: TLB misses, page-fault handling, page-table
	// edits.
	SubMem
	// SubAlloc is the kmalloc/vmalloc allocators.
	SubAlloc
	// SubSched is context-switch cost.
	SubSched
	// SubCosy is compound execution in the Cosy kernel extension.
	SubCosy
	// SubKefence is the guarded allocator and its fault handling.
	SubKefence
	// SubMon is the event-monitor dispatch path (kmon).
	SubMon
	// SubProbe is kprobe program execution: verified in-kernel probe
	// programs plus their map updates and attach-time verification.
	SubProbe
	// SubKu is kucode extension execution: user-written extension code
	// loaded into the kernel, including its KGCC check overhead and
	// load-time static analysis.
	SubKu
	// SubDisk tags blocked-on-disk spans; disk waits advance no CPU
	// cycles, so this appears in the timeline, not the CPU profile.
	SubDisk
	// SubRing is kring batch drain: per-SQE dispatch, anycall
	// steering, and completion delivery inside a ring_enter crossing.
	SubRing
	nSubsys
)

// NSubsys exposes the subsystem count so samplers (kflight) can size
// dense per-(mode, subsystem) arrays that stay index-compatible with
// the attribution cells.
const NSubsys = int(nSubsys)

var subsysNames = [...]string{
	"kern", "user", "boundary", "mem", "alloc", "sched", "cosy",
	"kefence", "kmon", "probe", "kucode", "disk", "ring",
}

func (s Subsys) String() string {
	if int(s) < len(subsysNames) {
		return subsysNames[s]
	}
	return "?"
}

// Mode is the CPU mode a cycle was attributed in.
type Mode uint8

// Modes.
const (
	ModeUser Mode = iota
	ModeKernel
	nModes
)

// NModes exposes the mode count (see NSubsys).
const NModes = int(nModes)

func (m Mode) String() string {
	if m == ModeKernel {
		return "kernel"
	}
	return "user"
}

// noSyscall is the attribution slot for cycles charged outside any
// system call.
const noSyscall = 0

// maxSubsysDepth bounds the per-process subsystem tag stack.
const maxSubsysDepth = 16

// ProcState is one process's kperf state: its trace shard, its
// current syscall and subsystem context, and its attribution cells.
// All methods are nil-receiver safe so instrumented code can hold a
// possibly-nil pointer and call through it with a single branch.
type ProcState struct {
	set   *Set
	pid   int
	name  string
	shard *Shard

	// sysNr is the current syscall slot (nr+1; 0 = none).
	sysNr int

	subStack [maxSubsysDepth]Subsys
	subDepth int

	// cells holds attributed cycles indexed by
	// (mode*nSubsys + subsys)*nrSlots + sysNr. It is sized at spawn,
	// so the per-charge hot path is index arithmetic plus one add.
	cells []sim.Cycles
	// modeSub is the running total of cells over syscall slots, indexed
	// by mode*nSubsys + subsys, so samplers copy it instead of summing
	// every slot.
	modeSub [NModes * NSubsys]sim.Cycles

	// req/reqOp is the ktrace request currently open on the process
	// (SetRequest); klog stamps log entries with req, and the trace
	// shard stamps every record written while it is nonzero.
	req   uint64
	reqOp string
}

// Shard exposes the process's trace shard.
func (ps *ProcState) Shard() *Shard {
	if ps == nil {
		return nil
	}
	return ps.shard
}

// PID reports the process id.
func (ps *ProcState) PID() int {
	if ps == nil {
		return 0
	}
	return ps.pid
}

// Label renders the process as "name-pid", the identifier used across
// every exporter (folded stacks, Chrome traces, kflight epochs).
func (ps *ProcState) Label() string {
	if ps == nil {
		return ""
	}
	return fmt.Sprintf("%s-%d", ps.name, ps.pid)
}

// ModeSubsysCycles copies the process's attribution summed across
// syscall slots into a dense [NModes*NSubsys]int64 array indexed by
// mode*NSubsys+subsys. A correctly sized dst is reused (the kflight
// sampler calls this every epoch for every process); otherwise a new
// slice is allocated. Nil receiver returns dst zeroed, so epoch
// deltas of a vanished process read as zero.
func (ps *ProcState) ModeSubsysCycles(dst []int64) []int64 {
	if len(dst) != NModes*NSubsys {
		dst = make([]int64, NModes*NSubsys)
	}
	if ps == nil {
		clear(dst)
		return dst
	}
	for cell, c := range ps.modeSub {
		dst[cell] = int64(c)
	}
	return dst
}

// OnCycles attributes c charged cycles in the given mode. This is the
// single accounting point every simulated clock advance made on
// behalf of a process flows through.
func (ps *ProcState) OnCycles(c sim.Cycles, kernelMode bool) {
	if ps == nil {
		return
	}
	mode := ModeUser
	if kernelMode {
		mode = ModeKernel
	}
	sub := SubUser
	if ps.subDepth > 0 {
		sub = ps.subStack[ps.subDepth-1]
	} else if kernelMode {
		sub = SubKern
	}
	cell := int(mode)*int(nSubsys) + int(sub)
	ps.modeSub[cell] += c
	ps.cells[cell*ps.set.nrSlots+ps.sysNr] += c
}

// CurrentSub reports the subsystem the next charge in the given mode
// would attribute to: the top of the tag stack when one is pushed,
// otherwise SubKern or SubUser by mode — the exact classification
// OnCycles applies. ktrace uses this to split request wall cycles into
// segments (boundary charges become the "copy" segment) without a
// second source of truth.
func (ps *ProcState) CurrentSub(kernelMode bool) Subsys {
	if ps == nil {
		if kernelMode {
			return SubKern
		}
		return SubUser
	}
	if ps.subDepth > 0 {
		return ps.subStack[ps.subDepth-1]
	}
	if kernelMode {
		return SubKern
	}
	return SubUser
}

// SetRequest stamps the process with its currently open ktrace
// request: id 0 clears it. Trace records written while a request is
// open carry the id, and klog's Req hook reads it so log lines
// correlate with the logical operation that emitted them.
func (ps *ProcState) SetRequest(id uint64, op string) {
	if ps == nil {
		return
	}
	ps.req, ps.reqOp = id, op
	if ps.shard != nil {
		ps.shard.req = id
	}
}

// Request reports the currently open ktrace request (0, "" when none).
func (ps *ProcState) Request() (uint64, string) {
	if ps == nil {
		return 0, ""
	}
	return ps.req, ps.reqOp
}

// Push tags subsequent charges with subsystem s (until Pop).
func (ps *ProcState) Push(s Subsys) {
	if ps == nil {
		return
	}
	if ps.subDepth < maxSubsysDepth {
		ps.subStack[ps.subDepth] = s
	}
	ps.subDepth++
}

// Pop removes the innermost subsystem tag.
func (ps *ProcState) Pop() {
	if ps == nil {
		return
	}
	if ps.subDepth > 0 {
		ps.subDepth--
	}
}

// SyscallEnter opens a syscall span and routes subsequent attribution
// to nr's slot.
func (ps *ProcState) SyscallEnter(nr uint16, at sim.Cycles) {
	if ps == nil {
		return
	}
	slot := int(nr) + 1
	if slot >= ps.set.nrSlots {
		slot = noSyscall
	}
	ps.sysNr = slot
	ps.shard.Begin(uint32(nr), at)
}

// SyscallExit closes the span and the attribution slot, observing the
// span length in the set's syscall-latency histogram.
func (ps *ProcState) SyscallExit(at sim.Cycles) {
	if ps == nil {
		return
	}
	if d := ps.shard.openDeep; d > 0 {
		ps.set.SyscallSpans.Observe(at - ps.shard.open[d-1].start)
	}
	ps.shard.End(at)
	ps.sysNr = noSyscall
}

// BlockSpan records a blocked interval tagged with the subsystem the
// process was waiting on.
func (ps *ProcState) BlockSpan(sub Subsys, start, end sim.Cycles) {
	if ps == nil {
		return
	}
	ps.shard.Span(EvBlockSpan, uint32(sub), start, end)
}

// SchedSpan records one scheduler dispatch interval.
func (ps *ProcState) SchedSpan(start, end sim.Cycles) {
	if ps == nil {
		return
	}
	ps.shard.Span(EvSchedSpan, 0, start, end)
}

// Fault records an instant page-fault event.
func (ps *ProcState) Fault(at sim.Cycles, guard, write bool) {
	if ps == nil {
		return
	}
	var arg uint32
	if guard {
		arg |= 1
	}
	if write {
		arg |= 2
	}
	ps.shard.Instant(EvFault, arg, at)
}

// Set is the per-machine instrumentation bundle: the registry, the
// tracer, the attribution table, and machine-level cycle sinks (idle,
// pre-boot setup). A nil *Set disables everything.
type Set struct {
	Reg   *Registry
	Trace *Tracer

	// SyscallName resolves a syscall number for exporters; the wiring
	// layer injects it (kperf cannot import the sys package).
	SyscallName func(nr int) string

	// SyscallSpans observes every syscall span's length in cycles.
	SyscallSpans *Histogram

	nrSlots int // syscall slots: maxSyscalls + 1 for "none"

	mu    sync.Mutex
	procs []*ProcState

	// Machine-level cycles that belong to no process: boot/setup
	// charges and scheduler idle gaps.
	setupCycles sim.Cycles
	idleCycles  sim.Cycles
}

// New creates a Set for a machine whose syscall numbers are below
// maxSyscalls. shardRecords caps each process's trace shard (0
// selects DefaultShardRecords).
func New(maxSyscalls, shardRecords int) *Set {
	if maxSyscalls < 0 {
		maxSyscalls = 0
	}
	reg := NewRegistry()
	return &Set{
		Reg:          reg,
		Trace:        NewTracer(shardRecords),
		SyscallSpans: reg.Histogram("sys.span.cycles"),
		nrSlots:      maxSyscalls + 1,
	}
}

// NewProc registers a process and returns its state. Called once per
// spawn, never on a hot path.
func (s *Set) NewProc(pid int, name string) *ProcState {
	if s == nil {
		return nil
	}
	ps := &ProcState{
		set:   s,
		pid:   pid,
		name:  name,
		shard: s.Trace.Shard(pid, name),
		cells: make([]sim.Cycles, int(nModes)*int(nSubsys)*s.nrSlots),
	}
	s.mu.Lock()
	s.procs = append(s.procs, ps)
	s.mu.Unlock()
	return ps
}

// OnSetup attributes machine-level cycles charged with no current
// process (boot-time page table and allocator setup).
func (s *Set) OnSetup(c sim.Cycles) {
	if s == nil {
		return
	}
	s.setupCycles += c
}

// OnIdle attributes scheduler idle gaps (clock skipped to the next
// pending event with nothing runnable).
func (s *Set) OnIdle(c sim.Cycles) {
	if s == nil {
		return
	}
	s.idleCycles += c
}

// Procs returns the registered process states in spawn order.
func (s *Set) Procs() []*ProcState {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*ProcState, len(s.procs))
	copy(out, s.procs)
	return out
}

// AppendProcs extends dst, a slice an earlier call returned (or nil),
// with the processes registered since, in spawn order. A sampler that
// keeps its slice sees each process once and, while nothing spawns,
// reads the list without allocating.
func (s *Set) AppendProcs(dst []*ProcState) []*ProcState {
	if s == nil {
		return dst
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(dst, s.procs[len(dst):]...)
}

// syscallName resolves nr for exporters, tolerating a missing
// resolver.
func (s *Set) syscallName(nr int) string {
	if s.SyscallName != nil {
		return s.SyscallName(nr)
	}
	return fmt.Sprintf("sys_%d", nr)
}

// slotName renders an attribution syscall slot.
func (s *Set) slotName(slot int) string {
	if slot == noSyscall {
		return "-"
	}
	return s.syscallName(slot - 1)
}
