// Package kprobe is the simulated kernel's eBPF analogue: small
// user-written minic programs, statically verified and kgcc-hardened,
// attached at kernel tracepoints, aggregating into in-kernel maps
// that user space reads back with one probe_read syscall instead of
// draining an event ring.
//
// The paper's thesis applied to observability itself: kmon streams
// every event across the user/kernel boundary (one copy per event,
// one crossing per poll); a kprobe program runs where the event
// happens and ships only the summary. The E9 experiment measures the
// difference.
//
// Safety comes in two layers. The static verifier (verifier.go)
// rejects unbounded loops (no back-edges), memory accesses not
// provably inside the probe's own frame, calls outside the helper
// ABI, and pointer escapes — each with a diagnostic, before the
// program ever attaches. Verified programs are then instrumented with
// full KGCC checks and run against a strict object map, so even a
// verifier gap cannot corrupt kernel state: a runtime violation kills
// only the probe.
//
// Cost model: probe execution charges real simulated cycles
// (per-instruction, per-map-op, per-dispatch; attach pays a
// per-instruction verification cost) attributed to the "probe" kperf
// subsystem of the process that triggered the tracepoint. With no
// programs attached, every tracepoint costs exactly zero simulated
// cycles, preserving the kperf bit-identical on/off gate.
package kprobe

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/kgcc"
	"repro/internal/kperf"
	"repro/internal/minic"
	"repro/internal/sim"
)

// Tracepoint identifies a kernel probe site.
type Tracepoint int

// Tracepoints, matching the kperf probe sites.
const (
	// TpSyscallEnter fires after syscall entry accounting, in kernel
	// mode; ctx_arg() is the copyin byte count.
	TpSyscallEnter Tracepoint = iota
	// TpSyscallExit fires just before the kernel->user return;
	// ctx_arg() is the copyout byte count and ctx_cycles() the
	// syscall's span in cycles.
	TpSyscallExit
	// TpCtxSwitch fires on every process-to-process switch, in
	// scheduler context, for the process being switched in.
	TpCtxSwitch
	// TpPageFault fires after a page fault is handled; ctx_arg() is
	// bit 0 = guard fault, bit 1 = write access.
	TpPageFault
	// TpDiskWait fires when a process wakes from blocking on disk;
	// ctx_arg() and ctx_cycles() are the blocked duration.
	TpDiskWait
	nTracepoints
)

var tpNames = [...]string{
	"syscall_enter", "syscall_exit", "ctx_switch", "page_fault", "disk_wait",
}

func (t Tracepoint) String() string {
	if t >= 0 && int(t) < len(tpNames) {
		return tpNames[t]
	}
	return "?"
}

// ParseTracepoint resolves a tracepoint name.
func ParseTracepoint(s string) (Tracepoint, error) {
	for i, n := range tpNames {
		if n == s {
			return Tracepoint(i), nil
		}
	}
	return 0, fmt.Errorf("kprobe: unknown tracepoint %q (have %v)", s, tpNames)
}

// Tracepoints lists all tracepoint names (CLI help).
func Tracepoints() []string { return tpNames[:] }

// Ctx is the event context a probe program reads through the ctx_*
// helpers. Plain integers only: the helper ABI passes no pointers in
// either direction.
type Ctx struct {
	Pid    int64 // triggering process id
	Nr     int64 // syscall number, -1 outside a syscall
	Arg    int64 // site argument (bytes copied, fault flags, wait cycles)
	Cycles int64 // span duration in cycles (syscall_exit, disk_wait)
}

// Spec is a probe_attach request: where to attach, the program
// source, its entry function, and the maps it declares.
type Spec struct {
	Tracepoint Tracepoint `json:"tracepoint"`
	Source     string     `json:"source"`
	// Entry is the entry function name; empty selects "probe".
	Entry string    `json:"entry,omitempty"`
	Maps  []MapSpec `json:"maps,omitempty"`
}

// entry is the spec's entry function name, defaulted.
func (spec Spec) entry() string {
	if spec.Entry == "" {
		return "probe"
	}
	return spec.Entry
}

// MaxMaps bounds the maps one program may declare.
const MaxMaps = 32

// Hook is a probe's attach state: its tracepoint and the maps its
// helpers aggregate into.
type Hook struct {
	TP   Tracepoint
	Maps []*Map
}

// Prog is one attached (verified, instrumented) probe program. Its
// Calls count dispatches; a program whose run errors is dead and never
// runs again (the simulated analogue of a BPF program being killed by
// the runtime).
type Prog = kgcc.Prog[Hook]

// Manager owns every attached probe program and the tracepoint
// dispatch tables. It implements kernel.ProbeTap, so the machine
// calls straight into it from the scheduler, fault, and disk seams
// without the kernel package importing kprobe.
//
// A Manager, like the machine it instruments, is driven by a single
// goroutine: the stats counters are plain fields.
type Manager struct {
	m *kernel.Machine
	// ld loads, caches and runs the programs. Its address space is
	// the probes' own: interpreter stacks live there and its memory
	// costs accumulate into the probe charge like everything else a
	// probe does, so the whole cost of probing lands in one subsystem.
	// Its module cache is keyed by SpecKey, which excludes the
	// tracepoint, so attaching the same program at five sites verifies
	// and compiles once — eBPF's "verify once, attach everywhere"
	// economics.
	ld    *kgcc.Loader[Hook]
	progs [nTracepoints][]*Prog

	// running guards against re-entrant dispatch (a probe's own
	// charging preempting into another tracepoint), like the kernel's
	// bpf_prog_active counter.
	running bool
	ctx     Ctx

	// Stats (kperf exposes them as gauges).
	Attached  int64
	Fired     int64
	MapOps    int64
	Skipped   int64
	CacheHits int64
	Cycles    sim.Cycles
}

// NewManager creates the probe subsystem for a machine.
func NewManager(m *kernel.Machine) *Manager {
	return &Manager{m: m, ld: kgcc.NewLoader[Hook]("kprobe", m.Phys, &m.Costs)}
}

// Attach verifies (or fetches from the module cache), compiles, and
// installs a probe program. It returns the program id and the
// simulated cycles the attach itself cost (verification plus VM
// setup); the syscall layer charges them to the attaching process
// under the probe subsystem. A verifier rejection returns a
// *VerifyError, attaches nothing, and costs the instructions the
// verifier analyzed.
//
// The admission pipeline — parse, optimize, verify, instrument,
// compile to bytecode — runs once per distinct program content: the
// resulting module is cached by SpecKey (excluding the tracepoint),
// so re-attaching the same program, at the same or any other
// tracepoint, skips both the host-side work and the simulated
// per-instruction verification charge.
func (mgr *Manager) Attach(spec Spec) (int, sim.Cycles, error) {
	if spec.Tracepoint < 0 || spec.Tracepoint >= nTracepoints {
		return 0, 0, fmt.Errorf("kprobe: invalid tracepoint %d", spec.Tracepoint)
	}
	if len(spec.Maps) > MaxMaps {
		return 0, 0, fmt.Errorf("kprobe: %d maps declared, max %d", len(spec.Maps), MaxMaps)
	}
	pg, cost, err := mgr.ld.Load(SpecKey(spec), spec.entry(), func() (kgcc.Admission, error) { return admit(spec) })
	mgr.Cycles += cost
	if err != nil {
		return 0, cost, err
	}
	if pg.CacheHit {
		mgr.CacheHits++
	}
	pg.Hook.TP = spec.Tracepoint
	for _, ms := range spec.Maps {
		pg.Hook.Maps = append(pg.Hook.Maps, newMap(ms))
	}
	// Generous per-dispatch belt: the verifier already bounds
	// execution by code length, so hitting this means a verifier bug.
	pg.VM.MaxSteps = 1_000_000
	mgr.installHelpers(pg)

	mgr.progs[spec.Tracepoint] = append(mgr.progs[spec.Tracepoint], pg)
	mgr.Attached++
	return pg.ID, cost, nil
}

// SpecKey derives the content-hash cache key for a spec. It covers
// everything admission looks at — entry, source text and the declared
// map signature (map ids and kinds are verified statically) — because
// a cache hit skips admission: the same source attached under a
// different entry is a different admission that must re-verify. It
// deliberately excludes the tracepoint: the same program attached at
// another site is the same module.
func SpecKey(spec Spec) minic.CacheKey {
	parts := []string{"kprobe-module-v1", spec.entry(), spec.Source}
	for _, ms := range spec.Maps {
		parts = append(parts, fmt.Sprintf("%s:%s", ms.Name, ms.Kind))
	}
	return minic.HashParts(parts...)
}

// admit is Attach's admission function: parse, optimize (constant
// folding feeds the verifier's map-id and frame-offset proofs),
// statically verify the entry function, instrument with full KGCC
// checks, and compile to bytecode. A verifier rejection carries the
// instructions it analyzed, so the attach charges for them.
func admit(spec Spec) (kgcc.Admission, error) {
	entry := spec.entry()
	unit, err := minic.CompileSource(spec.Source)
	if err != nil {
		return kgcc.Admission{}, fmt.Errorf("kprobe: compile: %w", err)
	}
	fn := unit.Fn(entry)
	if fn == nil {
		return kgcc.Admission{}, fmt.Errorf("kprobe: entry function %q not defined", entry)
	}
	minic.Optimize(fn)
	insns := len(fn.Code)
	if err := verify(fn, spec.Maps); err != nil {
		return kgcc.Admission{Insns: insns}, err
	}
	kgcc.Instrument(fn, kgcc.FullChecks())
	mod, err := minic.CompileUnit(unit)
	if err != nil {
		return kgcc.Admission{Insns: insns}, fmt.Errorf("kprobe: %w", err)
	}
	return kgcc.Admission{Mod: mod, Insns: insns}, nil
}

// installHelpers binds the helper ABI for one program. The builtins
// close over the manager's current event context and the program's
// own maps; the verifier has already proven every call site valid, so
// the runtime checks here are pure defense in depth.
func (mgr *Manager) installHelpers(pg *Prog) {
	costs := &mgr.m.Costs
	maps := pg.Hook.Maps
	pg.VM.SetBuiltin("ctx_pid", func(minic.Env, []int64) (int64, error) { return mgr.ctx.Pid, nil })
	pg.VM.SetBuiltin("ctx_nr", func(minic.Env, []int64) (int64, error) { return mgr.ctx.Nr, nil })
	pg.VM.SetBuiltin("ctx_arg", func(minic.Env, []int64) (int64, error) { return mgr.ctx.Arg, nil })
	pg.VM.SetBuiltin("ctx_cycles", func(minic.Env, []int64) (int64, error) { return mgr.ctx.Cycles, nil })
	pg.VM.SetBuiltin("now", func(minic.Env, []int64) (int64, error) { return int64(mgr.m.Clock.Now()), nil })
	// The map-helper argument checks are written out in each closure
	// (rather than shared through an inner function) so each helper is
	// one call frame on the probe fire path.
	mapArgErr := func(args []int64, kind MapKind) error {
		if len(args) != 3 {
			return fmt.Errorf("kprobe: map helper takes 3 arguments, got %d", len(args))
		}
		id := args[0]
		if id < 0 || id >= int64(len(maps)) {
			return fmt.Errorf("kprobe: map id %d out of range", id)
		}
		return fmt.Errorf("kprobe: map %d is a %s map", id, maps[id].Kind)
	}
	pg.VM.SetBuiltin("map_add", func(_ minic.Env, args []int64) (int64, error) {
		if len(args) != 3 || args[0] < 0 || args[0] >= int64(len(maps)) || maps[args[0]].Kind != MapHash {
			return 0, mapArgErr(args, MapHash)
		}
		mgr.MapOps++
		mgr.ld.Charge(costs.ProbeMapOp)
		maps[args[0]].add(uint64(args[1]), args[2])
		return 0, nil
	})
	pg.VM.SetBuiltin("map_hist", func(_ minic.Env, args []int64) (int64, error) {
		if len(args) != 3 || args[0] < 0 || args[0] >= int64(len(maps)) || maps[args[0]].Kind != MapHist {
			return 0, mapArgErr(args, MapHist)
		}
		mgr.MapOps++
		mgr.ld.Charge(costs.ProbeMapOp)
		maps[args[0]].observe(uint64(args[1]), args[2])
		return 0, nil
	})
}

// Lookup returns program id as process pid may name it: a process
// (pid > 0) reaches only the programs it attached, and another
// process's program gets the same error as an id never issued. pid 0
// is the kernel, which reaches every program.
func (mgr *Manager) Lookup(pid, id int) (*Prog, error) {
	if pg, ok := mgr.ld.Lookup(pid, id); ok {
		return pg, nil
	}
	return nil, fmt.Errorf("kprobe: no program %d", id)
}

// Detach removes a program; its tracepoint goes back to costing zero
// once no programs remain.
func (mgr *Manager) Detach(id int) error {
	pg, err := mgr.Lookup(0, id)
	if err != nil {
		return err
	}
	mgr.ld.Unload(id)
	list := mgr.progs[pg.Hook.TP]
	for i, p := range list {
		if p == pg {
			mgr.progs[pg.Hook.TP] = append(list[:i], list[i+1:]...)
			break
		}
	}
	mgr.Attached--
	return nil
}

// Prog returns the attached program with the given id.
func (mgr *Manager) Prog(id int) (*Prog, bool) { return mgr.ld.Lookup(0, id) }

// AttachedAt reports whether any live program is attached at tp.
func (mgr *Manager) AttachedAt(tp Tracepoint) bool {
	return len(mgr.progs[tp]) > 0
}

// Read serializes program id's maps into the probe_read wire format,
// returning the bytes and the in-kernel cost of producing them (a
// kernel-side copy per byte plus one map op per map — the single
// summary copy that replaces an event stream).
func (mgr *Manager) Read(id int) ([]byte, sim.Cycles, error) {
	pg, err := mgr.Lookup(0, id)
	if err != nil {
		return nil, 0, err
	}
	data := encodeMaps(pg.Hook.Maps)
	cost := sim.Cycles(len(data))*mgr.m.Costs.CopyKernByte +
		sim.Cycles(len(pg.Hook.Maps))*mgr.m.Costs.ProbeMapOp
	mgr.Cycles += cost
	return data, cost, nil
}

// dispatch runs every live program attached at tp and returns the
// accumulated simulated cost for the call site to charge. Zero
// programs means zero cycles and no work beyond the slice length
// check. Dispatch never nests: a tracepoint reached while a probe's
// cost is being charged is skipped and counted, like the kernel's
// bpf_prog_active guard.
func (mgr *Manager) dispatch(tp Tracepoint, ctx Ctx) sim.Cycles {
	progs := mgr.progs[tp]
	if len(progs) == 0 {
		return 0
	}
	if mgr.running {
		mgr.Skipped++
		return 0
	}
	mgr.running = true
	mgr.ctx = ctx
	c := mgr.m.Costs.ProbeDispatch
	for _, pg := range progs {
		if pg.Err != nil {
			continue
		}
		mgr.Fired++
		_, cost, err := mgr.ld.Run(pg)
		c += cost
		if err != nil {
			mgr.m.Event(kernel.EventProbeDead,
				fmt.Sprintf("probe %d (%s at %s): %v", pg.ID, pg.Entry, pg.Hook.TP, err))
		}
	}
	mgr.running = false
	mgr.Cycles += c
	return c
}

// SyscallEnter dispatches the syscall_enter tracepoint (called by the
// sys layer after entry accounting).
func (mgr *Manager) SyscallEnter(pid, nr, in int) sim.Cycles {
	return mgr.dispatch(TpSyscallEnter, Ctx{Pid: int64(pid), Nr: int64(nr), Arg: int64(in)})
}

// SyscallExit dispatches the syscall_exit tracepoint with the span
// duration.
func (mgr *Manager) SyscallExit(pid, nr, in, out int, dur sim.Cycles) sim.Cycles {
	return mgr.dispatch(TpSyscallExit, Ctx{Pid: int64(pid), Nr: int64(nr), Arg: int64(out), Cycles: int64(dur)})
}

// CtxSwitch implements kernel.ProbeTap for the scheduler seam.
func (mgr *Manager) CtxSwitch(p *kernel.Process) sim.Cycles {
	return mgr.dispatch(TpCtxSwitch, Ctx{Pid: int64(p.PID), Nr: -1})
}

// Fault implements kernel.ProbeTap for the page-fault seam.
func (mgr *Manager) Fault(p *kernel.Process, guard, write bool) sim.Cycles {
	var arg int64
	if guard {
		arg |= 1
	}
	if write {
		arg |= 2
	}
	return mgr.dispatch(TpPageFault, Ctx{Pid: int64(p.PID), Nr: -1, Arg: arg})
}

// DiskWait implements kernel.ProbeTap for the disk-wait seam.
func (mgr *Manager) DiskWait(p *kernel.Process, d sim.Cycles) sim.Cycles {
	return mgr.dispatch(TpDiskWait, Ctx{Pid: int64(p.PID), Nr: -1, Arg: int64(d), Cycles: int64(d)})
}

// WirePerf registers the manager's statistics as kperf gauges.
func (mgr *Manager) WirePerf(reg *kperf.Registry) {
	reg.GaugeVar("kprobe.attached", &mgr.Attached)
	reg.GaugeVar("kprobe.fired", &mgr.Fired)
	reg.GaugeVar("kprobe.map_ops", &mgr.MapOps)
	reg.GaugeVar("kprobe.skipped", &mgr.Skipped)
	reg.GaugeVar("kprobe.cache_hits", &mgr.CacheHits)
	reg.GaugeVar("kprobe.cycles", (*int64)(&mgr.Cycles))
}
