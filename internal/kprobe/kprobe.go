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
	"repro/internal/mem"
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
// source (or a pre-compiled module), its entry function, and the maps
// it declares.
type Spec struct {
	Tracepoint Tracepoint `json:"tracepoint"`
	Source     string     `json:"source"`
	// Entry is the entry function name; empty selects "probe".
	Entry string    `json:"entry,omitempty"`
	Maps  []MapSpec `json:"maps,omitempty"`
	// Module, when non-empty, is an encoded pre-compiled module
	// (minic.EncodeModule output) attached instead of compiling Source.
	Module []byte `json:"module,omitempty"`
}

// MaxMaps bounds the maps one program may declare.
const MaxMaps = 32

// Prog is one attached (verified, instrumented) probe program.
type Prog struct {
	ID    int
	TP    Tracepoint
	Entry string
	Maps  []*Map
	// Insns is the verified instruction count (pre-instrumentation).
	Insns int
	// Fired counts dispatches of this program.
	Fired int64
	// Err is the first runtime error; a program that errors is dead
	// and never runs again (the simulated analogue of a BPF program
	// being killed by the runtime).
	Err error

	vm *minic.VM
	// entryIdx is Entry resolved to a module function index at attach
	// time, so a fire dispatches without a per-fire name lookup. -1
	// means unresolved (the fire falls back to Call and dies with the
	// interpreter's undefined-function error).
	entryIdx int
	dead     bool
}

// Manager owns every attached probe program and the tracepoint
// dispatch tables. It implements kernel.ProbeTap, so the machine
// calls straight into it from the scheduler, fault, and disk seams
// without the kernel package importing kprobe.
//
// A Manager, like the machine it instruments, is driven by a single
// goroutine: the stats counters are plain fields and Attach's
// get-then-put on the module cache is not atomic. The cache's own
// lock only makes its map safe to look at; it does not (and need
// not) serialize whole admissions.
type Manager struct {
	m *kernel.Machine
	// as is the probes' private kernel address space: interpreter
	// stacks live here and its memory costs (TLB misses, page maps)
	// accumulate into the probe charge like everything else a probe
	// does, so the whole cost of probing lands in one subsystem.
	as *mem.AddressSpace

	progs  [nTracepoints][]*Prog
	byID   map[int]*Prog
	nextID int

	// running guards against re-entrant dispatch (a probe's own
	// charging preempting into another tracepoint), like the kernel's
	// bpf_prog_active counter.
	running bool
	// pending accumulates simulated cost during one dispatch or
	// attach; the caller charges it in one step with a probe tag.
	pending sim.Cycles
	ctx     Ctx

	// cache holds verified compiled modules by content hash. The key
	// excludes the tracepoint, so attaching the same program at five
	// sites verifies and compiles once — eBPF's "verify once, attach
	// everywhere" economics.
	cache minic.ModuleCache

	// Stats (kperf exposes them as lazy gauges).
	Attached  int64
	Fired     int64
	MapOps    int64
	Skipped   int64
	CacheHits int64
	Cycles    sim.Cycles
}

// NewManager creates the probe subsystem for a machine.
func NewManager(m *kernel.Machine) *Manager {
	mgr := &Manager{m: m, byID: make(map[int]*Prog), nextID: 1}
	mgr.as = mem.NewAddressSpace("kprobe", m.Phys, &m.Costs)
	mgr.as.Charge = func(c sim.Cycles) { mgr.pending += c }
	return mgr
}

// Attach verifies (or fetches from the module cache), compiles, and
// installs a probe program. It returns the program id and the
// simulated cycles the attach itself cost (verification plus VM
// setup); the syscall layer charges them to the attaching process
// under the probe subsystem. A verifier rejection returns a
// *VerifyError and attaches nothing.
//
// The admission pipeline — parse, optimize, verify, instrument,
// compile to bytecode — runs once per distinct program content: the
// resulting module is cached by content hash (excluding the
// tracepoint), so re-attaching the same program, at the same or any
// other tracepoint, skips both the host-side work and the simulated
// per-instruction verification charge.
func (mgr *Manager) Attach(spec Spec) (int, sim.Cycles, error) {
	if spec.Tracepoint < 0 || spec.Tracepoint >= nTracepoints {
		return 0, 0, fmt.Errorf("kprobe: invalid tracepoint %d", spec.Tracepoint)
	}
	if len(spec.Maps) > MaxMaps {
		return 0, 0, fmt.Errorf("kprobe: %d maps declared, max %d", len(spec.Maps), MaxMaps)
	}
	entry := spec.Entry
	if entry == "" {
		entry = "probe"
	}

	var key minic.CacheKey
	if len(spec.Module) > 0 {
		// The key covers entry and map signature, not just the bytes:
		// a cache hit skips verifyModule, so everything verifyModule
		// looks at must be part of the key.
		key = moduleKey(spec)
	} else {
		key = SpecKey(spec)
	}
	mod, hit := mgr.cache.Get(key)
	if hit {
		mgr.CacheHits++
	} else {
		var err error
		if len(spec.Module) > 0 {
			mod, err = minic.DecodeModule(spec.Module)
			if err != nil {
				return 0, 0, fmt.Errorf("kprobe: %w", err)
			}
			if err := verifyModule(mod, entry, spec.Maps); err != nil {
				return 0, 0, err
			}
		} else {
			mod, err = BuildModule(spec)
			if err != nil {
				return 0, 0, err
			}
		}
		mod.Key = key
		mgr.cache.Put(key, mod)
	}
	insns := mod.SrcInsns

	mgr.pending = 0
	vm, err := minic.NewVM(mgr.as, mod)
	if err != nil {
		mgr.pending = 0
		return 0, 0, fmt.Errorf("kprobe: %w", err)
	}
	vm.PerInstr = mgr.m.Costs.ProbeInstr
	vm.Charge = func(c sim.Cycles) { mgr.pending += c }
	// Generous per-dispatch belt: the verifier already bounds
	// execution by code length, so hitting this means a verifier bug.
	vm.MaxSteps = 1_000_000
	km := kgcc.NewMap(&mgr.m.Costs, func(c sim.Cycles) { mgr.pending += c })
	kgcc.Attach(vm, km)

	pg := &Prog{
		ID:       mgr.nextID,
		TP:       spec.Tracepoint,
		Entry:    entry,
		Insns:    insns,
		vm:       vm,
		entryIdx: mod.FnIndex(entry),
	}
	mgr.nextID++
	for _, ms := range spec.Maps {
		pg.Maps = append(pg.Maps, newMap(ms))
	}
	mgr.installHelpers(pg)

	mgr.progs[spec.Tracepoint] = append(mgr.progs[spec.Tracepoint], pg)
	mgr.byID[pg.ID] = pg
	mgr.Attached++

	// A cache hit skips the simulated verification charge: the kernel
	// already admitted this exact program content.
	cost := mgr.pending
	if !hit {
		cost += sim.Cycles(insns) * mgr.m.Costs.ProbeVerifyInstr
	}
	mgr.pending = 0
	mgr.Cycles += cost
	return pg.ID, cost, nil
}

// installHelpers binds the helper ABI for one program. The builtins
// close over the manager's current event context and the program's
// own maps; the verifier has already proven every call site valid, so
// the runtime checks here are pure defense in depth.
func (mgr *Manager) installHelpers(pg *Prog) {
	costs := &mgr.m.Costs
	pg.vm.SetBuiltin("ctx_pid", func(minic.Env, []int64) (int64, error) { return mgr.ctx.Pid, nil })
	pg.vm.SetBuiltin("ctx_nr", func(minic.Env, []int64) (int64, error) { return mgr.ctx.Nr, nil })
	pg.vm.SetBuiltin("ctx_arg", func(minic.Env, []int64) (int64, error) { return mgr.ctx.Arg, nil })
	pg.vm.SetBuiltin("ctx_cycles", func(minic.Env, []int64) (int64, error) { return mgr.ctx.Cycles, nil })
	pg.vm.SetBuiltin("now", func(minic.Env, []int64) (int64, error) { return int64(mgr.m.Clock.Now()), nil })
	// The map-helper argument checks are written out in each closure
	// (rather than shared through an inner function) so each helper is
	// one call frame on the probe fire path.
	mapArgErr := func(args []int64, kind MapKind) error {
		if len(args) != 3 {
			return fmt.Errorf("kprobe: map helper takes 3 arguments, got %d", len(args))
		}
		id := args[0]
		if id < 0 || id >= int64(len(pg.Maps)) {
			return fmt.Errorf("kprobe: map id %d out of range", id)
		}
		return fmt.Errorf("kprobe: map %d is a %s map", id, pg.Maps[id].Kind)
	}
	pg.vm.SetBuiltin("map_add", func(_ minic.Env, args []int64) (int64, error) {
		if len(args) != 3 || args[0] < 0 || args[0] >= int64(len(pg.Maps)) || pg.Maps[args[0]].Kind != MapHash {
			return 0, mapArgErr(args, MapHash)
		}
		mgr.MapOps++
		mgr.pending += costs.ProbeMapOp
		pg.Maps[args[0]].add(uint64(args[1]), args[2])
		return 0, nil
	})
	pg.vm.SetBuiltin("map_hist", func(_ minic.Env, args []int64) (int64, error) {
		if len(args) != 3 || args[0] < 0 || args[0] >= int64(len(pg.Maps)) || pg.Maps[args[0]].Kind != MapHist {
			return 0, mapArgErr(args, MapHist)
		}
		mgr.MapOps++
		mgr.pending += costs.ProbeMapOp
		pg.Maps[args[0]].observe(uint64(args[1]), args[2])
		return 0, nil
	})
}

// Detach removes a program; its tracepoint goes back to costing zero
// once no programs remain.
func (mgr *Manager) Detach(id int) error {
	pg, ok := mgr.byID[id]
	if !ok {
		return fmt.Errorf("kprobe: no program %d", id)
	}
	delete(mgr.byID, id)
	list := mgr.progs[pg.TP]
	for i, p := range list {
		if p == pg {
			mgr.progs[pg.TP] = append(list[:i], list[i+1:]...)
			break
		}
	}
	mgr.Attached--
	return nil
}

// Prog returns the attached program with the given id.
func (mgr *Manager) Prog(id int) (*Prog, bool) {
	pg, ok := mgr.byID[id]
	return pg, ok
}

// AttachedAt reports whether any live program is attached at tp.
func (mgr *Manager) AttachedAt(tp Tracepoint) bool {
	return len(mgr.progs[tp]) > 0
}

// Read serializes program id's maps into the probe_read wire format,
// returning the bytes and the in-kernel cost of producing them (a
// kernel-side copy per byte plus one map op per map — the single
// summary copy that replaces an event stream).
func (mgr *Manager) Read(id int) ([]byte, sim.Cycles, error) {
	pg, ok := mgr.byID[id]
	if !ok {
		return nil, 0, fmt.Errorf("kprobe: no program %d", id)
	}
	data := encodeMaps(pg.Maps)
	cost := sim.Cycles(len(data))*mgr.m.Costs.CopyKernByte +
		sim.Cycles(len(pg.Maps))*mgr.m.Costs.ProbeMapOp
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
	mgr.pending = mgr.m.Costs.ProbeDispatch
	mgr.ctx = ctx
	for _, pg := range progs {
		if pg.dead {
			continue
		}
		pg.Fired++
		mgr.Fired++
		pg.vm.Steps = 0
		var err error
		if pg.entryIdx >= 0 {
			_, err = pg.vm.CallIndex(pg.entryIdx)
		} else {
			_, err = pg.vm.Call(pg.Entry)
		}
		if err != nil {
			pg.Err = err
			pg.dead = true
			mgr.m.Event(kernel.EventProbeDead,
				fmt.Sprintf("probe %d (%s at %s): %v", pg.ID, pg.Entry, pg.TP, err))
		}
	}
	mgr.running = false
	c := mgr.pending
	mgr.pending = 0
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

// WirePerf registers the manager's statistics as lazy kperf gauges.
func (mgr *Manager) WirePerf(reg *kperf.Registry) {
	reg.GaugeVar("kprobe.attached", &mgr.Attached)
	reg.GaugeVar("kprobe.fired", &mgr.Fired)
	reg.GaugeVar("kprobe.map_ops", &mgr.MapOps)
	reg.GaugeVar("kprobe.skipped", &mgr.Skipped)
	reg.GaugeVar("kprobe.cache_hits", &mgr.CacheHits)
	reg.GaugeVar("kprobe.cycles", (*int64)(&mgr.Cycles))
}
