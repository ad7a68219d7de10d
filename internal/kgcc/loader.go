package kgcc

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/minic"
	"repro/internal/sim"
)

// ErrDead is returned by Run for a program a runtime violation has
// killed.
var ErrDead = errors.New("kgcc: program killed by a runtime violation")

// Loader is the one lifecycle of user-supplied minic code in the
// kernel: kprobe programs and kucode extensions are both front ends
// over it. It owns the content-keyed module cache, the VM and object
// map of every program over one cost accumulator, the id table, the
// verification charge on a cache miss, and the dead state. A front
// end supplies only what differs: the key, an admission function, its
// helpers (bound on the returned program's VM) and its attach point.
// X is the front end's per-program attach state, carried in Prog.Hook.
//
// A Loader, like the machine it serves, is driven by one goroutine
// at a time, so its tables are plain maps.
type Loader[X any] struct {
	// AS is the kernel address space programs share: interpreter
	// stacks and string literals live here, and its memory costs land
	// in the accumulator like everything else a program does.
	AS    *mem.AddressSpace
	costs *sim.Costs

	// pending accumulates the simulated cost of the load or run in
	// progress; Load and Run hand it back for the caller to charge.
	pending sim.Cycles
	cache   map[minic.CacheKey]*Admission
	progs   map[int]*Prog[X]
	nextID  int
}

// Admission is what a front end's admission function makes of one
// program content. The loader caches it under the front end's key, so
// everything admission looks at must be part of that key.
type Admission struct {
	// Mod is the admitted module; it defines the entry Load was asked
	// for.
	Mod *minic.Module
	// Insns is the instruction count admission analyzed. A cache miss
	// charges Insns × ProbeVerifyInstr whether admission accepts or
	// rejects, so a rejection returns what it analyzed before it gave
	// up.
	Insns int
	// Stats and Report describe what instrumentation did.
	Stats  Stats
	Report *ElisionReport

	entry int
}

// Prog is one loaded program.
type Prog[X any] struct {
	ID int
	// Owner is the PID of the process whose system call loaded the
	// program, stamped by the syscall layer; 0 for a kernel-side load.
	// Lookup hands a process only the programs it owns.
	Owner int
	Entry string
	// Insns is the instruction count admission analyzed.
	Insns int
	// Stats and Report describe what instrumentation did: how many
	// checks were inserted and how many each elimination layer elided.
	Stats  Stats
	Report *ElisionReport
	// CacheHit reports that the load found the program in the module
	// cache and skipped admission and the verification charge.
	CacheHit bool
	// Calls counts runs; Cycles accumulates the load's cost and every
	// run's.
	Calls  int64
	Cycles sim.Cycles
	// Err is the first runtime error. A program that errors is dead
	// and never runs again.
	Err error
	// Hook is the front end's attach state (a probe's tracepoint and
	// maps).
	Hook X
	// VM executes the program; front ends bind their helpers on it.
	VM *minic.VM

	km    *Map
	entry int
}

// ChecksRun reports the dynamic runtime checks this program has
// executed (bounds lookups plus pointer-arithmetic validations).
func (p *Prog[X]) ChecksRun() int64 { return p.km.Checks + p.km.ArithOps }

// NewLoader creates a loader whose programs share the kernel address
// space name over phys.
func NewLoader[X any](name string, phys *mem.Phys, costs *sim.Costs) *Loader[X] {
	l := &Loader[X]{
		AS:     mem.NewAddressSpace(name, phys, costs),
		costs:  costs,
		cache:  make(map[minic.CacheKey]*Admission),
		progs:  make(map[int]*Prog[X]),
		nextID: 1,
	}
	l.AS.Charge = l.Charge
	return l
}

// Charge adds c to the cost of the load or run in progress; helpers
// charge their own work through it.
func (l *Loader[X]) Charge(c sim.Cycles) { l.pending += c }

// Load installs the program keyed by key with the given entry and
// returns it with the simulated cycles the load cost. A cache hit
// skips admit and the verification charge. A miss runs admit and
// charges its analyzed instructions whether it admits or rejects; a
// rejection is not cached and returns that charge with the error.
// The load itself costs the program's VM and object-map setup.
func (l *Loader[X]) Load(key minic.CacheKey, entry string, admit func() (Admission, error)) (*Prog[X], sim.Cycles, error) {
	a, hit := l.cache[key]
	var verify sim.Cycles
	if !hit {
		adm, err := admit()
		verify = sim.Cycles(adm.Insns) * l.costs.ProbeVerifyInstr
		if err != nil {
			return nil, verify, err
		}
		adm.entry = adm.Mod.FnIndex(entry)
		a = &adm
		l.cache[key] = a
	}

	l.pending = 0
	vm, err := minic.NewVM(l.AS, a.Mod)
	if err != nil {
		l.pending = 0
		return nil, 0, fmt.Errorf("kgcc: load: %w", err)
	}
	vm.PerInstr = l.costs.ProbeInstr
	vm.Charge = l.Charge
	km := NewMap(l.costs, l.Charge)
	Attach(vm, km)

	p := &Prog[X]{
		ID:       l.nextID,
		Entry:    entry,
		Insns:    a.Insns,
		Stats:    a.Stats,
		Report:   a.Report,
		CacheHit: hit,
		VM:       vm,
		km:       km,
		entry:    a.entry,
	}
	l.nextID++
	l.progs[p.ID] = p
	p.Cycles = l.pending + verify
	l.pending = 0
	return p, p.Cycles, nil
}

// Lookup returns program id as process pid may name it: only a
// program pid loaded, so another process's program is as unknown as
// an id never issued. pid 0 is the kernel, which sees every program.
func (l *Loader[X]) Lookup(pid, id int) (*Prog[X], bool) {
	p, ok := l.progs[id]
	if !ok || (pid != 0 && p.Owner != pid) {
		return nil, false
	}
	return p, true
}

// Unload drops program id from the id table.
func (l *Loader[X]) Unload(id int) { delete(l.progs, id) }

// Run calls p's entry with args and returns its result and the
// simulated cycles the run cost, for the caller to charge. The first
// runtime error kills p; later runs return ErrDead and cost nothing.
func (l *Loader[X]) Run(p *Prog[X], args ...int64) (int64, sim.Cycles, error) {
	if p.Err != nil {
		return 0, 0, ErrDead
	}
	l.pending = 0
	p.VM.Steps = 0
	ret, err := p.VM.CallIndex(p.entry, args...)
	if err != nil {
		p.Err = err
	}
	p.Calls++
	c := l.pending
	l.pending = 0
	p.Cycles += c
	return ret, c, err
}
