package sys

import (
	"errors"
	"fmt"

	"repro/internal/kcheck"
	"repro/internal/kernel"
	"repro/internal/kgcc"
	"repro/internal/kperf"
	"repro/internal/minic"
)

// ErrKuDead is returned when calling an extension that was killed by
// a runtime violation.
var ErrKuDead = kgcc.ErrDead

// KuSpec is a ku_load request: the paper's "user-level code in the
// kernel". The source is compiled, statically analyzed with kcheck,
// and KGCC-instrumented inside the kernel; Checks selects which
// check-elimination layers the instrumentation applies (FullChecks
// for plain BCC, KcheckOptions for proof-based elision — E10 measures
// the difference).
type KuSpec struct {
	Source string
	// Entry is the function KuCall invokes; empty selects "main".
	Entry string
	// Checks are the KGCC instrumentation options.
	Checks kgcc.Options
}

// entry is the spec's entry function name, defaulted.
func (spec KuSpec) entry() string {
	if spec.Entry == "" {
		return "main"
	}
	return spec.Entry
}

// KuExt is one loaded kucode extension. Like a kprobe program, an
// extension that trips a check is dead and never runs again.
type KuExt = kgcc.Prog[struct{}]

// ku is the kernel's kucode loader, created on first ku_load. Every
// extension runs in its shared address space.
func (k *Kernel) ku() *kgcc.Loader[struct{}] {
	if k.Ku == nil {
		k.Ku = kgcc.NewLoader[struct{}]("kucode", k.M.Phys, &k.M.Costs)
	}
	return k.Ku
}

// KuExt returns the loaded extension with the given id, whichever
// process loaded it.
func (k *Kernel) KuExt(id int) (*KuExt, bool) {
	if k.Ku == nil {
		return nil, false
	}
	return k.Ku.Lookup(0, id)
}

// KuLoad is the ku_load system call: copy the extension source in,
// compile + analyze + instrument it kernel-side, and install it. The
// returned id names the extension for the calling process only. Load
// time charges a per-instruction static-analysis cost (the same rate
// the kprobe verifier charges) plus the interpreter setup; it is paid
// once, never on the call path, and a rejected extension still pays
// for the analysis it got.
//
// Loading rejects extensions the kcheck unit analysis proves unsafe
// to host: recursive call cycles (unbounded kernel stack) and
// accesses that are out of bounds on every execution. Everything else
// is allowed in — the KGCC instrumentation is the runtime backstop,
// exactly the layering the paper prescribes ("static analysis should
// be used to reduce runtime checking").
func (pr *Proc) KuLoad(spec KuSpec) (int, error) {
	in := len(spec.Source) + len(spec.Entry) + 8
	pr.enter(NrKuLoad, in)
	e, cost, err := pr.K.ku().Load(KuSpecKey(spec), spec.entry(), func() (kgcc.Admission, error) { return admitKu(spec) })
	if err == nil {
		e.Owner = pr.P.PID
	}
	if cost > 0 {
		pr.chargeExec(kperf.SubKu, cost)
	}
	pr.exit(NrKuLoad, in, 8)
	if err != nil {
		return -1, err
	}
	return e.ID, nil
}

// KuSpecKey derives the content-hash cache key for a ku_load spec: a
// hash over entry, source text, and the check options (different
// elision layers produce different bytecode, so they are different
// modules). The entry is part of the key because a cache hit skips
// admission, and admission verifies the entry against the source —
// the same source under a different entry is a different admission.
func KuSpecKey(spec KuSpec) minic.CacheKey {
	return minic.HashParts("kucode-v1", spec.entry(), spec.Source, spec.Checks.CacheString())
}

// admitKu is ku_load's admission function: compile, reject what the
// kcheck unit analysis proves unsafe to host, instrument, and compile
// to bytecode. A rejection after analysis carries the analyzed
// instruction count so the load charges for it.
func admitKu(spec KuSpec) (kgcc.Admission, error) {
	entry := spec.entry()
	unit, err := minic.CompileSource(spec.Source)
	if err != nil {
		return kgcc.Admission{}, fmt.Errorf("sys: ku_load compile: %w", err)
	}
	if unit.Fn(entry) == nil {
		return kgcc.Admission{}, fmt.Errorf("sys: ku_load: entry function %q not defined", entry)
	}
	insns := 0
	for _, name := range unit.Order {
		minic.Optimize(unit.Fns[name])
		insns += len(unit.Fns[name].Code)
	}
	uf := kcheck.AnalyzeUnit(unit)
	for _, w := range uf.Warnings {
		if w.Code == "recursion" || w.Code == "oob" {
			return kgcc.Admission{Insns: insns}, fmt.Errorf("sys: ku_load rejected: %s", w)
		}
	}
	// The unit is already optimized above; Instrument per function so
	// InstrumentUnitReport's second Optimize pass is a no-op either way.
	stats, rep := kgcc.InstrumentUnitReport(unit, spec.Checks)
	mod, err := minic.CompileUnit(unit)
	if err != nil {
		return kgcc.Admission{Insns: insns}, fmt.Errorf("sys: ku_load: %w", err)
	}
	return kgcc.Admission{Mod: mod, Insns: insns, Stats: stats, Report: rep}, nil
}

// OpKuCall names the operation each ku_call opens: a request of its
// own, or a child op span of the caller's open request.
const OpKuCall = "ku.call"

// KuCall is the ku_call system call: invoke extension id's entry
// point with the given arguments in a single crossing. The extension
// runs in kernel mode at interpreter speed plus whatever runtime
// checks survived elision; its whole cost lands in the kucode kperf
// subsystem. A runtime violation kills the extension and returns the
// violation to the caller.
func (pr *Proc) KuCall(id int, args ...int64) (int64, error) {
	in := 8 + 8*len(args)
	pr.BeginOp(OpKuCall)
	defer pr.EndOp()
	pr.enter(NrKuCall, in)
	ret, err := pr.kuInvoke(id, args...)
	pr.exit(NrKuCall, in, 8)
	if err != nil {
		return 0, err
	}
	return ret, nil
}

// kuInvoke is the in-kernel core of ku_call: run the calling
// process's extension id and charge its interpreter cost. The ku_call
// trap wraps it; ring drains invoke it directly for anycall entries,
// so an extension costs the same whether it was reached by trap or by
// ring. Another process's extension is as unknown as one never loaded.
func (pr *Proc) kuInvoke(id int, args ...int64) (int64, error) {
	ku := pr.K.Ku
	var e *KuExt
	if ku != nil {
		e, _ = ku.Lookup(pr.P.PID, id)
	}
	if e == nil {
		return 0, fmt.Errorf("sys: ku_call: no extension %d", id)
	}
	ret, cost, err := ku.Run(e, args...)
	if err != nil && !errors.Is(err, ErrKuDead) {
		pr.K.M.Event(kernel.EventKuDead, fmt.Sprintf("ext %d (%s): %v", id, e.Entry, err))
	}
	if cost > 0 {
		pr.chargeExec(kperf.SubKu, cost)
	}
	return ret, err
}
