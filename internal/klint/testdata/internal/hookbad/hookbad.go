// Package hookbad holds observers that violate the cost-free
// contract: directly, and through smuggled closures (the
// dynamic-dispatch loophole hookpure exists to close).
package hookbad

import (
	"repro/internal/kernel"
	"repro/internal/kperf"
	"repro/internal/sim"
)

// BadHook charges cycles straight from its charge method.
type BadHook struct {
	kperf.NopObserver
	P *kernel.Process
}

func (h *BadHook) OnCharge(pid int, c sim.Cycles) { // want hookpure "OnCharge .implements kernel.Observer. can reach .*Charge"
	h.P.Charge(c)
}

// SpinHook advances simulated time from its tick.
type SpinHook struct {
	kperf.NopObserver
	C *sim.Clock
}

func (h *SpinHook) Tick(now sim.Cycles) { // want hookpure "Tick .implements kernel.Observer. can reach .*Advance"
	h.C.Advance(1)
}

// SmuggleHook never names a kernel symbol in its method — the charge
// hides inside a closure built at construction time. The import
// table alone cannot see this; the call graph must.
type SmuggleHook struct {
	kperf.NopObserver
	f func(sim.Cycles)
}

// NewSmuggle captures a process in a charging closure.
func NewSmuggle(p *kernel.Process) *SmuggleHook {
	return &SmuggleHook{f: func(c sim.Cycles) { p.Charge(c) }}
}

func (h *SmuggleHook) OnCharge(pid int, c sim.Cycles) { // want hookpure "OnCharge .implements kernel.Observer. can reach .*Charge"
	h.f(c)
}

// OpHook smuggles a charge that only its op-begin method can reach:
// op brackets are observer entries too, not just charges and ticks.
type OpHook struct {
	kperf.NopObserver
	charge func()
}

// NewOpHook captures a process in a charging closure.
func NewOpHook(p *kernel.Process) *OpHook {
	return &OpHook{charge: func() { p.Charge(1) }}
}

func (h *OpHook) BeginOp(pid int, op string) { // want hookpure "BeginOp .implements kernel.Observer. can reach .*Charge"
	h.charge()
}
