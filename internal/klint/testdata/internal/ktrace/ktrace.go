// Package ktrace is the conforming observer: it imports only kperf
// and sim, and its methods touch nothing else — hookpure must pass it.
package ktrace

import (
	"repro/internal/kperf"
	"repro/internal/sim"
)

// Marker exists so fixture packages can take a dependency on ktrace.
const Marker = 1

// Tracer implements kernel.Observer structurally.
type Tracer struct {
	kperf.NopObserver
	Reg  *kperf.Registry
	last sim.Cycles
	ops  int
}

// OnCharge records the charge host-side only.
func (t *Tracer) OnCharge(pid int, c sim.Cycles) {
	t.last += c
	t.Reg.Bump()
}

// BeginOp counts the operation host-side only.
func (t *Tracer) BeginOp(pid int, op string) {
	t.ops++
	t.Reg.Bump()
}
