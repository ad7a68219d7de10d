// Package kperf is the fixture stand-in for the attribution layer —
// the hooks' legitimate world.
package kperf

import "repro/internal/sim"

// Registry accumulates host-side counters.
type Registry struct{ n int64 }

// Bump increments a host-side counter (allowed from hooks).
func (r *Registry) Bump() { r.n++ }

// NopObserver implements kernel.Observer as no-ops; observers embed
// it and override the events they use.
type NopObserver struct{}

func (NopObserver) OnCharge(pid int, c sim.Cycles) {}
func (NopObserver) Tick(now sim.Cycles)            {}
func (NopObserver) BeginOp(pid int, op string)     {}
