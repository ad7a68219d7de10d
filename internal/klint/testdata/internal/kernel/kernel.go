// Package kernel is the fixture stand-in for the machine: it defines
// the observer seam and the charging API, and carries one deliberate
// layering violation (kernel must never import its observers).
package kernel

import (
	"repro/internal/ktrace" // want layering "import edge repro/internal/kernel -> repro/internal/ktrace is not in the layering table"
	"repro/internal/sim"
)

// Process is a schedulable entity; Charge is the mutator hookpure
// must prove unreachable from hooks.
type Process struct{ Used sim.Cycles }

// Charge attributes cycles to the process.
func (p *Process) Charge(c sim.Cycles) { p.Used += c }

// Observer is the fixture observer seam.
type Observer interface {
	OnCharge(pid int, c sim.Cycles)
	Tick(now sim.Cycles)
	BeginOp(pid int, op string)
}

var _ = ktrace.Marker
