package kperf

import "repro/internal/sim"

// NopObserver implements every method of the kernel's Observer seam
// as a no-op. Observers embed it and override only the events they
// use; kperf cannot name the interface (kernel imports kperf), so the
// match is structural.
type NopObserver struct{}

func (NopObserver) OnBlock(pid int, sub Subsys, at sim.Cycles)          {}
func (NopObserver) OnReady(pid int, at sim.Cycles)                      {}
func (NopObserver) OnRun(pid int, at sim.Cycles)                        {}
func (NopObserver) Tick(now sim.Cycles)                                 {}
func (NopObserver) Event(now sim.Cycles, kind, detail string)           {}
func (NopObserver) SyscallEnter(pid int, nr uint16)                     {}
func (NopObserver) SyscallExit(pid int, nr uint16, in, out int)         {}
func (NopObserver) BeginOp(pid int, op string)                          {}
func (NopObserver) EndOp(pid int)                                       {}
func (NopObserver) ExecSpan(pid int, sub Subsys, start, end sim.Cycles) {}
