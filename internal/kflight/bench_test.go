package kflight

import (
	"testing"

	"repro/internal/sim"
)

// epochStep returns a function that moves a gauge variable, a gauge
// func, sys.span.cycles and one attribution cell, then ticks past the
// next epoch boundary, so every call closes one epoch with a row of
// each kind. The ring is already full when it returns.
func epochStep(r *Recorder) func() {
	set := r.set
	var ops int64
	set.Reg.GaugeVar("test.ops", &ops)
	set.Reg.GaugeFunc("test.depth", func() int64 { return 2 * ops })
	ps := set.NewProc(1, "proc")
	now := sim.Cycles(0)
	step := func() {
		ops++
		ps.SyscallEnter(2, now)
		ps.OnCycles(100, true)
		now += r.cfg.EpochCycles
		ps.SyscallExit(now)
		r.Tick(now)
	}
	for i := 0; i < 2*r.cfg.Retain; i++ {
		step()
	}
	return step
}

// TestEpochCloseAllocFree pins the dense close: once the ring is full,
// a Tick that closes an epoch allocates nothing, though two gauges, a
// histogram and an attribution cell all moved in it.
func TestEpochCloseAllocFree(t *testing.T) {
	r, _ := newTestRecorder(Config{Retain: 4})
	step := epochStep(r)
	before := r.Summary().Epochs
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("epoch close allocates %v/op", n)
	}
	if closed := r.Summary().Epochs - before; closed != 101 {
		t.Fatalf("closed %d epochs, want one per step (101)", closed)
	}
	e := r.Epochs()[3]
	if e.Gauges["test.ops"] == 0 || e.Gauges["test.depth"] != 2*e.Gauges["test.ops"] ||
		e.Hists["sys.span.cycles"].Count != 1 || len(e.Attr) != 1 {
		t.Fatalf("closed epoch lacks a moved metric: %+v", e)
	}
}

func BenchmarkEpochClose(b *testing.B) {
	r, _ := newTestRecorder(Config{Retain: 64})
	step := epochStep(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
