package kperf

import (
	"io"
	"testing"

	"repro/internal/sim"
)

// Host-overhead guardrail benchmarks. These measure the *host* cost of
// the always-on instrumentation (simulated cost is zero by
// construction). The counter-increment and attribution hot paths must
// be allocation-free; run with -benchmem to see it, and
// TestHotPathsAllocFree enforces it.

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1400)
	}
}

func BenchmarkOnCycles(b *testing.B) {
	set := New(24, 64)
	ps := set.NewProc(1, "bench")
	ps.SyscallEnter(3, 0)
	ps.Push(SubMem)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.OnCycles(60, true)
	}
}

func BenchmarkSyscallSpan(b *testing.B) {
	set := New(24, 1<<20)
	ps := set.NewProc(1, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.SyscallEnter(3, 0)
		ps.SyscallExit(1000)
	}
}

func BenchmarkSnapshotExport(b *testing.B) {
	set := New(24, 1024)
	set.SyscallName = func(nr int) string { return "call" }
	ps := set.NewProc(1, "bench")
	for i := 0; i < 512; i++ {
		ps.SyscallEnter(uint16(i%20), sim.Cycles(i*2000))
		ps.OnCycles(100, true)
		ps.SyscallExit(sim.Cycles((i + 1) * 2000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := set.Snapshot()
		_ = sn.FoldedStacks()
		_ = set.WriteChromeTrace(io.Discard)
	}
}

// TestHotPathsAllocFree pins the satellite requirement: metric
// increments and per-charge attribution allocate nothing on the host.
func TestHotPathsAllocFree(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op", n)
	}
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(77) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
	set := New(24, 1<<16)
	ps := set.NewProc(1, "alloc")
	if n := testing.AllocsPerRun(1000, func() { ps.OnCycles(5, true) }); n != 0 {
		t.Fatalf("OnCycles allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		ps.SyscallEnter(2, 0)
		ps.SyscallExit(100)
	}); n != 0 {
		t.Fatalf("syscall span allocates %v/op", n)
	}
	set.Reg.GaugeFunc("lazy", func() int64 { return 1 })
	var s Sample
	if n := testing.AllocsPerRun(1000, func() { set.Reg.Sample(&s) }); n != 0 {
		t.Fatalf("Registry.Sample into a reused Sample allocates %v/op", n)
	}
}
