package kflight_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kflight"
	"repro/internal/sys"
)

// systemCloser boots a machine with kperf and kflight on and one
// process spawned, and returns a step that moves a syscall count, the
// copy-in bytes, the disk histogram and the process's attribution,
// then advances the clock one epoch and ticks the recorder, so every
// step closes one epoch over the full registry core wires up. The ring
// is full when it returns. Run the machine afterwards to retire the
// process.
func systemCloser(tb testing.TB) (*core.System, func()) {
	s, err := core.New(core.Options{
		Perf:   core.NewPerf(0),
		Flight: &kflight.Config{Retain: 64},
	})
	if err != nil {
		tb.Fatal(err)
	}
	p := s.Spawn("proc", func(*sys.Proc) error { return nil })
	disk := s.Perf.Reg.Histogram("disk.access.cycles")
	epoch := s.Flight.Config().EpochCycles
	step := func() {
		s.K.Calls[sys.NrRead]++
		s.K.CallsTotal++
		s.K.BytesIn += 64
		disk.Observe(5000)
		p.Perf.OnCycles(100, true)
		s.M.Clock.Advance(epoch)
		s.Flight.Tick(s.M.Clock.Now())
	}
	for i := 0; i < 2*s.Flight.Config().Retain; i++ {
		step()
	}
	return s, step
}

// TestEpochCloseSystemAllocFree pins the close over a booted system's
// registry, every gauge core wires included, at zero allocations once
// the ring is full.
func TestEpochCloseSystemAllocFree(t *testing.T) {
	s, step := systemCloser(t)
	before := s.Flight.Summary().Epochs
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("epoch close allocates %v/op", n)
	}
	if closed := s.Flight.Summary().Epochs - before; closed != 101 {
		t.Fatalf("closed %d epochs, want one per step (101)", closed)
	}
	epochs := s.Flight.Epochs()
	e := epochs[len(epochs)-1]
	if e.Gauges["sys.calls.total"] == 0 || e.Gauges["sys.bytes.copyin"] == 0 ||
		e.Hists["disk.access.cycles"].P50 != 8192 || len(e.Attr) != 1 {
		t.Fatalf("closed epoch lacks a moved metric: %+v", e)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEpochCloseSystem(b *testing.B) {
	s, step := systemCloser(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
