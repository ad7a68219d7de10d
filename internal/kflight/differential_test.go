package kflight_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kflight"
	"repro/internal/kperf"
	"repro/internal/ktrace"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/workload"
)

// tee delivers one Tick/Event stream to several flight hooks.
type tee []kernel.FlightHook

func (t tee) Tick(now sim.Cycles) {
	for _, h := range t {
		h.Tick(now)
	}
}

func (t tee) Event(now sim.Cycles, kind, detail string) {
	for _, h := range t {
		h.Event(now, kind, detail)
	}
}

// TestDenseCloseMatchesReference drives the dense Recorder and the
// map-based reference with the same Tick/Event stream of a PostMark
// run and requires byte-identical kflight/v1 records. The run
// evicts from the ring (at the small config); mid-run it registers a
// gauge func, a counter and a histogram and spawns a third process; it
// registers one name as both a Gauge and a GaugeFunc, and cuts a kill
// postmortem.
func TestDenseCloseMatchesReference(t *testing.T) {
	for _, cfg := range []kflight.Config{
		{EpochCycles: 1 << 16, Retain: 64},
		{},
	} {
		// A 64-block cache makes writebacks block, so ticks are frequent
		// and most of them close an epoch.
		s, err := core.New(core.Options{CacheBlocks: 64, Perf: core.NewPerf(0), Flight: &cfg, Trace: &ktrace.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		ref := kflight.NewReferenceRecorder(cfg, s.Perf)
		s.M.Flight = tee{s.Flight, ref}

		reg := s.Perf.Reg
		dual, ops := reg.Gauge("test.dual"), reg.Counter("test.ops")
		pmConfig := func(dir string, seed uint64) workload.PostMarkConfig {
			c := workload.DefaultPostMark()
			c.Dir, c.InitialFiles, c.Transactions, c.Seed = dir, 40, 300, seed
			return c
		}
		s.Spawn("pm-a", func(pr *sys.Proc) error {
			_, err := workload.PostMark(pr, pmConfig("/a", 1))
			return err
		})
		s.Spawn("pm-b", func(pr *sys.Proc) error {
			c := pmConfig("/b", 2)
			txns := 0
			var lateOps *kperf.Counter
			var lateCycles *kperf.Histogram
			c.Think = func(pr *sys.Proc) error {
				txns++
				ops.Inc()
				dual.Set(int64(txns / 10))
				if txns == 150 {
					// Metrics and a process that appear after many closes.
					reg.GaugeFunc("test.late", func() int64 { return s.K.TotalCalls() / 3 })
					reg.GaugeFunc("test.dual", func() int64 { return -int64(txns / 10) })
					lateOps, lateCycles = reg.Counter("test.late.ops"), reg.Histogram("test.late.cycles")
					s.Spawn("pm-c", func(pr *sys.Proc) error {
						c := pmConfig("/c", 3)
						c.InitialFiles, c.Transactions = 10, 60
						_, err := workload.PostMark(pr, c)
						return err
					})
				}
				if lateOps != nil {
					lateOps.Inc()
					lateCycles.Observe(sim.Cycles(txns))
				}
				pr.P.ChargeUser(c.UserThink)
				return nil
			}
			if _, err := workload.PostMark(pr, c); err != nil {
				return err
			}
			pr.P.Kill("differential test")
			return nil
		})
		if err := s.Run(); !errors.Is(err, kernel.ErrKilled) {
			t.Fatalf("run: err = %v, want the kill", err)
		}

		var got, want bytes.Buffer
		if err := s.Flight.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := ref.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("config %+v: dense record (%d bytes) differs from the reference (%d bytes) at byte %d",
				cfg, got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
		}

		sum := s.Flight.Summary()
		if sum.Events["kill"] != 1 {
			t.Errorf("config %+v: events %v, want one kill", cfg, sum.Events)
		}
		if cfg.Retain != 0 && sum.Evicted == 0 {
			t.Errorf("config %+v: nothing evicted; the ring reuse path went untested", cfg)
		}
		for _, name := range []string{`"test.late"`, `"test.dual": -`, `"test.late.ops"`, `"test.late.cycles"`, `"pm-c-`} {
			if !bytes.Contains(got.Bytes(), []byte(name)) {
				t.Errorf("config %+v: record never shows %s", cfg, name)
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
