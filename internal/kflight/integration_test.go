package kflight_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kflight"
	"repro/internal/kgcc"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/workload"
)

// TestErrKuDeadPostmortem is the acceptance test for the postmortem
// plane: an extension that dies on a runtime violation must leave a
// "kudead" dump carrying the epochs and trace tail leading up to the
// death.
func TestErrKuDeadPostmortem(t *testing.T) {
	s, err := core.New(core.Options{
		Perf: core.NewPerf(0),
		// Tiny epoch so the short run closes real epochs before the dump.
		Flight: &kflight.Config{EpochCycles: 1 << 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	spawnVictim(t, s)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	sum := s.Flight.Summary()
	if sum.Events["kudead"] != 1 {
		t.Fatalf("events = %+v, want exactly one kudead", sum.Events)
	}
	var dump *kflight.Postmortem
	for i, pm := range s.Flight.Postmortems() {
		if pm.Kind == "kudead" {
			dump = &s.Flight.Postmortems()[i]
		}
	}
	if dump == nil {
		t.Fatal("no kudead postmortem cut")
	}
	if dump.Detail == "" || dump.At == 0 {
		t.Errorf("dump lacks detail/timestamp: %+v", dump)
	}
	if len(dump.Epochs) == 0 {
		t.Fatal("dump carries no epochs")
	}
	// The flushed window must reach the death itself.
	if last := dump.Epochs[len(dump.Epochs)-1]; last.End != dump.At {
		t.Errorf("newest dump epoch ends at %d, want the event cycle %d", last.End, dump.At)
	}
	if len(dump.Tail) == 0 {
		t.Error("dump carries no trace tail")
	}
	var sawVictim bool
	for _, te := range dump.Tail {
		if te.Process == "victim-1" {
			sawVictim = true
		}
	}
	if !sawVictim {
		t.Errorf("tail %+v has no victim-1 records", dump.Tail)
	}
	// The run-end dump rides along regardless.
	pms := s.Flight.Postmortems()
	if pms[len(pms)-1].Kind != "run_end" {
		t.Errorf("last postmortem is %q, want run_end", pms[len(pms)-1].Kind)
	}
}

// spawnVictim spawns a process whose kucode extension is killed by a
// retained bounds check on its second call, which cuts a "kudead"
// postmortem; the calls around it check the errors the process sees.
func spawnVictim(t *testing.T, s *core.System) {
	t.Helper()
	// The off-by-one depends on the argument, so load-time analysis
	// cannot reject it; the retained runtime check kills the extension.
	const src = `
	int main(int n) {
		int a[4];
		int i;
		for (i = 0; i < n; i++) { a[i] = i; }
		return a[0];
	}`
	s.Spawn("victim", func(pr *sys.Proc) error {
		id, err := pr.KuLoad(sys.KuSpec{Source: src, Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}
		if _, err := pr.KuCall(id, 4); err != nil {
			t.Errorf("in-bounds call failed: %v", err)
		}
		if _, err := pr.KuCall(id, 5); !errors.Is(err, kgcc.ErrViolation) {
			t.Errorf("out-of-bounds call: err = %v; want a kgcc violation", err)
		}
		if _, err := pr.KuCall(id, 4); !errors.Is(err, sys.ErrKuDead) {
			t.Errorf("call after violation: err = %v; want ErrKuDead", err)
		}
		return nil
	})
}

// TestFlightOnOffBitIdentity is the zero-simulated-cost gate at test
// granularity: the same workload with and without the flight recorder
// must finish at the identical simulated cycle. (benchall asserts the
// same property across E1-E10 via the kperf on/off comparison, which
// toggles kflight together with kperf.)
func TestFlightOnOffBitIdentity(t *testing.T) {
	run := func(flight bool) sim.Cycles {
		opts := core.Options{Perf: core.NewPerf(0)}
		if flight {
			// Aggressive config: tiny epochs and retention maximize
			// sampling activity without moving a simulated cycle.
			opts.Flight = &kflight.Config{EpochCycles: 1 << 16, Retain: 8}
		}
		s, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.DefaultPostMark()
		cfg.InitialFiles, cfg.Transactions = 50, 200
		s.Spawn("postmark", func(pr *sys.Proc) error {
			_, err := workload.PostMark(pr, cfg)
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if flight && s.Flight.Summary().Epochs == 0 {
			t.Fatal("flight run closed no epochs; the comparison is vacuous")
		}
		return s.M.Elapsed()
	}
	off := run(false)
	on := run(true)
	if off != on {
		t.Errorf("simulated cycles moved: flight off %d, on %d (Δ%d)", off, on, on-off)
	}
}
