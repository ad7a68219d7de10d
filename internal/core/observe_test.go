package core

import (
	"testing"

	"repro/internal/kflight"
	"repro/internal/ktrace"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/workload"
)

// TestObserverOnOffIdentity is the observer seam's bit-identity gate
// at test granularity. One PostMark run, over a 64-block cache so
// writebacks block, must end at the same simulated cycle with the same
// process times under every observer combination as its bare run on
// the same submitter. Each observed row also checks that its observers
// saw the run, so no comparison is vacuous.
func TestObserverOnOffIdentity(t *testing.T) {
	type observers struct{ perf, flight, trace, recorder bool }
	all := observers{perf: true, flight: true, trace: true, recorder: true}
	rows := []struct {
		name string
		obs  observers
		ring int // ring batch; 0 runs the trap submitter
	}{
		{"bare", observers{}, 0},
		{"kperf", observers{perf: true}, 0},
		{"all", all, 0},
		{"ring64/bare", observers{}, 64},
		{"ring64/all", all, 64},
	}
	type result struct {
		elapsed            sim.Cycles
		user, system, wait sim.Cycles
	}
	bare := map[int]result{}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opts := Options{CacheBlocks: 64}
			if row.obs.perf {
				opts.Perf = NewPerf(0)
			}
			if row.obs.flight {
				// Tiny epochs and retention maximize sampling activity.
				opts.Flight = &kflight.Config{EpochCycles: 1 << 16, Retain: 8}
			}
			if row.obs.trace {
				opts.Trace = &ktrace.Config{}
			}
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			if row.obs.recorder {
				s.EnableTrace()
			}
			cfg := workload.DefaultPostMark()
			cfg.InitialFiles, cfg.Transactions = 50, 200
			p := s.Spawn("postmark", func(pr *sys.Proc) error {
				if row.ring > 0 {
					_, err := workload.PostMarkRing(pr, cfg, row.ring)
					return err
				}
				_, err := workload.PostMark(pr, cfg)
				return err
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			got := result{elapsed: s.M.Elapsed()}
			got.user, got.system, got.wait = p.Times()
			if row.obs == (observers{}) {
				bare[row.ring] = got
				return
			}
			if want := bare[row.ring]; got != want {
				t.Errorf("simulated time moved under observers: got %+v, bare %+v", got, want)
			}

			if row.obs.flight && s.Flight.Summary().Epochs == 0 {
				t.Error("kflight closed no epochs")
			}
			if row.obs.trace {
				sum := s.Ktrace.Summary()
				if row.ring == 0 && sum.Requests != 200 {
					t.Errorf("ktrace closed %d requests, want 200", sum.Requests)
				}
				if sum.Requests == 0 || sum.Open != 0 || sum.IdentityViolations != 0 {
					t.Errorf("ktrace: %d requests, %d open, %d identity violations; first: %s",
						sum.Requests, sum.Open, sum.IdentityViolations, sum.FirstViolation)
				}
			}
			if row.obs.recorder {
				for nr := sys.Nr(0); int(nr) < sys.Count(); nr++ {
					if got, want := s.Rec.Calls(nr), s.K.Calls[nr]; got != want {
						t.Errorf("recorder counted %d %s calls, kernel %d", got, nr, want)
					}
				}
			}
		})
	}
}
