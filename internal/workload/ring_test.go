package workload

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/kgcc"
	"repro/internal/sys"
)

// TestPostMarkRingMatchesClassic is the submission-path equivalence
// gate: PostMark is one program over every backend, so each must
// report PostMarkStats identical to the trap path's, while the
// consolidating backends cross the boundary less: Cosy fewer times
// than trap, and the ring at batch >= 64 at least 10x fewer.
func TestPostMarkRingMatchesClassic(t *testing.T) {
	cfg := DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 40, 150

	run := func(boot backend) (PostMarkStats, int64) {
		s := newSys(t, core.Options{})
		sub := boot(s)
		var st PostMarkStats
		s.Spawn("pm", func(pr *sys.Proc) error {
			var err error
			st, err = RunPostMark(pr, cfg, sub)
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return st, s.K.TotalCalls()
	}
	tst, tcalls := run(trapBackend)
	for _, c := range []struct {
		name     string
		boot     backend
		maxCalls int64
	}{
		{"cosy", cosyBackend, tcalls - 1},
		{"ring/1", ringBackend(1), math.MaxInt64},
		{"ring/64", ringBackend(64), tcalls / 10},
		{"ring/512", ringBackend(512), tcalls / 10},
	} {
		st, calls := run(c.boot)
		if st != tst {
			t.Errorf("%s: stats diverge: trap %+v, %s %+v", c.name, tst, c.name, st)
		}
		if calls > c.maxCalls {
			t.Errorf("%s: %d crossings vs trap %d, want at most %d", c.name, calls, tcalls, c.maxCalls)
		}
	}
}

// TestSeqScanRingVariants checks both batched-read and anycall-pumped
// scans read the exact table the classic loop reads.
func TestSeqScanRingVariants(t *testing.T) {
	cfg := DefaultDB()
	cfg.Records = 500

	scan := func(fn func(pr *sys.Proc) (int64, error)) (int64, int64) {
		s := newSys(t, core.Options{})
		var total int64
		s.Spawn("scan", func(pr *sys.Proc) error {
			if err := DBSetup(pr, cfg); err != nil {
				return err
			}
			var err error
			total, err = fn(pr)
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return total, s.K.TotalCalls()
	}

	want := dbSize(cfg)
	classicTotal, classicCalls := scan(func(pr *sys.Proc) (int64, error) {
		return SeqScanUser(pr, cfg)
	})
	if classicTotal != want {
		t.Fatalf("classic scan read %d of %d bytes", classicTotal, want)
	}

	ringTotal, ringCalls := scan(func(pr *sys.Proc) (int64, error) {
		return SeqScanRing(pr, cfg, 64)
	})
	if ringTotal != want {
		t.Errorf("ring scan read %d of %d bytes", ringTotal, want)
	}
	if ringCalls >= classicCalls {
		t.Errorf("ring scan crossings %d not below classic %d", ringCalls, classicCalls)
	}

	anyTotal, anyCalls := scan(func(pr *sys.Proc) (int64, error) {
		ext, err := pr.KuLoad(sys.KuSpec{Source: PumpSource, Entry: PumpEntry, Checks: kgcc.KcheckOptions()})
		if err != nil {
			return 0, err
		}
		return SeqScanAnycall(pr, cfg, ext)
	})
	if anyTotal != want {
		t.Errorf("anycall scan read %d of %d bytes", anyTotal, want)
	}
	if anyCalls >= ringCalls {
		t.Errorf("anycall scan crossings %d not below batched ring's %d", anyCalls, ringCalls)
	}
}
