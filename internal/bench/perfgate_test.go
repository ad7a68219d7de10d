package bench

import "testing"

// TestKperfZeroSimulatedCost is the observability contract test: an
// experiment must report bit-identical simulated user/sys/elapsed
// cycles whether its systems boot with kperf instrumentation or
// without it. The instrumentation only reads the clock and observes
// charges the kernel already makes, so any diff here means a probe
// accidentally moved simulated time. cmd/benchall runs the same gate
// over the full E1-E12 suite on every invocation.
func TestKperfZeroSimulatedCost(t *testing.T) {
	pairs := []struct {
		name string
		run  func(perf bool) (*Table, error)
	}{
		{"E2", E2},
	}
	if !testing.Short() {
		pairs = append(pairs, []struct {
			name string
			run  func(perf bool) (*Table, error)
		}{
			{"E1", func(p bool) (*Table, error) { return E1(false, p) }},
			{"E3", E3},
			{"E5", E5},
		}...)
	}
	for _, p := range pairs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			off, err := p.run(false)
			if err != nil {
				t.Fatalf("kperf off: %v", err)
			}
			on, err := p.run(true)
			if err != nil {
				t.Fatalf("kperf on: %v", err)
			}
			if off.SimUser != on.SimUser || off.SimSys != on.SimSys || off.SimElapsed != on.SimElapsed {
				t.Errorf("simulated cycles moved under instrumentation: off (user %d, sys %d, elapsed %d) vs on (user %d, sys %d, elapsed %d)",
					off.SimUser, off.SimSys, off.SimElapsed, on.SimUser, on.SimSys, on.SimElapsed)
			}
			if off.Perf != nil {
				t.Error("kperf-off run produced a snapshot")
			}
			if on.Perf == nil {
				t.Fatal("kperf-on run produced no snapshot")
			}
			if err := on.Perf.CheckTotal(on.PerfElapsed); err != nil {
				t.Errorf("attribution identity: %v", err)
			}
			if got, want := on.String(), off.String(); got != want {
				t.Errorf("rendered tables differ:\n--- off ---\n%s--- on ---\n%s", want, got)
			}
		})
	}
}
