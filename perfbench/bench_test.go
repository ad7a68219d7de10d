package main

import (
	"encoding/json"
	"os"
	"testing"
)

// tinySizes keep a whole run, traced or not, well under a second.
var tinySizes = sizes{
	pmFiles: 20, pmTxns: 200,
	dbRecords: 64, dbLookups: 64, dbPasses: 2,
	ablTxns: 100, ablReps: 1,
	probeRecords: 32, probeLookups: 64,
	pmRounds: 2, dbRounds: 2,
}

type benchMetric struct {
	Name, Unit, Better string
}

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []benchMetric `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestEveryMetricEmitted runs every workload at tiny sizes, untimed and
// traced, on the default and the held-out seed, and checks that the
// run is correct and emits exactly the metrics BENCHMARK.json names,
// each with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	var bf benchFile
	readJSON(t, "../BENCHMARK.json", &bf)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			for _, traced := range []bool{false, true} {
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				res, err := run(params{workload: w.Name, seed: seed, trace: traced, sz: tinySizes})
				if err != nil {
					t.Fatalf("%s seed %d traced %v: %v", w.Name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d traced %v: correct %v, %d of %d failed: %v",
						w.Name, seed, traced, res.Correct, res.Failed, res.Attempted, res.errs)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced %v: %d metrics emitted, BENCHMARK.json names %d",
						w.Name, traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("%s traced %v: metric %s not emitted", w.Name, traced, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
					}
				}
			}
		}
	}
}

// TestTargetsCoverLedger checks that targets.json maps every per-layer
// metric to the end-to-end metric and workloads it should move, and
// records the seeds the benchmark uses.
func TestTargetsCoverLedger(t *testing.T) {
	var bf benchFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var tg struct {
		DefaultSeed uint64 `json:"default_seed"`
		HeldOutSeed uint64 `json:"held_out_seed"`
		Targets     map[string]struct {
			Moves     []string `json:"moves"`
			Workloads []string `json:"workloads"`
		} `json:"per_layer_targets"`
	}
	readJSON(t, "targets.json", &tg)
	if tg.DefaultSeed != defaultSeed || tg.HeldOutSeed != heldOutSeed {
		t.Errorf("targets.json seeds %d/%d, benchmark uses %d/%d", tg.DefaultSeed, tg.HeldOutSeed, defaultSeed, heldOutSeed)
	}
	e2e := map[string]bool{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range bf.PerLayer {
		tgt, ok := tg.Targets[m.Name]
		if !ok {
			t.Errorf("per-layer metric %s has no target", m.Name)
			continue
		}
		for _, e := range tgt.Moves {
			if !e2e[e] {
				t.Errorf("%s targets unknown end-to-end metric %s", m.Name, e)
			}
		}
		for _, w := range tgt.Workloads {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s targets unknown workload %s", m.Name, w)
			}
		}
	}
	if len(tg.Targets) != len(bf.PerLayer) {
		t.Errorf("targets.json maps %d metrics, BENCHMARK.json names %d per-layer metrics", len(tg.Targets), len(bf.PerLayer))
	}
}
