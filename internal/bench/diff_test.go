package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/kflight"
	"repro/internal/kperf"
	"repro/internal/ktrace"
)

// testRepro builds a small two-experiment document the diff tests
// mutate. Returning a fresh value per call keeps mutations local.
func testRepro() *Repro {
	return &Repro{
		Schema:      "bench-repro/v1",
		GeneratedAt: "2026-08-08T00:00:00Z",
		GitCommit:   "abc1234",
		GoVersion:   "go1.24",
		CPUModel:    "Test CPU",
		WallSeconds: 12.5,
		Experiments: []TrialResult{
			{
				Name: "E1", WallSeconds: 1.5, SimUser: 40_000_000, SimSys: 8_000_000,
				SimElapsed: 48_121_232, AllPass: true,
				Perf: &kperf.Snapshot{
					Gauges: map[string]int64{"io.cache.hits": 88896},
					Histograms: map[string]kperf.HistogramSnapshot{
						"sys.span.cycles": {Count: 4, Sum: 1000, Min: 100, Max: 400, Mean: 250, P50: 256, P90: 512, P99: 512},
					},
					SubsystemCycles: map[string]int64{"kern": 30_000_000, "mem": 18_121_232},
					TotalCycles:     48_121_232,
				},
				PerfElapsed:  48_121_232,
				PerfIdentity: "ok",
				Flight: &kflight.Summary{Epochs: 3, Ticks: 40, PeakEpochSyscalls: 120,
					Events: map[string]int64{"run_end": 1}},
				Ktrace: &ktrace.Summary{Requests: 10, Spans: 30, Ops: []ktrace.OpSLI{
					testOp("read", 6), testOp("write", 4),
				}},
			},
			{
				Name: "E3", WallSeconds: 0.2, SimUser: 15_000_000, SimSys: 2_000_000,
				SimElapsed: 17_049_620, AllPass: true,
			},
		},
	}
}

// testOp is one ktrace operation's SLI row.
func testOp(op string, n int64) ktrace.OpSLI {
	return ktrace.OpSLI{
		Op: op, Count: n, Sum: 100 * n, Max: 200, P50: 128, P90: 256, P99: 256,
		Buckets:  []int64{0, n - 1, 1},
		Segs:     map[string]int64{"copy": 60 * n, "kernel": 40 * n},
		TailSegs: map[string]int64{"copy": 150, "kernel": 50}, TailCount: 1, TopSeg: "copy",
	}
}

// encode marshals a document the way benchall writes it.
func encode(t *testing.T, r *Repro) []byte {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// diff compares base against cur and returns the report and its
// rendering.
func diff(t *testing.T, base, cur []byte) (*DiffReport, string) {
	t.Helper()
	rep, err := DiffRepro(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	return rep, buf.String()
}

// TestDiffSelfPasses: a document diffed against itself is clean.
func TestDiffSelfPasses(t *testing.T) {
	doc := encode(t, testRepro())
	rep, _ := diff(t, doc, doc)
	if rep.Failed() || len(rep.Diffs) != 0 {
		t.Fatalf("self diff not clean: %+v", rep)
	}
	if rep.Compared == 0 {
		t.Fatal("self diff compared nothing")
	}
}

// TestDiffRegressedCyclesFail: a moved cycle count fails, and the
// report names the leaf with both values.
func TestDiffRegressedCyclesFail(t *testing.T) {
	cur := testRepro()
	cur.Experiments[0].SimElapsed += 12345
	rep, out := diff(t, encode(t, testRepro()), encode(t, cur))
	if !rep.Failed() || len(rep.Diffs) != 1 {
		t.Fatalf("regression not caught: %+v", rep)
	}
	if want := "changed  E1/sim_elapsed_cycles: 48121232 -> 48133577"; !strings.Contains(out, want) {
		t.Errorf("report missing %q:\n%s", want, out)
	}
}

// TestDiffEveryLeafGates: a change to any leaf of an experiment's
// record fails, including fields that only appear once non-zero and
// keys nothing compared by name.
func TestDiffEveryLeafGates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(r *Repro)
		want   string
	}{
		{"cycle total", func(r *Repro) { r.Experiments[0].Perf.TotalCycles++ },
			"changed  E1/kperf/total_cycles: 48121232 -> 48121233"},
		{"ktrace bucket", func(r *Repro) { r.Experiments[0].Ktrace.Ops[1].Buckets[2]++ },
			"changed  E1/ktrace/ops/write/buckets/2: 1 -> 2"},
		{"histogram mean", func(r *Repro) {
			h := r.Experiments[0].Perf.Histograms["sys.span.cycles"]
			h.Mean = 250.5
			r.Experiments[0].Perf.Histograms["sys.span.cycles"] = h
		}, "changed  E1/kperf/histograms/sys.span.cycles/mean: 250 -> 250.5"},
		{"first_violation set", func(r *Repro) { r.Experiments[0].Ktrace.FirstViolation = "req 3" },
			`new      E1/ktrace/first_violation: "req 3"`},
		{"kflight evicted", func(r *Repro) { r.Experiments[0].Flight.Evicted = 1 },
			"new      E1/kflight/evicted: 1"},
		{"events key added", func(r *Repro) { r.Experiments[0].Flight.Events["kill"] = 1 },
			"new      E1/kflight/events/kill: 1"},
		{"experiment missing", func(r *Repro) { r.Experiments = r.Experiments[:1] },
			"missing  E3/sim_elapsed_cycles: 17049620"},
		{"experiment added", func(r *Repro) { r.Experiments = append(r.Experiments, TrialResult{Name: "E99"}) },
			`new      E99/name: "E99"`},
		{"all_pass false", func(r *Repro) { r.Experiments[1].AllPass = false },
			"changed  E3/all_pass: true -> false"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := testRepro()
			tc.mutate(cur)
			rep, out := diff(t, encode(t, testRepro()), encode(t, cur))
			if !rep.Failed() {
				t.Fatalf("mutation passed the gate:\n%s", out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("report missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestDiffOpsKeyedByName: an operation inserted between two others
// reports only its own leaves as new; its neighbours keep their
// paths.
func TestDiffOpsKeyedByName(t *testing.T) {
	cur := testRepro()
	ops := cur.Experiments[0].Ktrace.Ops
	cur.Experiments[0].Ktrace.Ops = []ktrace.OpSLI{ops[0], testOp("stat", 2), ops[1]}
	rep, out := diff(t, encode(t, testRepro()), encode(t, cur))
	if !rep.Failed() {
		t.Fatal("inserted op passed the gate")
	}
	for _, d := range rep.Diffs {
		if d.Base != "" || !strings.HasPrefix(d.Path, "E1/ktrace/ops/stat/") {
			t.Errorf("diff outside the inserted op:\n%s", out)
			break
		}
	}
}

// TestDiffHostTimeIgnored: wall-clock seconds and the header's
// provenance never gate.
func TestDiffHostTimeIgnored(t *testing.T) {
	cur := testRepro()
	cur.GeneratedAt = "2026-09-09T00:00:00Z"
	cur.GitCommit = "def5678"
	cur.WallSeconds = 99
	cur.SerialWallSeconds = 98
	cur.ParallelSpeedup = 1.01
	cur.Notes = []string{"host note"}
	cur.Experiments[0].WallSeconds = 77
	rep, out := diff(t, encode(t, testRepro()), encode(t, cur))
	if rep.Failed() {
		t.Fatalf("host time gated:\n%s", out)
	}
	if self, _ := diff(t, encode(t, cur), encode(t, cur)); rep.Compared != self.Compared {
		t.Errorf("compared %d leaves, want %d", rep.Compared, self.Compared)
	}
}

// TestDiffStructural: vanished summaries and keys, a new error, and a
// field the Go types no longer carry all fail; a document without
// experiments is an error, not a pass.
func TestDiffStructural(t *testing.T) {
	base := encode(t, testRepro())
	for _, tc := range []struct {
		name   string
		mutate func(r *Repro)
		want   string
	}{
		{"kflight summary vanished", func(r *Repro) { r.Experiments[0].Flight = nil },
			"missing  E1/kflight/epochs: 3"},
		{"event key vanished", func(r *Repro) { r.Experiments[0].Flight.Events = map[string]int64{} },
			"missing  E1/kflight/events/run_end: 1"},
		{"experiment errored", func(r *Repro) { r.Experiments[1].Err = "boom" },
			`new      E3/error: "boom"`},
	} {
		cur := testRepro()
		tc.mutate(cur)
		if rep, out := diff(t, base, encode(t, cur)); !rep.Failed() || !strings.Contains(out, tc.want) {
			t.Errorf("%s: report missing %q:\n%s", tc.name, tc.want, out)
		}
	}

	// A leaf only the file on disk carries still counts.
	old := bytes.Replace(base, []byte(`"name": "E3",`), []byte(`"name": "E3", "retired_cycles": 7,`), 1)
	if rep, out := diff(t, old, base); len(rep.Diffs) != 1 || !strings.Contains(out, "missing  E3/retired_cycles: 7") {
		t.Errorf("field dropped from the Go types not reported:\n%s", out)
	}

	for _, bad := range []string{`{"schema": "bench-repro/v1"}`, `{"experiments": [`} {
		if _, err := DiffRepro(base, []byte(bad)); err == nil {
			t.Errorf("DiffRepro accepted %q", bad)
		}
	}
}
