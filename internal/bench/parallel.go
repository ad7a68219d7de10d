package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/kflight"
	"repro/internal/kperf"
	"repro/internal/ktrace"
	"repro/internal/sim"
)

// The parallel experiment runner. Every experiment trial boots its
// own core.System — a shared-nothing, deterministic machine — so the
// whole E1-E12 suite fans out across host cores with no effect on any
// simulated cycle count. The simulated machines do not know they ran
// concurrently; only the wall clock does.

// Trial is one independent, deterministic unit of work: it builds its
// own system(s) internally and must not share mutable state with any
// other trial.
type Trial struct {
	Name string
	Run  func() (*Table, error)
}

// TrialResult is the outcome of one trial, as recorded in
// BENCH_repro.json.
type TrialResult struct {
	Name        string     `json:"name"`
	WallSeconds float64    `json:"wall_seconds"`
	SimUser     sim.Cycles `json:"sim_user_cycles"`
	SimSys      sim.Cycles `json:"sim_sys_cycles"`
	SimElapsed  sim.Cycles `json:"sim_elapsed_cycles"`
	AllPass     bool       `json:"all_pass"`
	Err         string     `json:"error,omitempty"`

	// Perf is the experiment's merged kperf snapshot (nil when the
	// trial ran with instrumentation off). PerfIdentity records the
	// attribution identity check — "ok" when the snapshot's cycle
	// total equals the booted machines' elapsed cycles, otherwise the
	// violation. PerfElapsed is that elapsed total.
	Perf         *kperf.Snapshot `json:"kperf,omitempty"`
	PerfElapsed  sim.Cycles      `json:"kperf_elapsed_cycles,omitempty"`
	PerfIdentity string          `json:"kperf_identity,omitempty"`

	// Flight is the experiment's merged flight-recorder summary (nil
	// when the trial ran with instrumentation off).
	Flight *kflight.Summary `json:"kflight,omitempty"`

	// Ktrace is the experiment's merged request-trace summary (nil
	// when the trial ran with instrumentation off): per-operation
	// latency SLIs and critical-path decompositions.
	Ktrace *ktrace.Summary `json:"ktrace,omitempty"`

	// Table carries the full result for rendering; not serialized.
	Table *Table `json:"-"`
}

// RunTrials fans trials across a worker pool and returns results in
// trial order. workers <= 0 selects GOMAXPROCS. With workers == 1 the
// trials run strictly sequentially on one goroutine, which is the
// serial baseline the determinism regression compares against.
func RunTrials(trials []Trial, workers int) []TrialResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(trials) {
		workers = len(trials)
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]TrialResult, len(trials))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runTrial(trials[i])
			}
		}()
	}
	for i := range trials {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

func runTrial(tr Trial) TrialResult {
	t0 := time.Now() //klint:allow determinism WallSeconds is a volatile host-time metric by contract, excluded from bit-identical comparison
	tbl, err := tr.Run()
	//klint:allow determinism WallSeconds is a volatile host-time metric by contract, excluded from bit-identical comparison
	res := TrialResult{Name: tr.Name, WallSeconds: time.Since(t0).Seconds()}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Table = tbl
	res.SimUser = tbl.SimUser
	res.SimSys = tbl.SimSys
	res.SimElapsed = tbl.SimElapsed
	res.AllPass = tbl.AllPass()
	if tbl.Perf != nil {
		res.Perf = tbl.Perf
		res.PerfElapsed = tbl.PerfElapsed
		if err := tbl.Perf.CheckTotal(tbl.PerfElapsed); err != nil {
			res.PerfIdentity = err.Error()
		} else {
			res.PerfIdentity = "ok"
		}
	}
	res.Flight = tbl.Flight
	res.Ktrace = tbl.Ktrace
	return res
}

// Suite returns the experiment list, one trial per experiment:
// benchall, cmd/kucode and the root BenchmarkExperiments all iterate
// it. perf boots every experiment's systems with kperf
// instrumentation; E8 is static analysis (no machine), so the flag
// does not apply to it.
func Suite(full, perf bool) []Trial {
	return []Trial{
		{Name: "E1", Run: func() (*Table, error) { return E1(full, perf) }},
		{Name: "E2", Run: func() (*Table, error) { return E2(perf) }},
		{Name: "E3", Run: func() (*Table, error) { return E3(perf) }},
		{Name: "E4", Run: func() (*Table, error) { return E4(perf) }},
		{Name: "E5", Run: func() (*Table, error) { return E5(perf) }},
		{Name: "E6", Run: func() (*Table, error) { return E6(perf) }},
		{Name: "E7", Run: func() (*Table, error) { return E7(perf) }},
		{Name: "E8", Run: E8},
		{Name: "E9", Run: func() (*Table, error) { return E9(perf) }},
		{Name: "E10", Run: func() (*Table, error) { return E10(perf) }},
		{Name: "E11", Run: func() (*Table, error) { return E11(perf) }},
		{Name: "E12", Run: func() (*Table, error) { return E12(perf) }},
	}
}

// Repro is the BENCH_repro.json document: the simulated-cycle record
// of one full benchmark run, which benchdiff asserts never moves, plus
// the run's host time and provenance.
type Repro struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	// Host provenance: which code, toolchain, and CPU produced this
	// document. Like the rest of the header, benchdiff never reads
	// them.
	GitCommit         string        `json:"git_commit,omitempty"`
	GoVersion         string        `json:"go_version,omitempty"`
	CPUModel          string        `json:"cpu_model,omitempty"`
	GoMaxProcs        int           `json:"gomaxprocs"`
	Workers           int           `json:"workers"`
	WallSeconds       float64       `json:"wall_seconds_total"`
	SerialWallSeconds float64       `json:"serial_wall_seconds,omitempty"`
	ParallelSpeedup   float64       `json:"parallel_speedup,omitempty"`
	Experiments       []TrialResult `json:"experiments"`
	Notes             []string      `json:"notes,omitempty"`
}

// NewRepro stamps a document header for the current host.
func NewRepro(workers int) *Repro {
	return &Repro{
		Schema: "bench-repro/v1",
		//klint:allow determinism the repro header records when the run happened; benchdiff ignores header fields
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GitCommit:   gitCommit(),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Workers:     workers,
	}
}

// gitCommit reports the working tree's short commit hash, best-effort
// (empty outside a git checkout or without git on PATH).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reports the host CPU model, best-effort (Linux
// /proc/cpuinfo; empty elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// Write serializes the document to path.
func (r *Repro) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal repro: %w", err)
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
