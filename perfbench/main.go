// Command perfbench is the repository's host-time benchmark. It boots
// simulated machines through the public API (core.New, sys.Proc, the
// workload functions, kext.Engine, KuLoad and ProbeAttach), runs one
// named workload for a fixed number of rounds, checks every round's
// outputs, and prints one JSON result line.
//
// Usage:
//
//	perfbench --workload <postmark|dbscan-ext> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics, measured
// with the benchmark's spans off. With --trace 1 it holds the
// per-layer ledger; spans are written to
// .perfbench_build/spans-<workload>-<seed>.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed the benchmark is tuned on; heldOutSeed is
// kept for checking claims on inputs not used while writing them.
const (
	defaultSeed = 42
	heldOutSeed = 7
)

// workloadSpec is one named workload: round runs one booted machine;
// twin, when set, runs the same operations through the other
// submission path, whose stats must match. rounds is the number of
// timed rounds. The traced run's layer suite runs the ablation
// configurations named in ablations, and the probe cost pair when
// probeCost is set: each workload's ledger holds its own figures.
type workloadSpec struct {
	round     func(seed uint64, sz sizes, tr *tracer) (round, error)
	twin      func(seed uint64, sz sizes) (round, error)
	rounds    func(sz sizes) int
	ablations []string
	probeCost bool
}

var workloads = map[string]workloadSpec{
	"postmark": {
		round: func(seed uint64, sz sizes, tr *tracer) (round, error) {
			return postmarkRound(pmConfig(seed, sz.pmTxns, sz.pmFiles), allObservers, false, tr)
		},
		twin: func(seed uint64, sz sizes) (round, error) {
			return postmarkRound(pmConfig(seed, sz.pmTxns, sz.pmFiles), observers{}, true, nil)
		},
		rounds:    func(sz sizes) int { return sz.pmRounds },
		ablations: []string{"none", "kperf", "kperf_kflight", "kperf_ktrace", "all", "all_recorder", "ring64"},
	},
	"dbscan-ext": {
		round: func(seed uint64, sz sizes, tr *tracer) (round, error) {
			return dbscanRound(seed, dbTable(seed, sz.dbRecords), sz.dbLookups, sz.dbPasses, tr)
		},
		rounds:    func(sz sizes) int { return sz.dbRounds },
		probeCost: true,
	},
}

type params struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	sz       sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errs    []string
	tracers []*tracer
}

func (res *result) set(name string, value float64, unit string) {
	res.Metrics[name] = metric{Value: value, Unit: unit}
}

// add folds one round's correctness into the result.
func (res *result) add(r round) {
	res.Attempted += r.attempted
	if r.wholeFail {
		res.Failed += r.attempted
	} else {
		res.Failed += r.failed
	}
	res.errs = append(res.errs, r.errs...)
}

func run(p params) (*result, error) {
	w, ok := workloads[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	res := &result{Metrics: map[string]metric{}}
	if p.trace {
		return res, tracedRun(w, p, res)
	}
	rounds, err := timedRounds(w, p, false, res)
	if err != nil {
		return nil, err
	}
	if w.twin != nil {
		t, err := w.twin(p.seed, p.sz)
		if err != nil {
			return nil, err
		}
		if t.out.pm != rounds[0].out.pm {
			res.errs = append(res.errs, fmt.Sprintf("trap and ring PostMark stats differ: %+v vs %+v", rounds[0].out.pm, t.out.pm))
			res.Failed = res.Attempted
		}
	}
	res.Correct = res.Failed == 0 && len(res.errs) == 0

	var setup, alloc []float64
	for _, r := range rounds[1:] {
		setup = append(setup, r.setup.Seconds())
		alloc = append(alloc, float64(r.allocBytes)/(1<<20))
	}
	out := rounds[0].out
	res.set("ops_per_s", float64(rounds[0].ops)/meanMeasured(rounds[1:]).Seconds(), "1/s")
	res.set("setup_s", median(setup), "s")
	res.set("alloc_mb", median(alloc), "MB")
	res.set("sim_elapsed_ms", out.simElapsed.Seconds()*1e3, "ms")
	res.set("sim_sys_ms", out.simSys.Seconds()*1e3, "ms")
	return res, nil
}

// timedRounds runs round 0, which warms the heap and caches and is
// checked but not timed, then the workload's fixed number of timed
// rounds, and checks that every round simulated exactly what round 0
// did. Every commit times the same rounds; the budget only cuts the
// run short, after at least two timed rounds, if a round is far slower
// than the sizes assume. With traced set, odd rounds are traced and
// even ones untimed, in pairs, so drift hits both alike.
func timedRounds(w workloadSpec, p params, traced bool, res *result) ([]round, error) {
	var rounds []round
	n := 1 + w.rounds(p.sz)
	if traced {
		n = 1 + 2*max(1, w.rounds(p.sz)/2)
	}
	deadline := time.Now().Add(p.budget * 3 / 2)
	for len(rounds) < n && (len(rounds) < 3 || time.Now().Before(deadline)) || (traced && len(rounds)%2 == 0) {
		var tr *tracer
		if traced && len(rounds)%2 == 1 {
			tr = newTracer()
			res.tracers = append(res.tracers, tr)
		}
		runtime.GC()
		r, err := w.round(p.seed, p.sz, tr)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", p.workload, len(rounds), err)
		}
		if len(rounds) > 0 && r.out != rounds[0].out {
			r.failAll("round %d (traced %v) simulated a different run than round 0", len(rounds), tr != nil)
		}
		res.add(r)
		rounds = append(rounds, r)
		fmt.Fprintf(os.Stderr, "perfbench: round %d traced=%v setup %.4fs measured %.4fs (wall %.4fs) %.0f ops/s\n",
			len(rounds)-1, tr != nil, r.setup.Seconds(), r.measured.Seconds(), r.wall.Seconds(), float64(r.ops)/r.measured.Seconds())
	}
	return rounds, nil
}

func main() {
	name := flag.String("workload", "postmark", "workload: postmark or dbscan-ext")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "host seconds the timed rounds are sized for; a run ends by 1.5x this")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer ledger")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%d go=%s GOMAXPROCS=%d NumCPU=%d\n",
		*name, *seed, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	p := params{workload: *name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, sz: fullSizes}
	res, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	if p.trace {
		if err := writeSpans(res, p); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// writeSpans writes the first traced round's spans and the per-name
// summary over every traced round.
func writeSpans(res *result, p params) error {
	path := filepath.Join(".perfbench_build", fmt.Sprintf("spans-%s-%d.json", p.workload, p.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{summarize(res.tracers), res.tracers[0].spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// meanMeasured is the mean measured-phase CPU time of whole rounds.
// Every round does the same operations, so operations over it is the
// run's total operations over its total measured time. The host is
// shared and its speed switches between about two levels, 1.5x apart,
// for spells of seconds to minutes; the mean moves in proportion to the
// share of time spent at each, where a median or quantile jumps between
// them.
func meanMeasured(rounds []round) time.Duration {
	var total time.Duration
	for _, r := range rounds {
		total += r.measured
	}
	return total / time.Duration(len(rounds))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
