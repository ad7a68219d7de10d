// Command benchall runs the full experiment suite through the
// parallel runner and writes BENCH_repro.json: the wall-clock and
// simulated-cycle trajectory of this checkout, comparable across PRs.
//
// Usage:
//
//	benchall [-workers N] [-full] [-serial-compare] [-no-kperf-gate] [-out BENCH_repro.json]
//
// Each experiment is an independent, deterministic simulated machine,
// so trials fan across GOMAXPROCS without changing a single simulated
// cycle; -serial-compare reruns the suite on one worker to record the
// parallel speedup.
//
// The primary run boots every experiment with kperf instrumentation
// and embeds each experiment's observability snapshot in
// BENCH_repro.json. The kperf gate (on by default) then reruns the
// suite with instrumentation disabled and asserts every experiment's
// simulated user/sys/elapsed cycles are bit-identical both ways —
// the zero-simulated-cost contract of the observability layer.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
)

func main() {
	workers := flag.Int("workers", 0, "worker pool size (0: GOMAXPROCS)")
	full := flag.Bool("full", false, "include the slowest configurations (E1's 100,000-file point)")
	serialCompare := flag.Bool("serial-compare", false, "also run the suite serially and record the parallel speedup")
	noKperfGate := flag.Bool("no-kperf-gate", false, "skip the kperf-off rerun that asserts instrumentation moves no simulated cycle")
	out := flag.String("out", "BENCH_repro.json", "output trajectory file")
	flag.Parse()

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	doc := bench.NewRepro(w)

	trials := bench.Suite(*full, true)
	fmt.Fprintf(os.Stderr, "running %d experiments (kperf on) on %d workers (GOMAXPROCS=%d)...\n",
		len(trials), w, runtime.GOMAXPROCS(0))
	t0 := time.Now()
	results := bench.RunTrials(trials, w)
	doc.WallSeconds = time.Since(t0).Seconds()
	doc.Experiments = results

	failed := false
	for _, r := range results {
		status := "ok"
		switch {
		case r.Err != "":
			status, failed = "ERROR: "+r.Err, true
		case !r.AllPass:
			status, failed = "MISS", true
		}
		if r.Perf != nil && r.PerfIdentity != "ok" {
			status, failed = "KPERF IDENTITY: "+r.PerfIdentity, true
		}
		fmt.Fprintf(os.Stderr, "  %-4s %8.2fs wall  %14d sim cycles  %s\n",
			r.Name, r.WallSeconds, int64(r.SimElapsed), status)
	}

	if !*noKperfGate {
		fmt.Fprintln(os.Stderr, "rerunning with kperf disabled for the zero-cost gate...")
		off := bench.RunTrials(bench.Suite(*full, false), w)
		gateOK := true
		for i, r := range off {
			on := results[i]
			if r.Err != "" || on.Err != "" {
				continue // already reported above
			}
			if r.SimUser != on.SimUser || r.SimSys != on.SimSys || r.SimElapsed != on.SimElapsed {
				fmt.Fprintf(os.Stderr,
					"KPERF COST VIOLATION: %s cycles differ with instrumentation on vs off (on: user %d sys %d elapsed %d; off: user %d sys %d elapsed %d)\n",
					r.Name, int64(on.SimUser), int64(on.SimSys), int64(on.SimElapsed),
					int64(r.SimUser), int64(r.SimSys), int64(r.SimElapsed))
				failed = true
				gateOK = false
			}
		}
		if gateOK {
			doc.Notes = append(doc.Notes,
				"kperf gate: suite rerun with instrumentation disabled; simulated cycles bit-identical")
		}
	}

	if *serialCompare {
		fmt.Fprintln(os.Stderr, "rerunning serially for the speedup baseline...")
		t1 := time.Now()
		serial := bench.RunTrials(trials, 1)
		doc.SerialWallSeconds = time.Since(t1).Seconds()
		for i, r := range serial {
			if r.SimElapsed != results[i].SimElapsed ||
				r.SimUser != results[i].SimUser || r.SimSys != results[i].SimSys {
				fmt.Fprintf(os.Stderr, "DETERMINISM VIOLATION: %s cycles differ between serial and parallel runs\n", r.Name)
				failed = true
			}
		}
		if doc.WallSeconds > 0 {
			doc.ParallelSpeedup = doc.SerialWallSeconds / doc.WallSeconds
		}
		fmt.Fprintf(os.Stderr, "serial %.2fs vs parallel %.2fs -> speedup %.2fx\n",
			doc.SerialWallSeconds, doc.WallSeconds, doc.ParallelSpeedup)
	}

	if runtime.GOMAXPROCS(0) < 2 {
		doc.Notes = append(doc.Notes,
			"host has a single logical CPU: parallel speedup is bounded at ~1x here; rerun on a multi-core host for the fan-out numbers")
	}

	if err := doc.Write(*out); err != nil {
		fmt.Fprintf(os.Stderr, "benchall: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	if failed {
		os.Exit(2)
	}
}
