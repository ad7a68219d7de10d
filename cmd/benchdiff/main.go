// Command benchdiff compares two BENCH_repro.json documents
// metric-by-metric and exits nonzero on regressions, turning the
// bench trajectory into an enforced CI gate.
//
//	benchdiff [flags] BASE CURRENT
//
// BASE and CURRENT are BENCH_repro.json paths; a directory means the
// BENCH_repro.json inside it. Only deterministic simulated metrics
// gate (cycle counts, kperf gauges/histograms, kflight
// summaries); volatile fields — timestamps, wall-clock seconds, host
// provenance, micro-benchmark ns/op — are ignored unless -volatile.
//
// Exit codes: 0 no regressions, 1 regressions found, 2 usage or I/O
// error.
//
// Flags:
//
//	-rel F         global relative tolerance (default 0: bit-identical)
//	-tol P=F       per-path-prefix tolerance, repeatable
//	               (e.g. -tol E2/kflight=0.01)
//	-volatile      also report volatile-metric changes (informational)
//	-v             list non-regression diffs too
//	-json          emit the report as JSON instead of text
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// tolFlags collects repeated -tol prefix=rel pairs.
type tolFlags map[string]float64

func (t tolFlags) String() string { return fmt.Sprint(map[string]float64(t)) }

func (t tolFlags) Set(s string) error {
	prefix, val, ok := strings.Cut(s, "=")
	if !ok || prefix == "" {
		return fmt.Errorf("want prefix=reltol, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || f < 0 {
		return fmt.Errorf("bad tolerance in %q", s)
	}
	t[prefix] = f
	return nil
}

func main() {
	rel := flag.Float64("rel", 0, "global relative tolerance for deterministic metrics")
	tols := tolFlags{}
	flag.Var(tols, "tol", "per-path-prefix tolerance, prefix=reltol (repeatable)")
	volatile := flag.Bool("volatile", false, "also report volatile-metric changes")
	verbose := flag.Bool("v", false, "list non-regression diffs too")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] BASE CURRENT")
		flag.PrintDefaults()
		os.Exit(2)
	}

	base, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	rep := bench.DiffRepro(base, cur, bench.DiffOptions{
		RelTol:          *rel,
		PrefixTol:       tols,
		IncludeVolatile: *volatile,
	})
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		rep.Format(os.Stdout, *verbose || *volatile)
	}
	if rep.Failed() {
		os.Exit(1)
	}
}

// load reads a repro document; a directory selects its
// BENCH_repro.json.
func load(path string) (*bench.Repro, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, "BENCH_repro.json")
	}
	return bench.ReadRepro(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
