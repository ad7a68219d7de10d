// Command benchdiff compares two BENCH_repro.json documents leaf by
// leaf and exits nonzero when any differs, turning the bench
// trajectory into an enforced CI gate.
//
//	benchdiff BASE CURRENT
//
// BASE and CURRENT are BENCH_repro.json paths; a directory means the
// BENCH_repro.json inside it. Every number, string and bool in every
// experiment's record must match exactly; a leaf that changed, went
// missing or is new fails. Only host time is exempt: the document
// header and each experiment's wall_seconds.
//
// Exit codes: 0 every leaf matches, 1 some leaf differs, 2 usage or
// I/O error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
)

func main() {
	flag.Usage = func() { fmt.Fprintln(os.Stderr, "usage: benchdiff BASE CURRENT") }
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
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
	rep, err := bench.DiffRepro(base, cur)
	if err != nil {
		fatal(err)
	}
	rep.Format(os.Stdout)
	if rep.Failed() {
		os.Exit(1)
	}
}

// load reads a repro document; a directory selects its
// BENCH_repro.json.
func load(path string) ([]byte, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, "BENCH_repro.json")
	}
	return os.ReadFile(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
