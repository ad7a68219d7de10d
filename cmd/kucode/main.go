// Command kucode runs the paper's experiments and prints
// paper-versus-measured tables. With -md it emits the Markdown body
// of EXPERIMENTS.md.
//
// Usage:
//
//	kucode [-full] [-md] [-perf] [e1 e2 ... e12 | ablations | all]
//
// -perf boots every experiment with kperf instrumentation and prints
// a per-subsystem cycle-attribution summary under each table; the
// simulated results are bit-identical with or without it.
//
// It is also the kucode-extension tool: -src compiles a minic file
// through the ku_load admission pipeline (kcheck analysis + KGCC
// instrumentation + bytecode compilation) and either writes the
// encoded module (-emit) or boots a system, loads it, and calls the
// entry function (-call). -module loads a pre-compiled artifact, and
// -cachedir keeps artifacts in a content-hash cache directory so a
// program is verified and compiled once across runs:
//
//	kucode -src filt.c -entry filt -emit filt.kmod
//	kucode -module filt.kmod -entry filt -call 13,40
//	kucode -src filt.c -entry filt -cachedir ~/.kucode-cache -call 13,40
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kgcc"
	"repro/internal/minic"
	"repro/internal/sys"
)

func main() {
	full := flag.Bool("full", false, "include the slowest configurations (e.g. E1's 100,000-file point)")
	md := flag.Bool("md", false, "emit Markdown (the EXPERIMENTS.md body)")
	perf := flag.Bool("perf", false, "enable kperf instrumentation and print cycle attribution per experiment")
	srcFile := flag.String("src", "", "extension mode: compile this minic source file through the ku_load pipeline")
	modFile := flag.String("module", "", "extension mode: load this pre-compiled module file")
	entry := flag.String("entry", "main", "extension entry function")
	checks := flag.String("checks", "kcheck", "KGCC check options: full or kcheck (proof-based elision)")
	emit := flag.String("emit", "", "write the compiled module to this file and exit")
	callArgs := flag.String("call", "", "ku_call the entry with these comma-separated integer arguments")
	cacheDir := flag.String("cachedir", "", "content-hash module cache directory: reuse <hash>.kmod when present, write it after a fresh compile")
	flag.Parse()

	if *srcFile != "" || *modFile != "" {
		extTool(*srcFile, *modFile, *entry, *checks, *emit, *callArgs, *cacheDir)
		return
	}

	wanted := flag.Args()
	if len(wanted) == 0 {
		wanted = []string{"all"}
	}
	want := map[string]bool{}
	for _, w := range wanted {
		want[strings.ToLower(w)] = true
	}
	all := want["all"]

	failed := false
	for _, tr := range bench.Suite(*full, *perf) {
		id := strings.ToLower(tr.Name)
		if !all && !want[id] {
			continue
		}
		tbl, err := tr.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		render(tbl, *md)
		if *perf {
			renderPerf(tbl)
		}
		if !tbl.AllPass() {
			failed = true
		}
	}
	if all || want["ablations"] {
		tables, err := bench.Ablations()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ablations: %v\n", err)
			os.Exit(1)
		}
		for _, tbl := range tables {
			render(tbl, *md)
			if !tbl.AllPass() {
				failed = true
			}
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "some rows fell outside their acceptance bands")
		os.Exit(2)
	}
}

// extTool is the extension workflow: build (or load) a module and
// optionally emit it to disk or run it through ku_load/ku_call.
func extTool(srcFile, modFile, entry, checks, emit, callArgs, cacheDir string) {
	var opts kgcc.Options
	switch checks {
	case "full":
		opts = kgcc.FullChecks()
	case "kcheck":
		opts = kgcc.KcheckOptions()
	default:
		fatal(fmt.Errorf("unknown -checks %q (want full or kcheck)", checks))
	}

	spec := sys.KuSpec{Entry: entry, Checks: opts}
	switch {
	case modFile != "":
		b, err := os.ReadFile(modFile)
		if err != nil {
			fatal(err)
		}
		spec.Module = b
	default:
		b, err := os.ReadFile(srcFile)
		if err != nil {
			fatal(err)
		}
		spec.Source = string(b)
	}

	if cacheDir != "" && spec.Module == nil {
		path := filepath.Join(cacheDir, sys.KuSpecKey(spec).String()+".kmod")
		if b, err := os.ReadFile(path); err == nil {
			fmt.Printf("module cache hit: %s\n", path)
			spec = sys.KuSpec{Entry: entry, Checks: opts, Module: b}
		} else {
			mod, err := sys.BuildKuModule(spec)
			if err != nil {
				fatal(err)
			}
			enc := minic.EncodeModule(mod)
			if err := os.MkdirAll(cacheDir, 0o755); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("module cache miss: wrote %s\n", path)
			spec = sys.KuSpec{Entry: entry, Checks: opts, Module: enc}
		}
	}

	if emit != "" {
		var enc []byte
		if spec.Module != nil {
			enc = spec.Module
		} else {
			mod, err := sys.BuildKuModule(spec)
			if err != nil {
				fatal(err)
			}
			enc = minic.EncodeModule(mod)
		}
		if err := os.WriteFile(emit, enc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d bytes, key %s\n", emit, len(enc), minic.HashBytes(enc))
		return
	}

	if callArgs == "" {
		// Dry run: admission only.
		if _, err := sys.BuildKuModule(spec); err != nil {
			fatal(err)
		}
		fmt.Println("module admitted (use -call to execute, -emit to save)")
		return
	}
	var args []int64
	for _, f := range strings.Split(callArgs, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 0, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -call argument %q: %v", f, err))
		}
		args = append(args, v)
	}

	s, err := core.New(core.Options{})
	if err != nil {
		fatal(err)
	}
	var ret int64
	var ext *sys.KuExt
	p := s.Spawn("kucode", func(pr *sys.Proc) error {
		id, err := pr.KuLoad(spec)
		if err != nil {
			return err
		}
		ext, _ = pr.K.KuExt(id)
		ret, err = pr.KuCall(id, args...)
		return err
	})
	if err := s.Run(); err != nil {
		fatal(err)
	}
	if err := p.Err(); err != nil {
		fatal(err)
	}
	fmt.Printf("%s(%s) = %d\n", entry, callArgs, ret)
	fmt.Printf("load: %d insns, cache hit %v; checks inserted %d (elided %d stack, %d cse, %d proven); call: %d cycles, %d checks run\n",
		ext.Insns, ext.CacheHit, ext.Stats.Inserted,
		ext.Stats.ElidedStack, ext.Stats.ElidedCSE, ext.Stats.ElidedProven,
		ext.Cycles, ext.ChecksRun())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kucode:", err)
	os.Exit(1)
}

func render(t *bench.Table, md bool) {
	if md {
		fmt.Print(t.Markdown())
		return
	}
	fmt.Println(t.String())
}

// renderPerf prints the experiment's cycle attribution by subsystem
// and the accounting identity (attributed+setup+idle == elapsed).
func renderPerf(t *bench.Table) {
	if t.Perf == nil {
		return
	}
	sn := t.Perf
	subs := make([]string, 0, len(sn.SubsystemCycles))
	for s := range sn.SubsystemCycles {
		subs = append(subs, s)
	}
	sort.Slice(subs, func(i, j int) bool {
		return sn.SubsystemCycles[subs[i]] > sn.SubsystemCycles[subs[j]]
	})
	fmt.Printf("  kperf: %d cycles attributed (setup %d, idle %d), %d trace records (%d dropped)\n",
		sn.TotalCycles-sn.SetupCycles-sn.IdleCycles, sn.SetupCycles, sn.IdleCycles,
		sn.TraceRecords, sn.TraceDrops)
	for _, s := range subs {
		c := sn.SubsystemCycles[s]
		fmt.Printf("    %-10s %14d cycles (%.1f%%)\n", s, c, 100*float64(c)/float64(sn.TotalCycles))
	}
	if err := sn.CheckTotal(t.PerfElapsed); err != nil {
		fmt.Printf("  kperf identity VIOLATION: %v\n", err)
	} else {
		fmt.Printf("  kperf identity ok: %d cycles == machines' elapsed total\n", sn.TotalCycles)
	}
	fmt.Println()
}
