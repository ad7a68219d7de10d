// Command ktap attaches a user-written probe program at a kernel
// tracepoint, runs a workload, and prints the in-kernel aggregation
// maps — the simulated kernel's answer to bpftrace one-liners.
//
// The default program histograms syscall latency and counts calls per
// (pid, syscall):
//
//	ktap -tx 500
//	ktap -t syscall_exit -f myprobe.mc -m lat:hist,calls:hash -json
//	ktap -list
//
// The probe source is minic; it may only call the helper ABI
// (ctx_pid, ctx_nr, ctx_arg, ctx_cycles, now, map_add, map_hist) and
// must pass the static verifier — try a while loop and watch it get
// rejected before it ever attaches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/kprobe"
	"repro/internal/sys"
	"repro/internal/workload"
)

// defaultSrc is the worked example from the README: per-(pid,syscall)
// latency histogram plus call counter, keyed pid*256+nr.
const defaultSrc = `
int probe() {
	int k;
	k = ctx_pid() * 256 + ctx_nr();
	map_hist(0, k, ctx_cycles());
	map_add(1, k, 1);
	return 0;
}
`

func main() {
	tp := flag.String("t", "syscall_exit", "tracepoint to attach at")
	src := flag.String("e", "", "probe program source (default: per-syscall latency histogram)")
	srcFile := flag.String("f", "", "read probe program source from file")
	entry := flag.String("entry", "probe", "entry function name")
	mapsFlag := flag.String("m", "lat:hist,calls:hash", "map declarations, name:kind comma-separated")
	wl := flag.String("workload", "postmark", "workload to probe: postmark or dirsweep")
	tx := flag.Int("tx", 500, "PostMark transactions")
	files := flag.Int("files", 200, "dirsweep files")
	decode := flag.String("decode", "pidnr", "render map keys as pid:syscall (pidnr) or raw integers (raw)")
	jsonOut := flag.Bool("json", false, "emit JSON instead of text")
	list := flag.Bool("list", false, "list tracepoints, map kinds, and helpers, then exit")
	flag.Parse()

	if *list {
		fmt.Println("tracepoints:", strings.Join(kprobe.Tracepoints(), " "))
		fmt.Println("map kinds:   hash (map_add) hist (map_hist)")
		fmt.Println("helpers:     ctx_pid() ctx_nr() ctx_arg() ctx_cycles() now() map_add(id,key,delta) map_hist(id,key,value)")
		return
	}

	tracepoint, err := kprobe.ParseTracepoint(*tp)
	if err != nil {
		fatal(err)
	}
	program := defaultSrc
	if *src != "" {
		program = *src
	}
	if *srcFile != "" {
		b, err := os.ReadFile(*srcFile)
		if err != nil {
			fatal(err)
		}
		program = string(b)
	}
	var maps []kprobe.MapSpec
	if *mapsFlag != "" {
		for _, d := range strings.Split(*mapsFlag, ",") {
			name, kindName, ok := strings.Cut(d, ":")
			if !ok {
				fatal(fmt.Errorf("map declaration %q is not name:kind", d))
			}
			kind, err := kprobe.ParseMapKind(kindName)
			if err != nil {
				fatal(err)
			}
			maps = append(maps, kprobe.MapSpec{Name: name, Kind: kind})
		}
	}

	spec := kprobe.Spec{Tracepoint: tracepoint, Source: program, Entry: *entry, Maps: maps}

	s, err := core.New(core.Options{CacheBlocks: 1024})
	if err != nil {
		fatal(err)
	}
	var done atomic.Bool
	var snaps []kprobe.MapSnapshot
	var readBytes int
	var attachErr error

	// The controller attaches before the workload's first syscall
	// (spawn order is run order), idles while the workload runs, then
	// pulls the whole summary back in one probe_read.
	ctl := s.Spawn("ktap", func(pr *sys.Proc) error {
		id, err := pr.ProbeAttach(spec)
		if err != nil {
			attachErr = err
			done.Store(true)
			return nil
		}
		for !done.Load() {
			pr.P.BlockFor(s.M.Costs.TimeSlice)
		}
		buf, err := pr.Mmap(1 << 20)
		if err != nil {
			return err
		}
		n, err := pr.ProbeRead(id, buf)
		if err != nil {
			return err
		}
		readBytes = n
		raw, err := pr.Peek(buf, n)
		if err != nil {
			return err
		}
		snaps, err = kprobe.DecodeSnapshot(raw)
		return err
	})

	work := s.Spawn(*wl, func(pr *sys.Proc) error {
		defer done.Store(true)
		switch *wl {
		case "postmark":
			cfg := workload.DefaultPostMark()
			cfg.Transactions = *tx
			_, err := workload.PostMark(pr, cfg)
			return err
		case "dirsweep":
			cfg := workload.DefaultDirSweep(*files)
			if err := workload.DirSweepSetup(pr, cfg); err != nil {
				return err
			}
			_, err := workload.ReaddirStat(pr, cfg)
			return err
		default:
			return fmt.Errorf("unknown workload %q (want postmark or dirsweep)", *wl)
		}
	})

	if err := s.Run(); err != nil {
		fatal(err)
	}
	if attachErr != nil {
		fatal(attachErr)
	}
	for _, p := range []interface{ Err() error }{ctl, work} {
		if err := p.Err(); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		emitJSON(s, readBytes, snaps, *decode)
		return
	}
	fmt.Printf("probe at %s: fired %d, %d map ops, %d skipped, %d probe cycles; summary %d bytes in one probe_read\n",
		tracepoint, s.Probes.Fired, s.Probes.MapOps, s.Probes.Skipped, s.Probes.Cycles, readBytes)
	for _, m := range snaps {
		fmt.Printf("\n%s (%s):\n", m.Name, m.Kind)
		switch m.Kind {
		case kprobe.MapHash:
			for _, k := range sortedKeys(m.Hash) {
				fmt.Printf("  %-24s %12d\n", keyName(k, *decode), m.Hash[k])
			}
		case kprobe.MapHist:
			fmt.Printf("  %-24s %8s %10s %10s %10s %10s\n", "key", "count", "mean", "p50", "p99", "max")
			for _, k := range sortedHistKeys(m.Hist) {
				e := m.Hist[k]
				fmt.Printf("  %-24s %8d %10.0f %10d %10d %10d\n",
					keyName(k, *decode), e.Count, e.Mean(), e.Quantile(0.5), e.Quantile(0.99), e.Max)
			}
		}
	}
}

// keyName renders a map key, decoding the pid*256+nr convention the
// default program uses.
func keyName(k uint64, decode string) string {
	if decode == "pidnr" {
		nr := int(k & 255)
		if nr < sys.Count() {
			return fmt.Sprintf("pid%d:%s", k>>8, sys.Nr(nr))
		}
	}
	return fmt.Sprintf("%d", k)
}

func sortedKeys(m map[uint64]int64) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sortedHistKeys(m map[uint64]kprobe.HistEntry) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func emitJSON(s *core.System, readBytes int, snaps []kprobe.MapSnapshot, decode string) {
	type histRow struct {
		Count int64   `json:"count"`
		Mean  float64 `json:"mean"`
		P50   int64   `json:"p50"`
		P99   int64   `json:"p99"`
		Min   int64   `json:"min"`
		Max   int64   `json:"max"`
	}
	type mapOut struct {
		Name string             `json:"name"`
		Kind string             `json:"kind"`
		Hash map[string]int64   `json:"hash,omitempty"`
		Hist map[string]histRow `json:"hist,omitempty"`
	}
	out := struct {
		Fired       int64    `json:"fired"`
		MapOps      int64    `json:"map_ops"`
		Skipped     int64    `json:"skipped"`
		ProbeCycles int64    `json:"probe_cycles"`
		ReadBytes   int      `json:"read_bytes"`
		Maps        []mapOut `json:"maps"`
	}{
		Fired: s.Probes.Fired, MapOps: s.Probes.MapOps, Skipped: s.Probes.Skipped,
		ProbeCycles: int64(s.Probes.Cycles), ReadBytes: readBytes,
	}
	for _, m := range snaps {
		mo := mapOut{Name: m.Name, Kind: m.Kind.String()}
		if m.Hash != nil {
			mo.Hash = make(map[string]int64, len(m.Hash))
			for k, v := range m.Hash {
				mo.Hash[keyName(k, decode)] = v
			}
		}
		if m.Hist != nil {
			mo.Hist = make(map[string]histRow, len(m.Hist))
			for k, e := range m.Hist {
				mo.Hist[keyName(k, decode)] = histRow{
					Count: e.Count, Mean: e.Mean(),
					P50: e.Quantile(0.5), P99: e.Quantile(0.99),
					Min: e.Min, Max: e.Max,
				}
			}
		}
		out.Maps = append(out.Maps, mo)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ktap:", err)
	os.Exit(1)
}
