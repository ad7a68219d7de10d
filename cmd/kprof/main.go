// Command kprof boots a kperf-instrumented system, drives one
// workload to completion, and exports the observability data three
// ways: a text summary of cycle attribution (per subsystem, per
// syscall, per process), a Chrome trace_event JSON timeline loadable
// in chrome://tracing or Perfetto, and a folded-stack profile
// consumable by flamegraph.pl or speedscope.
//
// Usage:
//
//	kprof [-workload postmark|compile|interactive|dbscan|monitor]
//	      [-trace FILE.json] [-folded FILE.folded] [-records N] [-top N]
//	      [-proc NAME] [-subsystem NAME] [-req ID] [-logs]
//	      [-flight-epoch CYCLES] [-flight-out FILE.json]
//
// The kflight flight recorder always rides along (it is host-side
// only and moves no simulated cycle): -trace exports include its
// epoch series as Chrome counter tracks (syscall rate, TLB hit ratio,
// per-subsystem cycles) rendered as rows above the span timeline, and
// -flight-out writes the full kflight record — epochs plus postmortem
// dumps — which cmd/ktop replays as a terminal dashboard.
// -flight-epoch overrides the sampling epoch in simulated cycles.
//
// -proc and -subsystem restrict the exported timeline and folded
// stacks to one process (by name or name-pid) and/or one subsystem
// (e.g. disk, probe, kmon), so a flamegraph of just the probe
// overhead or just one process's disk waits is a single flag away.
// The text summary always covers the whole machine.
//
// The ktrace request tracer also always rides along: -trace exports
// include the span graph (requests, nested ops, syscalls, waits) as
// Chrome flow events so Perfetto draws parent/child arrows, -req
// restricts those spans — and -logs output — to one request id, and
// -logs prints the kernel log with each line's owning request, the
// request-scoped view of dmesg.
//
// The "monitor" workload reproduces E6's shape — PostMark with the
// dcache lock instrumented plus a user-space logger process — and is
// the most interesting timeline: two processes interleaving on one
// simulated CPU with disk-wait spans on both.
//
// kprof always verifies the attribution identity before exporting:
// every simulated cycle between boot and completion must be
// attributed to exactly one (process, mode, subsystem, syscall) cell
// (plus the machine's setup and idle sinks), so the folded-stack
// lines sum exactly to the machine's elapsed cycles. A mismatch is a
// bug in the instrumentation and exits nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kflight"
	"repro/internal/kperf"
	"repro/internal/ktrace"
	"repro/internal/sim"
)

func main() {
	name := flag.String("workload", "postmark", "workload: "+bench.WorkloadNames())
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file")
	foldedOut := flag.String("folded", "", "write a folded-stack cycle profile to this file")
	records := flag.Int("records", 0, "per-process trace shard capacity in records (0: 65536)")
	top := flag.Int("top", 12, "rows per summary section")
	proc := flag.String("proc", "", "restrict trace/folded exports to this process (name or name-pid)")
	subsystem := flag.String("subsystem", "", "restrict trace/folded exports to this subsystem")
	flightEpoch := flag.Int64("flight-epoch", 0, "kflight sampling epoch in simulated cycles (0: default)")
	flightOut := flag.String("flight-out", "", "write the kflight record (epochs + postmortems) to this file for ktop")
	req := flag.Uint64("req", 0, "restrict flow spans and -logs output to this ktrace request id (0: all)")
	logs := flag.Bool("logs", false, "print the kernel log (each line with its owning request id)")
	flag.Parse()
	filter := kperf.TraceFilter{Proc: *proc, Subsystem: *subsystem}

	s, err := run(*name, *records, sim.Cycles(*flightEpoch))
	if err != nil {
		fmt.Fprintf(os.Stderr, "kprof: %v\n", err)
		os.Exit(1)
	}

	sn := s.Perf.Snapshot()
	if err := sn.CheckTotal(s.M.Elapsed()); err != nil {
		fmt.Fprintf(os.Stderr, "kprof: attribution identity violated: %v\n", err)
		os.Exit(2)
	}

	summarize(os.Stdout, *name, sn, *top)
	tsum := s.Ktrace.Summary()
	summarizeTrace(os.Stdout, tsum, *top)
	rec := s.Flight.Record()
	if b, err := json.Marshal(tsum); err == nil {
		rec.Ktrace = b // ride along so ktop -in replays the SLI panel
	}
	fmt.Printf("kflight: %d epochs closed (%d retained), %d postmortems\n",
		rec.Summary.Epochs, len(rec.Epochs), len(rec.Postmortems))

	if *logs {
		printLogs(os.Stdout, s, *req)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kprof: %v\n", err)
			os.Exit(1)
		}
		if err := s.Perf.WriteChromeTrace(f, filter, rec.CounterTracks(), s.Ktrace.FlowSpans(*req)); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "kprof: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}
	if *flightOut != "" {
		f, err := os.Create(*flightOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kprof: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(rec); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "kprof: write flight record: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (replay with: ktop -in %s)\n", *flightOut, *flightOut)
	}
	if *foldedOut != "" {
		if err := os.WriteFile(*foldedOut, []byte(sn.FoldedStacks(filter)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "kprof: write folded: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (flamegraph.pl %s > flame.svg, or open in speedscope)\n",
			*foldedOut, *foldedOut)
	}
}

// run boots an instrumented system (perf + flight recorder + request
// tracer) and drives the named workload to completion via the shared
// registry in internal/bench.
func run(name string, records int, flightEpoch sim.Cycles) (*core.System, error) {
	return bench.RunWorkload(name, core.Options{
		Perf:   core.NewPerf(records),
		Flight: &kflight.Config{EpochCycles: flightEpoch},
		Trace:  &ktrace.Config{},
	})
}

// summarize renders the attribution snapshot as text.
func summarize(w *os.File, name string, sn *kperf.Snapshot, top int) {
	fmt.Fprintf(w, "kprof: workload %q, %d simulated cycles (%d setup, %d idle)\n",
		name, sn.TotalCycles, sn.SetupCycles, sn.IdleCycles)
	fmt.Fprintf(w, "trace: %d records captured, %d dropped\n\n", sn.TraceRecords, sn.TraceDrops)

	fmt.Fprintln(w, "cycles by subsystem:")
	for _, kv := range sortedDesc(sn.SubsystemCycles, top) {
		fmt.Fprintf(w, "  %-10s %14d  %5.1f%%\n", kv.k, kv.v, 100*float64(kv.v)/float64(sn.TotalCycles))
	}

	bySys := map[string]int64{}
	byProc := map[string]int64{}
	for _, row := range sn.Attribution {
		if row.Syscall != "-" {
			bySys[row.Syscall] += row.Cycles
		}
		byProc[row.Process] += row.Cycles
	}
	fmt.Fprintln(w, "\ncycles by syscall (kernel work attributed to the call that caused it):")
	for _, kv := range sortedDesc(bySys, top) {
		fmt.Fprintf(w, "  %-12s %14d  %5.1f%%\n", kv.k, kv.v, 100*float64(kv.v)/float64(sn.TotalCycles))
	}
	fmt.Fprintln(w, "\ncycles by process:")
	for _, kv := range sortedDesc(byProc, top) {
		fmt.Fprintf(w, "  %-14s %14d  %5.1f%%\n", kv.k, kv.v, 100*float64(kv.v)/float64(sn.TotalCycles))
	}

	if len(sn.Histograms) > 0 {
		fmt.Fprintln(w, "\nlatency histograms (cycles):")
		names := make([]string, 0, len(sn.Histograms))
		for n := range sn.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h := sn.Histograms[n]
			fmt.Fprintf(w, "  %-20s n=%-8d mean=%-10.0f p50<=%-8d p99<=%-10d max=%d\n",
				n, h.Count, h.Mean, h.P50, h.P99, h.Max)
		}
	}

	fmt.Fprintf(w, "\nattribution identity ok: folded-stack lines sum to %d == machine elapsed\n", sn.TotalCycles)
}

// summarizeTrace renders the request tracer's latency SLIs: per
// operation, the count, the quantiles, and which critical-path segment
// dominates the p99 tail.
func summarizeTrace(w *os.File, sum *ktrace.Summary, top int) {
	fmt.Fprintf(w, "\nktrace: %d requests (%d spans", sum.Requests, sum.Spans)
	if sum.ReqDrops+sum.SpanDrops > 0 {
		fmt.Fprintf(w, ", %d req + %d span drops", sum.ReqDrops, sum.SpanDrops)
	}
	fmt.Fprintln(w, ")")
	if sum.IdentityViolations > 0 {
		fmt.Fprintf(w, "  WARNING: %d decomposition identity violations; first: %s\n",
			sum.IdentityViolations, sum.FirstViolation)
	}
	if len(sum.Ops) == 0 {
		fmt.Fprintln(w, "  (no traced operations — workload not instrumented)")
		return
	}
	fmt.Fprintln(w, "request latency by operation (cycles):")
	ops := sum.Ops
	if len(ops) > top {
		ops = ops[:top]
	}
	for i := range ops {
		o := &ops[i]
		fmt.Fprintf(w, "  %-20s n=%-7d p50<=%-9d p90<=%-9d p99<=%-10d max=%-11d tail: %s\n",
			o.Op, o.Count, o.P50, o.P90, o.P99, o.Max, tailLine(o))
	}
}

// tailLine renders one op's p99-tail critical-path decomposition as
// "seg share%" terms, dominant first.
func tailLine(o *ktrace.OpSLI) string {
	var total int64
	for _, v := range o.TailSegs {
		total += v
	}
	if total == 0 {
		return "-"
	}
	type kv struct {
		k string
		v int64
	}
	parts := make([]kv, 0, len(o.TailSegs))
	for k, v := range o.TailSegs {
		if v > 0 {
			parts = append(parts, kv{k, v})
		}
	}
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].v != parts[j].v {
			return parts[i].v > parts[j].v
		}
		return parts[i].k < parts[j].k
	})
	s := ""
	for i, p := range parts {
		if i == 3 {
			break // three biggest segments tell the story
		}
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s %.0f%%", p.k, 100*float64(p.v)/float64(total))
	}
	return s
}

// printLogs dumps the kernel log, one line per entry with its owning
// request id; req != 0 restricts to that request's lines.
func printLogs(w *os.File, s *core.System, req uint64) {
	fmt.Fprintln(w, "\nkernel log (time level [req] message):")
	n := 0
	for _, e := range s.M.Log.Entries() {
		if req != 0 && e.Req != req {
			continue
		}
		tag := "-"
		if e.Req != 0 {
			tag = fmt.Sprintf("req=%d", e.Req)
		}
		fmt.Fprintf(w, "  %12d %-7s [%s] %s\n", e.Time, e.Level, tag, e.Msg)
		n++
	}
	if dropped := s.M.Log.Dropped(); dropped > 0 {
		fmt.Fprintf(w, "  (%d earlier entries dropped from the ring)\n", dropped)
	}
	if n == 0 {
		fmt.Fprintln(w, "  (no matching entries)")
	}
}

type kv struct {
	k string
	v int64
}

func sortedDesc(m map[string]int64, top int) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].v != out[j].v {
			return out[i].v > out[j].v
		}
		return out[i].k < out[j].k
	})
	if len(out) > top {
		out = out[:top]
	}
	return out
}
