package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/kprobe"
	"repro/internal/sys"
	"repro/internal/workload"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent indexes the enclosing span (-1: none).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one round's spans, and the per-layer figures derived
// from them, in memory. A nil tracer records nothing, so untimed
// rounds run the same code with tracing off.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	// txnMarks are the host times of PostMark's Think callbacks, one
	// per transaction; txnSpans turns them into spans.
	txnMarks []time.Time
	// vals holds per-layer samples by metric name.
	vals map[string][]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), vals: map[string][]float64{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now()})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	t.spans[i].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// note records one sample of a per-layer metric.
func (t *tracer) note(metric string, v float64) {
	if t != nil {
		t.vals[metric] = append(t.vals[metric], v)
	}
}

func (t *tracer) txn() {
	if t != nil {
		t.txnMarks = append(t.txnMarks, time.Now())
	}
}

// txnSpans closes the transaction spans under parent: each runs from
// its Think callback to the next one, the last to end.
func (t *tracer) txnSpans(parent int, end time.Time) {
	if t == nil {
		return
	}
	marks := append(t.txnMarks, end)
	for i := 0; i+1 < len(marks); i++ {
		t.spans = append(t.spans, span{Name: "workload.txn", Parent: parent,
			Start: int64(marks[i].Sub(t.epoch)), End: int64(marks[i+1].Sub(t.epoch))})
		t.note("workload.txn.host_us", float64(marks[i+1].Sub(marks[i]))/float64(time.Microsecond))
	}
	t.note("workload.txn.count", float64(len(t.txnMarks)))
	t.txnMarks = nil
}

// spanSummary is one span name's totals: self time is the span's
// duration minus the part its child spans cover.
type spanSummary struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	Total  int64  `json:"total_ns"`
	SelfNs int64  `json:"self_ns"`
}

func summarize(tracers []*tracer) []spanSummary {
	byName := map[string]*spanSummary{}
	for _, t := range tracers {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			sum := byName[s.Name]
			if sum == nil {
				sum = &spanSummary{Name: s.Name}
				byName[s.Name] = sum
			}
			sum.Count++
			sum.Total += s.End - s.Start
			sum.SelfNs += s.End - s.Start - child[i]
		}
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ablation is one configuration of the layer suite: a fixed PostMark
// stream through the trap path with some observers on, or through the
// ring with none.
type ablation struct {
	name string
	obs  observers
	ring bool
}

var ablations = []ablation{
	{"none", observers{}, false},
	{"kperf", observers{perf: true}, false},
	{"kperf_kflight", observers{perf: true, flight: true}, false},
	{"kperf_ktrace", observers{perf: true, trace: true}, false},
	{"all", allObservers, false},
	{"all_recorder", observers{perf: true, flight: true, trace: true, recorder: true}, false},
	{"ring64", observers{}, true},
}

// suite is the traced run's layer suite: host ns per operation of the
// workload's ablation configurations, and the kprobe cost pair on the
// workload that attaches the probe.
type suite struct {
	nsPerOp   map[string]float64
	nsPerFire float64
	attempted int
	failed    int
	errs      []string
}

func (su *suite) check(r round, errs ...string) {
	su.attempted++
	errs = append(errs, r.errs...)
	if len(errs) > 0 {
		su.failed++
		su.errs = append(su.errs, errs...)
	}
}

// runSuite samples the workload's ablation configurations round-robin,
// so host drift spreads evenly over them, then the probe on/off pair.
// Host times are CPU time, the mean of the repeats.
func runSuite(w workloadSpec, seed uint64, sz sizes) (suite, error) {
	su := suite{nsPerOp: map[string]float64{}}
	cfg := pmConfig(seed, sz.ablTxns, sz.pmFiles)
	byCfg := map[string][]round{}
	var ref *round
	for rep := 0; rep < sz.ablReps; rep++ {
		for _, a := range ablations {
			if !slices.Contains(w.ablations, a.name) {
				continue
			}
			runtime.GC()
			r, err := postmarkRound(cfg, a.obs, a.ring, nil)
			if err != nil {
				return su, fmt.Errorf("ablation %s: %w", a.name, err)
			}
			byCfg[a.name] = append(byCfg[a.name], r)
			var errs []string
			if ref == nil {
				ref = &r
			} else if r.out.pm != ref.out.pm {
				errs = append(errs, fmt.Sprintf("ablation %s: stats %+v, want %+v", a.name, r.out.pm, ref.out.pm))
			} else if !a.ring && r.out != ref.out {
				// Observers are host-side only: every trap configuration
				// must simulate exactly the same run.
				errs = append(errs, fmt.Sprintf("ablation %s: simulated run differs from none", a.name))
			}
			su.check(r, errs...)
		}
	}
	for name, rs := range byCfg {
		su.nsPerOp[name] = float64(meanMeasured(rs)) / float64(rs[0].ops)
	}

	if !w.probeCost {
		return su, nil
	}
	var with, without []float64
	var fires int64
	for rep := 0; rep < sz.ablReps; rep++ {
		for _, probe := range []bool{false, true} {
			runtime.GC()
			d, crossings, err := probePair(seed, sz, probe)
			if err != nil {
				return su, err
			}
			if probe {
				with, fires = append(with, float64(d)), crossings
			} else {
				without = append(without, float64(d))
			}
		}
	}
	su.nsPerFire = (mean(with) - mean(without)) / float64(fires)
	return su, nil
}

// probePair times one trap random scan over a small table, with E9's
// probe attached or not, and returns the scan's CPU time and crossings
// (with the probe attached, one fire per crossing).
func probePair(seed uint64, sz sizes, probe bool) (time.Duration, int64, error) {
	s, err := boot(observers{}, 0)
	if err != nil {
		return 0, 0, err
	}
	cfg := dbConfig(seed, sz.probeRecords, sz.probeLookups)
	var d time.Duration
	var crossings int64
	s.Spawn("probepair", func(pr *sys.Proc) error {
		if err := workload.DBSetup(pr, cfg); err != nil {
			return err
		}
		if probe {
			if _, err := pr.ProbeAttach(kprobe.Spec{Tracepoint: kprobe.TpSyscallExit, Source: probeSrc, Maps: probeMaps}); err != nil {
				return err
			}
		}
		c0 := s.K.TotalCalls()
		t0 := cpuNow()
		if _, err := workload.RandScanUser(pr, cfg); err != nil {
			return err
		}
		d = cpuNow() - t0
		crossings = s.K.TotalCalls() - c0
		return nil
	})
	if err := s.Run(); err != nil {
		return 0, 0, err
	}
	return d, crossings, nil
}

// samples pools one per-layer metric's samples over tracers.
func samples(tracers []*tracer, metric string) []float64 {
	var v []float64
	for _, t := range tracers {
		v = append(v, t.vals[metric]...)
	}
	return v
}

// tracedRun alternates untimed and traced rounds of the workload, then
// runs the workload's layer suite, and sets the per-layer ledger. A
// figure the workload does not produce reads 0: a span of a call it
// does not make, a counter of a layer it does not run, or a suite
// figure of another workload (targets.json names each figure's
// workloads).
func tracedRun(w workloadSpec, p params, res *result) error {
	rounds, err := timedRounds(w, p, true, res)
	if err != nil {
		return err
	}
	su, err := runSuite(w, p.seed, p.sz)
	if err != nil {
		return err
	}
	res.Attempted += su.attempted
	res.Failed += su.failed
	res.errs = append(res.errs, su.errs...)
	res.Correct = res.Failed == 0 && len(res.errs) == 0

	var untimed, traced []round
	for i, r := range rounds[1:] {
		if i%2 == 0 {
			traced = append(traced, r)
		} else {
			untimed = append(untimed, r)
		}
	}
	perOp := func(rs []round, f func(r round) float64) float64 {
		var v []float64
		for _, r := range rs {
			v = append(v, f(r)/float64(r.ops))
		}
		return median(v)
	}
	ledger := func(metric string) []float64 { return samples(res.tracers, metric) }
	span := func(metric, unit string) { res.set(metric, median(ledger(metric)), unit) }

	res.set("bench.trace_overhead_frac", float64(meanMeasured(traced))/float64(meanMeasured(untimed))-1, "ratio")

	ns := su.nsPerOp
	// delta is a-b when the suite ran both configurations, else 0.
	delta := func(a, b string) float64 {
		va, oka := ns[a]
		vb, okb := ns[b]
		if !oka || !okb {
			return 0
		}
		return va - vb
	}
	for _, a := range ablations {
		res.set("ablation."+a.name+".ns_per_op", ns[a.name], "ns")
	}
	res.set("kperf.host_ns_per_op", delta("kperf", "none"), "ns")
	res.set("kflight.host_ns_per_op", delta("kperf_kflight", "kperf"), "ns")
	res.set("ktrace.host_ns_per_op", delta("kperf_ktrace", "kperf"), "ns")
	res.set("trace.hook_ns_per_op", delta("all_recorder", "all"), "ns")
	res.set("kring.host_ns_per_op_delta", delta("ring64", "none"), "ns")
	res.set("kprobe.host_ns_per_fire", su.nsPerFire, "ns")

	txn := ledger("workload.txn.host_us")
	res.set("workload.txn.host_us_p50", quantile(txn, 0.5), "us")
	res.set("workload.txn.host_us_p99", quantile(txn, 0.99), "us")
	span("workload.txn.count", "count")
	span("workload.pool.s", "s")
	span("workload.seq_anycall.ns_per_record", "ns")
	span("workload.rand_trap.ns_per_lookup", "ns")
	span("workload.rand_cosy.ns_per_lookup", "ns")
	span("workload.db_setup.s", "s")
	span("workload.db_setup.alloc_mb", "MB")
	span("core.new_ms", "ms")
	span("kucode.load_ms", "ms")
	span("kprobe.attach_ms", "ms")

	first := traced[0]
	c := first.out.c
	res.set("sys.crossings", float64(c.crossings), "count")
	res.set("sys.crossings_per_txn", float64(c.crossings)/float64(first.attempted), "count")
	res.set("sys.copy_bytes", float64(c.copyBytes), "bytes")
	res.set("sys.ring_ops", float64(c.ringOps), "count")
	res.set("sys.ring_bytes", float64(c.ringBytes), "bytes")
	res.set("sys.ring_overflows", float64(c.ringOverflows), "count")
	res.set("kucode.calls", float64(c.kuCalls), "count")
	res.set("kucode.checks_run", float64(c.kuChecks), "count")
	res.set("kprobe.fires", float64(first.out.fires), "count")
	res.set("vfs.cache.hit_ratio", ratio(c.cacheHits, c.cacheHits+c.cacheMisses), "ratio")
	res.set("vfs.cache.writebacks", float64(c.writebacks), "count")
	res.set("vfs.cache.throttles", float64(c.throttles), "count")
	res.set("vfs.dcache.hit_ratio", ratio(c.dcacheHits, c.dcacheHits+c.dcacheMisses), "ratio")
	res.set("disk.reads", float64(c.diskReads), "count")
	res.set("disk.writes", float64(c.diskWrites), "count")
	res.set("disk.seek_frac", ratio(c.diskSeeks, c.diskReads+c.diskWrites), "ratio")
	res.set("kernel.ctx_switches", float64(c.ctxSwitches), "count")
	res.set("kernel.idle_ms", c.idle.Seconds()*1e3, "sim_ms")
	res.set("mem.tlb.hit_ratio", ratio(int64(c.tlbHits), int64(c.tlbHits+c.tlbMisses)), "ratio")
	res.set("mem.faults", float64(c.faults), "count")

	res.set("go.mallocs_per_op", perOp(untimed, func(r round) float64 { return float64(r.mallocs) }), "count")
	res.set("go.alloc_bytes_per_op", perOp(untimed, func(r round) float64 { return float64(r.allocBytes) }), "bytes")
	var gcs, pauses []float64
	for _, r := range untimed {
		gcs = append(gcs, float64(r.gcCycles))
		pauses = append(pauses, ms(r.gcPause))
	}
	res.set("go.gc_cycles", median(gcs), "count")
	res.set("go.gc_pause_ms", median(pauses), "ms")
	// Peak RSS is a per-layer figure: DBSetup's reallocation churn
	// makes it depend on when the collector runs, so it does not
	// repeat within a tenth from run to run.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	res.set("go.peak_rss_mb", float64(ru.Maxrss)/1024, "MB")
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
