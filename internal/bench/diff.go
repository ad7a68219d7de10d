package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/ktrace"
)

// The BENCH_repro.json diff engine behind cmd/benchdiff: compares two
// documents metric-by-metric and classifies every change. The key
// split is deterministic vs volatile. Deterministic metrics are pure
// functions of simulated behavior — cycle counts, kperf gauges,
// kflight epochs — and must not move between runs of the same code,
// so any change beyond the (default zero) tolerance is a regression.
// Volatile metrics — wall-clock seconds, timestamps, host provenance,
// micro-benchmark ns/op — vary run to run and are reported only when
// asked, never gated on.

// DiffOptions configures a comparison.
type DiffOptions struct {
	// RelTol is the global relative tolerance for deterministic
	// metrics: |cur-base| / max(|base|, |cur|) above it is a
	// regression. 0 demands bit-identical values.
	RelTol float64
	// PrefixTol overrides RelTol for metric paths by longest matching
	// prefix (e.g. {"E2/kflight": 0.01}).
	PrefixTol map[string]float64
	// IncludeVolatile also reports volatile-metric changes,
	// informational only.
	IncludeVolatile bool
}

// tolFor resolves the tolerance for one metric path.
func (o DiffOptions) tolFor(path string) float64 {
	tol, best := o.RelTol, -1
	//klint:allow determinism longest-prefix match: two matching prefixes of equal length are the same string, so the winner is order-independent
	for prefix, t := range o.PrefixTol {
		if strings.HasPrefix(path, prefix) && len(prefix) > best {
			tol, best = t, len(prefix)
		}
	}
	return tol
}

// MetricDiff is one changed metric.
type MetricDiff struct {
	Path string  `json:"path"`
	Base float64 `json:"base"`
	Cur  float64 `json:"cur"`
	// Rel is |cur-base| / max(|base|, |cur|).
	Rel float64 `json:"rel"`
	// Regression marks a deterministic metric beyond tolerance.
	Regression bool `json:"regression"`
	// Note carries structural findings (metric vanished, experiment
	// missing) and volatile-metric annotations.
	Note string `json:"note,omitempty"`
}

// DiffReport is the outcome of one comparison.
type DiffReport struct {
	// Compared counts deterministic metrics checked on both sides.
	Compared int `json:"compared"`
	// Diffs lists every changed metric, regressions first, then by
	// path.
	Diffs []MetricDiff `json:"diffs,omitempty"`
	// Regressions counts Diffs entries with Regression set.
	Regressions int `json:"regressions"`
}

// Failed reports whether the comparison should gate a CI run red.
func (r *DiffReport) Failed() bool { return r.Regressions > 0 }

// Format renders the report; verbose includes non-regression diffs.
func (r *DiffReport) Format(w io.Writer, verbose bool) {
	fmt.Fprintf(w, "benchdiff: %d deterministic metrics compared, %d changed, %d regressions\n",
		r.Compared, len(r.Diffs), r.Regressions)
	for _, d := range r.Diffs {
		if !d.Regression && !verbose {
			continue
		}
		mark := "  info"
		if d.Regression {
			mark = "REGRESS"
		}
		line := fmt.Sprintf("%s  %s: %s -> %s", mark, d.Path, fmtMetric(d.Base), fmtMetric(d.Cur))
		if d.Rel > 0 {
			line += fmt.Sprintf(" (%+.2f%%)", 100*(d.Cur-d.Base)/math.Max(math.Abs(d.Base), 1e-12))
		}
		if d.Note != "" {
			line += " [" + d.Note + "]"
		}
		fmt.Fprintln(w, line)
	}
}

func fmtMetric(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// differ accumulates one comparison.
type differ struct {
	opts DiffOptions
	rep  *DiffReport
}

// det compares one deterministic metric present on both sides.
func (d *differ) det(path string, base, cur float64) {
	d.rep.Compared++
	if base == cur {
		return
	}
	rel := relDelta(base, cur)
	md := MetricDiff{Path: path, Base: base, Cur: cur, Rel: rel}
	if rel > d.opts.tolFor(path) {
		md.Regression = true
		d.rep.Regressions++
	}
	d.rep.Diffs = append(d.rep.Diffs, md)
}

// vol reports a volatile metric change (never a regression).
func (d *differ) vol(path string, base, cur float64) {
	if !d.opts.IncludeVolatile || base == cur {
		return
	}
	d.rep.Diffs = append(d.rep.Diffs, MetricDiff{
		Path: path, Base: base, Cur: cur, Rel: relDelta(base, cur), Note: "volatile",
	})
}

// structural records a non-numeric finding; regression marks it
// gating.
func (d *differ) structural(path, note string, regression bool) {
	md := MetricDiff{Path: path, Note: note, Regression: regression}
	if regression {
		d.rep.Regressions++
	}
	d.rep.Diffs = append(d.rep.Diffs, md)
}

// relDelta is |cur-base| / max(|base|, |cur|), 0 when both are 0.
func relDelta(base, cur float64) float64 {
	den := math.Max(math.Abs(base), math.Abs(cur))
	if den == 0 {
		return 0
	}
	return math.Abs(cur-base) / den
}

// detMap compares two string-keyed deterministic metric maps: shared
// keys diff, vanished keys are regressions, new keys are
// informational.
func (d *differ) detMap(prefix string, base, cur map[string]int64) {
	for _, k := range sortedMapKeys(base) {
		path := prefix + "/" + k
		cv, ok := cur[k]
		if !ok {
			d.structural(path, "metric missing from current run", true)
			continue
		}
		d.det(path, float64(base[k]), float64(cv))
	}
	for _, k := range sortedMapKeys(cur) {
		if _, ok := base[k]; !ok {
			d.structural(prefix+"/"+k, "new metric", false)
		}
	}
}

func sortedMapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DiffRepro compares two BENCH_repro.json documents.
func DiffRepro(base, cur *Repro, opts DiffOptions) *DiffReport {
	d := &differ{opts: opts, rep: &DiffReport{}}

	d.vol("wall_seconds_total", base.WallSeconds, cur.WallSeconds)
	d.vol("serial_wall_seconds", base.SerialWallSeconds, cur.SerialWallSeconds)
	d.vol("parallel_speedup", base.ParallelSpeedup, cur.ParallelSpeedup)
	if opts.IncludeVolatile {
		for _, h := range [][3]string{
			{"schema", base.Schema, cur.Schema},
			{"git_commit", base.GitCommit, cur.GitCommit},
			{"go_version", base.GoVersion, cur.GoVersion},
			{"cpu_model", base.CPUModel, cur.CPUModel},
		} {
			if h[1] != h[2] {
				d.structural(h[0], fmt.Sprintf("%q -> %q", h[1], h[2]), false)
			}
		}
	}

	curExps := make(map[string]*TrialResult, len(cur.Experiments))
	for i := range cur.Experiments {
		curExps[cur.Experiments[i].Name] = &cur.Experiments[i]
	}
	baseNames := make(map[string]bool, len(base.Experiments))
	for i := range base.Experiments {
		b := &base.Experiments[i]
		baseNames[b.Name] = true
		c, ok := curExps[b.Name]
		if !ok {
			d.structural(b.Name, "experiment missing from current run", true)
			continue
		}
		d.diffTrial(b, c)
	}
	for i := range cur.Experiments {
		if !baseNames[cur.Experiments[i].Name] {
			d.structural(cur.Experiments[i].Name, "new experiment", false)
		}
	}

	// Micro-benchmarks are host timing: volatile throughout.
	if opts.IncludeVolatile {
		curMicro := make(map[string]MicroResult, len(cur.Micro))
		for _, m := range cur.Micro {
			curMicro[m.Name] = m
		}
		for _, m := range base.Micro {
			if c, ok := curMicro[m.Name]; ok {
				d.vol("micro/"+m.Name+"/ns_per_op", m.NsPerOp, c.NsPerOp)
			}
		}
	}

	sort.SliceStable(d.rep.Diffs, func(i, j int) bool {
		a, b := d.rep.Diffs[i], d.rep.Diffs[j]
		if a.Regression != b.Regression {
			return a.Regression
		}
		return a.Path < b.Path
	})
	return d.rep
}

// diffTrial compares one experiment's results.
func (d *differ) diffTrial(b, c *TrialResult) {
	p := b.Name

	if b.Err == "" && c.Err != "" {
		d.structural(p+"/error", "current run errored: "+c.Err, true)
		return
	}
	if b.Err != "" && c.Err == "" {
		d.structural(p+"/error", "base errored, current run recovered", false)
	}
	if b.AllPass && !c.AllPass {
		d.structural(p+"/all_pass", "acceptance bands now failing", true)
	} else if !b.AllPass && c.AllPass {
		d.structural(p+"/all_pass", "acceptance bands now passing", false)
	}

	d.vol(p+"/wall_seconds", b.WallSeconds, c.WallSeconds)
	d.det(p+"/sim_user_cycles", float64(b.SimUser), float64(c.SimUser))
	d.det(p+"/sim_sys_cycles", float64(b.SimSys), float64(c.SimSys))
	d.det(p+"/sim_elapsed_cycles", float64(b.SimElapsed), float64(c.SimElapsed))

	if b.Perf != nil && c.Perf == nil {
		d.structural(p+"/kperf", "kperf snapshot missing from current run", true)
	} else if b.Perf != nil && c.Perf != nil {
		d.det(p+"/kperf_elapsed_cycles", float64(b.PerfElapsed), float64(c.PerfElapsed))
		if b.PerfIdentity == "ok" && c.PerfIdentity != "ok" {
			d.structural(p+"/kperf_identity", c.PerfIdentity, true)
		}
		d.diffPerf(p+"/kperf", b, c)
	}

	if b.Flight != nil && c.Flight == nil {
		d.structural(p+"/kflight", "flight summary missing from current run", true)
	} else if b.Flight != nil && c.Flight != nil {
		bf, cf := b.Flight, c.Flight
		d.det(p+"/kflight/epochs", float64(bf.Epochs), float64(cf.Epochs))
		d.det(p+"/kflight/evicted", float64(bf.Evicted), float64(cf.Evicted))
		d.det(p+"/kflight/ticks", float64(bf.Ticks), float64(cf.Ticks))
		d.det(p+"/kflight/dumps_skipped", float64(bf.DumpsSkipped), float64(cf.DumpsSkipped))
		d.det(p+"/kflight/peak_epoch_syscalls", float64(bf.PeakEpochSyscalls), float64(cf.PeakEpochSyscalls))
		d.detMap(p+"/kflight/events", bf.Events, cf.Events)
	}

	if b.Ktrace != nil && c.Ktrace == nil {
		d.structural(p+"/ktrace", "trace summary missing from current run", true)
	} else if b.Ktrace != nil && c.Ktrace != nil {
		d.diffKtrace(p+"/ktrace", b.Ktrace, c.Ktrace)
	}
}

// diffKtrace compares two request-trace summaries: every latency SLI
// and critical-path segment decomposition is deterministic in
// simulated behavior, so all of it gates.
func (d *differ) diffKtrace(p string, bt, ct *ktrace.Summary) {
	d.det(p+"/requests", float64(bt.Requests), float64(ct.Requests))
	d.det(p+"/open", float64(bt.Open), float64(ct.Open))
	d.det(p+"/req_drops", float64(bt.ReqDrops), float64(ct.ReqDrops))
	d.det(p+"/spans", float64(bt.Spans), float64(ct.Spans))
	d.det(p+"/span_drops", float64(bt.SpanDrops), float64(ct.SpanDrops))
	d.det(p+"/span_overflows", float64(bt.SpanOverflows), float64(ct.SpanOverflows))
	d.det(p+"/identity_violations", float64(bt.IdentityViolations), float64(ct.IdentityViolations))
	curOps := make(map[string]*ktrace.OpSLI, len(ct.Ops))
	for i := range ct.Ops {
		curOps[ct.Ops[i].Op] = &ct.Ops[i]
	}
	for i := range bt.Ops {
		bo := &bt.Ops[i]
		op := p + "/ops/" + bo.Op
		co, ok := curOps[bo.Op]
		if !ok {
			d.structural(op, "operation missing from current run", true)
			continue
		}
		d.det(op+"/count", float64(bo.Count), float64(co.Count))
		d.det(op+"/sum_cycles", float64(bo.Sum), float64(co.Sum))
		d.det(op+"/max_cycles", float64(bo.Max), float64(co.Max))
		d.det(op+"/p50", float64(bo.P50), float64(co.P50))
		d.det(op+"/p90", float64(bo.P90), float64(co.P90))
		d.det(op+"/p99", float64(bo.P99), float64(co.P99))
		d.detMap(op+"/segs", bo.Segs, co.Segs)
		d.detMap(op+"/tail_segs", bo.TailSegs, co.TailSegs)
		d.det(op+"/tail_count", float64(bo.TailCount), float64(co.TailCount))
		if bo.TopSeg != co.TopSeg {
			d.structural(op+"/top_seg", fmt.Sprintf("%q -> %q", bo.TopSeg, co.TopSeg), true)
		}
	}
	for i := range ct.Ops {
		if _, ok := findOp(bt.Ops, ct.Ops[i].Op); !ok {
			d.structural(p+"/ops/"+ct.Ops[i].Op, "new operation", false)
		}
	}
}

func findOp(ops []ktrace.OpSLI, name string) (*ktrace.OpSLI, bool) {
	for i := range ops {
		if ops[i].Op == name {
			return &ops[i], true
		}
	}
	return nil, false
}

// diffPerf compares two kperf snapshots.
func (d *differ) diffPerf(p string, b, c *TrialResult) {
	bp, cp := b.Perf, c.Perf
	d.detMap(p+"/gauges", bp.Gauges, cp.Gauges)
	d.detMap(p+"/subsystem_cycles", bp.SubsystemCycles, cp.SubsystemCycles)
	d.det(p+"/setup_cycles", float64(bp.SetupCycles), float64(cp.SetupCycles))
	d.det(p+"/idle_cycles", float64(bp.IdleCycles), float64(cp.IdleCycles))
	d.det(p+"/total_cycles", float64(bp.TotalCycles), float64(cp.TotalCycles))
	d.det(p+"/trace_records", float64(bp.TraceRecords), float64(cp.TraceRecords))
	d.det(p+"/trace_drops", float64(bp.TraceDrops), float64(cp.TraceDrops))
	for _, name := range sortedMapKeys(bp.Histograms) {
		hp := p + "/histograms/" + name
		ch, ok := cp.Histograms[name]
		if !ok {
			d.structural(hp, "histogram missing from current run", true)
			continue
		}
		bh := bp.Histograms[name]
		d.det(hp+"/count", float64(bh.Count), float64(ch.Count))
		d.det(hp+"/sum", float64(bh.Sum), float64(ch.Sum))
		d.det(hp+"/min", float64(bh.Min), float64(ch.Min))
		d.det(hp+"/max", float64(bh.Max), float64(ch.Max))
		d.det(hp+"/p50", float64(bh.P50), float64(ch.P50))
		d.det(hp+"/p90", float64(bh.P90), float64(ch.P90))
		d.det(hp+"/p99", float64(bh.P99), float64(ch.P99))
	}
	for _, name := range sortedMapKeys(cp.Histograms) {
		if _, ok := bp.Histograms[name]; !ok {
			d.structural(p+"/histograms/"+name, "new histogram", false)
		}
	}
}

// ReadRepro loads one BENCH_repro.json document.
func ReadRepro(path string) (*Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &r, nil
}
