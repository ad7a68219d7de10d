// Package kperf is the always-on, zero-simulated-cost observability
// layer of the simulated kernel. It provides three things:
//
//   - a typed metric registry (counters, gauges, cycle-bucketed
//     histograms) that subsystems thread hot-path handles through,
//   - a binary ring-buffer event tracer with per-process shards that
//     records scheduler spans, syscall spans, blocking spans and fault
//     events stamped in simulated cycles, and
//   - a cycle-attribution table (process → mode → subsystem → syscall)
//     whose totals account for every advance of the simulated clock,
//     exported as a flamegraph-ready folded-stack profile and a Chrome
//     trace_event JSON timeline.
//
// The invariant the whole package is built around: instrumentation
// must not move a single simulated cycle. kperf therefore only ever
// *reads* the clock and *observes* charges that the kernel was making
// anyway; it never calls Charge, never advances the clock, and every
// hook seam is a nil-checked pointer so a machine built without kperf
// pays one predictable branch. The determinism suite runs every
// experiment with kperf enabled and disabled and asserts bit-identical
// user/sys/elapsed cycles.
//
// kperf deliberately imports only internal/sim, so any layer of the
// kernel (mem, disk, sys, cosy, kefence, kmon) can hold kperf handles
// without import cycles.
package kperf

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Counter is a monotonically increasing metric. Increments are
// allocation-free and branch-free; the simulated machine's strict
// goroutine hand-off makes plain int64 arithmetic race-free.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds d.
func (c *Counter) Add(d int64) { c.v += d }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a set-to-current-value metric.
type Gauge struct {
	v int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v = v }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v += d }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v }

// histBuckets is the number of power-of-two cycle buckets: bucket i
// counts observations with value < 2^i cycles, so the largest bucket
// covers anything up to 2^47 cycles (~2.3 days of simulated time at
// 1.7GHz) and the overflow lands in the final slot.
const histBuckets = 48

// HistBuckets exposes the bucket count so other subsystems (kprobe's
// in-kernel aggregation maps) can reuse the same scheme and their
// histograms stay mergeable with kperf's.
const HistBuckets = histBuckets

// BucketOf exposes the bucket rule: the index of the power-of-two
// bucket that would receive an observation of v cycles.
func BucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	return bucketFor(v)
}

// Histogram is a cycle-bucketed histogram: observations are binned by
// the position of their highest set bit, which makes Observe a few
// integer instructions and no allocation.
type Histogram struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

// Observe records one cycle value. Negative values clamp to zero.
func (h *Histogram) Observe(c sim.Cycles) {
	v := int64(c)
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketFor(v)]++
}

// bucketFor returns the bucket index of v: the number of bits needed
// to represent it, clamped to the table.
func bucketFor(v int64) int {
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum reports the total of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean reports the average observation, 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile approximates the q-quantile (0 <= q <= 1) from the bucket
// boundaries: it returns the upper bound of the bucket containing the
// q-th observation, i.e. an upper estimate within 2x.
func (h *Histogram) Quantile(q float64) int64 {
	return bucketQuantile(h.buckets[:], h.count, h.max, q)
}

// BucketQuantile computes the q-quantile (0 <= q <= 1) from raw
// power-of-two bucket counts: the upper bound of the bucket holding
// the q-th observation, an upper estimate within 2x. Exported so
// consumers of merged HistogramSnapshot buckets (ktop, benchdiff)
// share the same scan instead of re-deriving bucket math.
func BucketQuantile(buckets []int64, count, max int64, q float64) int64 {
	return bucketQuantile(buckets, count, max, q)
}

// Quantiles computes p50/p90/p99 in one call from raw power-of-two
// bucket counts; the shared helper for exporters that report the
// standard latency triple.
func Quantiles(buckets []int64, count, max int64) (p50, p90, p99 int64) {
	return bucketQuantile(buckets, count, max, 0.50),
		bucketQuantile(buckets, count, max, 0.90),
		bucketQuantile(buckets, count, max, 0.99)
}

// bucketQuantile is the shared quantile scan over power-of-two
// buckets, used both for live histograms and for merged snapshots
// (bucket counts merge exactly, so merged quantiles are as precise as
// single-histogram ones).
func bucketQuantile(buckets []int64, count, max int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	target := int64(q * float64(count))
	if target >= count {
		target = count - 1
	}
	var seen int64
	for i, n := range buckets {
		seen += n
		if seen > target {
			return int64(1) << uint(i)
		}
	}
	return max
}

// HistogramSnapshot is the serializable view of a histogram. Buckets
// carries the raw power-of-two bucket counts (trimmed of trailing
// zeros) so snapshots merge exactly; it is omitted from JSON to keep
// BENCH_repro.json compact.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	Mean    float64 `json:"mean"`
	P50     int64   `json:"p50_upper"`
	P90     int64   `json:"p90_upper"`
	P99     int64   `json:"p99_upper"`
	Buckets []int64 `json:"-"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	last := 0
	for i, n := range h.buckets {
		if n != 0 {
			last = i + 1
		}
	}
	p50, p90, p99 := Quantiles(h.buckets[:], h.count, h.max)
	return HistogramSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Mean:    h.Mean(),
		P50:     p50,
		P90:     p90,
		P99:     p99,
		Buckets: append([]int64(nil), h.buckets[:last]...),
	}
}

// Registry is the typed metric registry of one machine. Metrics are
// created (or found) by name; instrumented code resolves its handles
// once at wiring time and then increments through the pointer, so the
// name index is never touched on a hot path. Each kind lives in an
// append-only list in registration order, so a metric keeps its
// position for the registry's lifetime and a sampler (kflight) can
// hold dense per-metric state indexed by it. Gauge funcs are lazy:
// they read an existing subsystem counter only when a snapshot or
// sample is taken, making them literally free during the run.
type Registry struct {
	mu       sync.Mutex
	reads    uint64            // Snapshot and Sample calls so far
	index    map[metricKey]int // position within the kind
	names    [nKinds][]string  // each kind's names in registration order
	counters []*Counter
	gauges   []gaugeSlot
	hists    []*Histogram
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHist
	nKinds
)

// metricKey names a metric within its kind: a counter and a gauge may
// share a name.
type metricKey struct {
	kind metricKind
	name string
}

// gaugeSlot is one gauge name. It holds a plain gauge, a lazy func, or
// both when both were registered under the name; the func then wins.
type gaugeSlot struct {
	g  *Gauge
	fn func() int64
}

func (s *gaugeSlot) value() int64 {
	if s.fn != nil {
		return s.fn()
	}
	return s.g.v
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[metricKey]int)}
}

// position returns name's index within its kind, appending the name
// to the kind's list when it is new. Callers hold r.mu.
func (r *Registry) position(kind metricKind, name string) (i int, isNew bool) {
	k := metricKey{kind, name}
	if i, ok := r.index[k]; ok {
		return i, false
	}
	i = len(r.names[kind])
	r.index[k] = i
	r.names[kind] = append(r.names[kind], name)
	return i, true
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, isNew := r.position(kindCounter, name)
	if isNew {
		r.counters = append(r.counters, &Counter{})
	}
	return r.counters[i]
}

// gaugeSlot returns the named gauge slot, creating it on first use.
// The pointer is valid until the next registration. Callers hold r.mu.
func (r *Registry) gaugeSlot(name string) *gaugeSlot {
	i, isNew := r.position(kindGauge, name)
	if isNew {
		r.gauges = append(r.gauges, gaugeSlot{})
	}
	return &r.gauges[i]
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.gaugeSlot(name)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a lazy gauge evaluated at snapshot time. This
// is the zero-overhead way to expose counters a subsystem already
// maintains (TLB hits, cache hits, ring drops): nothing happens until
// someone asks. A func registered under a plain gauge's name replaces
// that gauge's value in every later read.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeSlot(name).fn = fn
}

// GaugeFuncs registers lazy gauges computed together: fn fills vals[k]
// for names[k] and runs at most once per snapshot or sample, however
// many of the names that read evaluates. It is for values that one
// walk over subsystem state yields at once.
func (r *Registry) GaugeFuncs(names []string, fn func(vals []int64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vals := make([]int64, len(names))
	var filled uint64 // the read vals was computed for; reads start at 1
	for k, name := range names {
		r.gaugeSlot(name).fn = func() int64 {
			if filled != r.reads {
				fn(vals)
				filled = r.reads
			}
			return vals[k]
		}
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, isNew := r.position(kindHist, name)
	if isNew {
		r.hists = append(r.hists, &Histogram{})
	}
	return r.hists[i]
}

// RegistrySnapshot is the serializable state of a registry.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot evaluates every metric, including lazy gauges.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads++
	s := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for i, c := range r.counters {
		s.Counters[r.names[kindCounter][i]] = c.v
	}
	for i := range r.gauges {
		s.Gauges[r.names[kindGauge][i]] = r.gauges[i].value()
	}
	for i, h := range r.hists {
		if h.count > 0 {
			s.Histograms[r.names[kindHist][i]] = h.Snapshot()
		}
	}
	return s
}

// Sample is a dense read of a registry's values: entry i of each list
// belongs to the i-th metric of that kind in registration order, which
// Names lists. Positions never change and the lists only grow, so a
// longer list means metrics were registered since an earlier sample.
type Sample struct {
	Counters []int64
	Gauges   []int64
	Hists    []HistCount
}

// HistCount is a histogram's observation count and sum in a Sample;
// either one moving means the histogram observed something.
type HistCount struct {
	Count, Sum int64
}

// Sample reads every metric into s, evaluating lazy gauges. It reuses
// s's slices, so a sampler that keeps its Sample between reads
// allocates nothing once no metric is being registered.
func (r *Registry) Sample(s *Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads++
	s.Counters = s.Counters[:0]
	for _, c := range r.counters {
		s.Counters = append(s.Counters, c.v)
	}
	s.Gauges = s.Gauges[:0]
	for i := range r.gauges {
		s.Gauges = append(s.Gauges, r.gauges[i].value())
	}
	s.Hists = s.Hists[:0]
	for _, h := range r.hists {
		s.Hists = append(s.Hists, HistCount{h.count, h.sum})
	}
}

// HistQuantiles computes the current p50/p90/p99 upper bounds of the
// i-th registered histogram, as its Snapshot would report them.
func (r *Registry) HistQuantiles(i int) (p50, p90, p99 int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[i]
	return Quantiles(h.buckets[:], h.count, h.max)
}

// MetricNames lists each kind's metric names in registration order.
type MetricNames struct {
	Counters, Gauges, Hists []string
}

// Names lists the registry's metric names: entry i names entry i of
// every Sample of the registry, earlier or later. The lists share the
// registry's append-only storage and must not be modified.
func (r *Registry) Names() MetricNames {
	r.mu.Lock()
	defer r.mu.Unlock()
	return MetricNames{
		Counters: slices.Clip(r.names[kindCounter]),
		Gauges:   slices.Clip(r.names[kindGauge]),
		Hists:    slices.Clip(r.names[kindHist]),
	}
}

// sortedKeys returns map keys in stable order (exporters).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
