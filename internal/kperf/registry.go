// Package kperf is the always-on, zero-simulated-cost observability
// layer of the simulated kernel. It provides three things:
//
//   - a typed metric registry of gauges, each an int64 variable a
//     subsystem already keeps and a read loads, and cycle-bucketed
//     histograms, whose hot-path handles the subsystems hold,
//   - an event tracer with per-process shards, each a bounded Window
//     of 32-byte records, that records scheduler spans, syscall spans,
//     blocking spans and fault events stamped in simulated cycles, and
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
// kperf takes no lock on a machine's state. Every metric is registered
// while the machine is wired (New, core's wirePerf, kprobe's
// WirePerf), every process state at its spawn, and every write and
// read (Observe, OnCycles, trace records, Sample, Snapshot) happens on
// the goroutine that holds the simulated CPU, or before or after the
// run. The machine's strict goroutine hand-off orders all of them, so
// plain fields are race-free; a caller outside that discipline must
// not touch a Set. Its one lock guards the window spare table, which
// machines share: it is taken when a leased window is made (a boot or
// a spawn) and when a finalizer hands a collected window's buffer
// back, never on a hot path.
//
// kperf deliberately imports only internal/sim, so any layer of the
// kernel (mem, disk, sys, cosy, kefence, kmon) can hold kperf handles
// without import cycles.
package kperf

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/sim"
)

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
	// marks follows the p50, p90 and p99 observations, so a Sample
	// reads the triple without scanning the buckets.
	marks [3]quantileMark
}

// tripleQs are the quantiles of the standard latency triple, p50, p90
// and p99, which Quantiles computes and a Histogram's marks follow.
var tripleQs = [3]float64{0.50, 0.90, 0.99}

// quantileMark is a bucket and the number of observations in the
// buckets below it. Observe keeps that count, and a read moves the
// mark to the bucket holding its quantile's observation.
type quantileMark struct {
	bucket int
	below  int64
}

// Observe records one cycle value. Negative values clamp to zero.
func (h *Histogram) Observe(c sim.Cycles) {
	v := max(int64(c), 0)
	if h.count == 0 || v < h.min {
		h.min = v
	}
	h.max = max(h.max, v)
	h.count++
	h.sum += v
	b := bucketFor(v)
	h.buckets[b]++
	for k := range h.marks {
		if b < h.marks[k].bucket {
			h.marks[k].below++
		}
	}
}

// markBuckets moves the marks to the buckets of the p50, p90 and p99
// observations and reports them; each quantile's upper bound is
// 1 << its bucket, as Quantiles reports it. A mark walks only the
// buckets its quantile crossed since the previous read, so a read
// between epochs takes a step or two, not a scan. An empty histogram
// reports bucket 0.
func (h *Histogram) markBuckets() [3]uint8 {
	var out [3]uint8
	if h.count == 0 {
		return out
	}
	for k := range h.marks {
		m := &h.marks[k]
		t := quantileTarget(h.count, tripleQs[k])
		for t >= m.below+h.buckets[m.bucket] {
			m.below += h.buckets[m.bucket]
			m.bucket++
		}
		for t < m.below {
			m.bucket--
			m.below -= h.buckets[m.bucket]
		}
		out[k] = uint8(m.bucket)
	}
	return out
}

// bucketFor returns the bucket index of v: the number of bits needed
// to represent it, clamped to the table.
func bucketFor(v int64) int {
	return min(bits.Len64(uint64(v)), histBuckets-1)
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

// Quantiles computes p50/p90/p99 from raw power-of-two bucket counts
// in one scan, equal to BucketQuantile at 0.5, 0.9 and 0.99; the
// shared helper for exporters that report the standard latency triple.
func Quantiles(buckets []int64, count, max int64) (p50, p90, p99 int64) {
	if count == 0 {
		return 0, 0, 0
	}
	// The targets never decrease, so each one's bucket is at or past
	// the previous one's and a single pass finds all three.
	var targets [3]int64
	for k, q := range tripleQs {
		targets[k] = quantileTarget(count, q)
	}
	out := [3]int64{max, max, max}
	k := 0
	var seen int64
	for i, n := range buckets {
		seen += n
		for ; k < len(targets) && seen > targets[k]; k++ {
			out[k] = int64(1) << uint(i)
		}
		if k == len(targets) {
			break
		}
	}
	return out[0], out[1], out[2]
}

// bucketQuantile is the shared quantile scan over power-of-two
// buckets, used both for live histograms and for merged snapshots
// (bucket counts merge exactly, so merged quantiles are as precise as
// single-histogram ones).
func bucketQuantile(buckets []int64, count, max int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	target := quantileTarget(count, q)
	var seen int64
	for i, n := range buckets {
		seen += n
		if seen > target {
			return int64(1) << uint(i)
		}
	}
	return max
}

// quantileTarget is the index of the q-th of count observations.
func quantileTarget(count int64, q float64) int64 {
	return min(int64(q*float64(count)), count-1)
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

// Snapshot summarizes the histogram. Its quantiles come from a scan of
// the buckets, not from the marks a Sample reads, so the two stay
// independent.
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

// Registry is the typed metric registry of one machine. It holds two
// kinds. A gauge is a variable a subsystem already keeps as a plain
// int64 field, registered by address; a snapshot or sample reads it
// with one load, so the gauges cost nothing during the run.
// Histograms are created (or found) by name; instrumented code
// resolves the handle once at wiring time and then observes through
// the pointer, so the name index is never touched on a hot path. Each
// kind lives in an append-only list in registration order, so a metric
// keeps its position for the registry's lifetime and a sampler
// (kflight) can hold dense per-metric state indexed by it.
type Registry struct {
	index  map[metricKey]int // position within the kind
	names  [nKinds][]string  // each kind's names in registration order
	gauges []*int64
	hists  []*Histogram
}

type metricKind uint8

const (
	kindGauge metricKind = iota
	kindHist
	nKinds
)

// metricKey names a metric within its kind: a gauge and a histogram
// may share a name.
type metricKey struct {
	kind metricKind
	name string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[metricKey]int)}
}

// position returns name's index within its kind, appending the name
// to the kind's list when it is new.
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

// GaugeVar registers a gauge that reads *v at snapshot time: a counter
// a subsystem maintains as a plain int64 field (cache hits, syscall
// counts). Nothing happens until someone asks, and a read is one load.
// Registering a variable under an existing gauge's name replaces that
// gauge's variable and keeps its position.
func (r *Registry) GaugeVar(name string, v *int64) {
	if i, isNew := r.position(kindGauge, name); isNew {
		r.gauges = append(r.gauges, v)
	} else {
		r.gauges[i] = v
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	i, isNew := r.position(kindHist, name)
	if isNew {
		r.hists = append(r.hists, &Histogram{})
	}
	return r.hists[i]
}

// RegistrySnapshot is the serializable state of a registry.
type RegistrySnapshot struct {
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot reads every metric.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for i, v := range r.gauges {
		s.Gauges[r.names[kindGauge][i]] = *v
	}
	for i, h := range r.hists {
		if h.count > 0 {
			s.Histograms[r.names[kindHist][i]] = h.Snapshot()
		}
	}
	return s
}

// Sample is a dense read of a registry's values: entry i of Gauges and
// Hists belongs to the i-th metric of that kind in registration order,
// which Names lists. Positions never change and the lists only grow,
// so a longer list means metrics were registered since an earlier
// sample. MovedGauges and MovedHists list what the latest read changed.
type Sample struct {
	Gauges []int64
	Hists  []HistSample
	// MovedGauges holds, in index order, the gauges whose value the
	// latest read changed, and the gauges it read first, even at 0.
	MovedGauges []int
	// MovedHists holds, in index order, the histograms that observed
	// something since the read before.
	MovedHists []HistMove
}

// HistSample is a histogram's reading in a Sample: its observation
// count and sum.
type HistSample struct {
	Count, Sum int64
}

// HistMove is one histogram's movement between two reads: its index,
// the observations it gained and their sum, and the buckets of its
// p50, p90 and p99 observations after them. Quantile k's upper bound,
// as the histogram's Snapshot reports it, is 1 << Quantiles[k].
type HistMove struct {
	I          int
	Count, Sum int64
	Quantiles  [3]uint8
}

// Sample reads every metric in one pass: it compares each reading
// with the one s holds, the caller's previous sample, stores the new
// one in its place, and lists each metric that moved. It reuses s's
// slices, so a sampler that keeps its Sample between reads allocates
// nothing once no metric is being registered. A moved histogram's
// quantiles come from the marks it keeps.
func (r *Registry) Sample(s *Sample) {
	s.MovedGauges, s.MovedHists = s.MovedGauges[:0], s.MovedHists[:0]
	seen := len(s.Gauges)
	for i, p := range r.gauges {
		v := *p
		switch {
		case i >= seen:
			s.Gauges = append(s.Gauges, v)
		case v != s.Gauges[i]:
			s.Gauges[i] = v
		default:
			continue
		}
		s.MovedGauges = append(s.MovedGauges, i)
	}
	if n := len(r.hists) - len(s.Hists); n > 0 {
		s.Hists = append(s.Hists, make([]HistSample, n)...)
	}
	for i, h := range r.hists {
		prev := &s.Hists[i]
		if h.count == prev.Count { // every observation counts
			continue
		}
		s.MovedHists = append(s.MovedHists, HistMove{
			I: i, Count: h.count - prev.Count, Sum: h.sum - prev.Sum,
			Quantiles: h.markBuckets(),
		})
		*prev = HistSample{h.count, h.sum}
	}
}

// MetricNames lists each kind's metric names in registration order.
type MetricNames struct {
	Gauges, Hists []string
}

// Names lists the registry's metric names: entry i names entry i of
// every Sample of the registry, earlier or later. The lists share the
// registry's append-only storage and must not be modified.
func (r *Registry) Names() MetricNames {
	return MetricNames{
		Gauges: slices.Clip(r.names[kindGauge]),
		Hists:  slices.Clip(r.names[kindHist]),
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
