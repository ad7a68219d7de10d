package ktrace

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/kperf"
)

// OpSLI is the latency SLI of one operation type: exact count/sum/max
// over every closed request of that op, p50/p90/p99 upper bounds from
// the power-of-two buckets (exact in the kperf.Quantiles sense), the
// total segment decomposition, and the critical-path breakdown of the
// p99 tail.
type OpSLI struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum_cycles"`
	Max   int64  `json:"max_cycles"`
	P50   int64  `json:"p50_upper"`
	P90   int64  `json:"p90_upper"`
	P99   int64  `json:"p99_upper"`
	// Buckets carries the raw bucket counts (trimmed of trailing
	// zeros) so summaries merge exactly, like kperf histogram
	// snapshots — but kept in JSON because benchall-embedded summaries
	// are the merge inputs.
	Buckets []int64 `json:"buckets,omitempty"`
	// Segs is the total decomposition over all requests of this op.
	Segs map[string]int64 `json:"segs"`
	// TailSegs is the decomposition summed over retained requests in
	// the p99 bucket and above (wall >= P99/2) — where the op's worst
	// latency actually goes.
	TailSegs map[string]int64 `json:"tail_segs"`
	// TailCount is the number of retained requests in TailSegs.
	TailCount int64 `json:"tail_count"`
	// TopSeg names the largest tail segment: the critical-path answer
	// to "why is p99 p99".
	TopSeg string `json:"top_seg"`
}

// Summary is the serializable state of a tracer: topline request and
// span accounting plus per-operation SLIs, sorted by op name so the
// encoding is deterministic and benchdiff can gate it bit-for-bit.
type Summary struct {
	Requests           int64   `json:"requests"`
	Open               int64   `json:"open"`
	ReqDrops           int64   `json:"req_drops"`
	Spans              int64   `json:"spans"`
	SpanDrops          int64   `json:"span_drops"`
	SpanOverflows      int64   `json:"span_overflows"`
	IdentityViolations int64   `json:"identity_violations"`
	FirstViolation     string  `json:"first_violation,omitempty"`
	Ops                []OpSLI `json:"ops,omitempty"`
}

// segMap renders a segment array as the named JSON map (all six keys
// always present, so diffs are structural when one vanishes).
func segMap(segs [NSegs]int64) map[string]int64 {
	m := make(map[string]int64, NSegs)
	for i, v := range segs {
		m[Seg(i).String()] = v
	}
	return m
}

// topSeg picks the largest segment, ties broken by segment order.
func topSeg(m map[string]int64) string {
	best, bestV := "", int64(-1)
	for i := 0; i < NSegs; i++ {
		k := Seg(i).String()
		if v := m[k]; v > bestV {
			best, bestV = k, v
		}
	}
	return best
}

// Summary computes the tracer's summary. Nil-safe (returns an empty
// summary).
func (t *Tracer) Summary() *Summary {
	s := &Summary{}
	if t == nil {
		return s
	}
	s.Requests = t.requests
	s.ReqDrops = t.reqs.Overwritten()
	s.Spans = t.spans.Written()
	s.SpanDrops = t.spans.Overwritten()
	s.IdentityViolations = t.idViol
	s.FirstViolation = t.firstViol
	for _, pt := range t.procs {
		if pt.reqID != 0 {
			s.Open++
		}
		s.SpanOverflows += pt.overflow
	}

	// Tail decomposition from the retained records, walked in place
	// and indexed by op.
	type tail struct {
		segs  [NSegs]int64
		count int64
	}
	snaps := make([]kperf.HistogramSnapshot, len(t.aggs))
	tails := make([]tail, len(t.aggs))
	ops := make([]uint32, 0, len(t.aggs))
	for op, a := range t.aggs {
		if a != nil {
			snaps[op] = a.hist.Snapshot()
			ops = append(ops, uint32(op))
		}
	}
	for i := 0; i < t.reqs.Len(); i++ {
		rec := t.reqs.At(i)
		if int64(rec.end-rec.start) >= snaps[rec.op].P99/2 {
			tl := &tails[rec.op]
			tl.count++
			for j, v := range rec.segs {
				tl.segs[j] += v
			}
		}
	}

	slices.SortFunc(ops, func(a, b uint32) int { return strings.Compare(t.names[a], t.names[b]) })
	for _, op := range ops {
		a, snap, tl := t.aggs[op], snaps[op], &tails[op]
		sli := OpSLI{
			Op:        t.names[op],
			Count:     snap.Count,
			Sum:       snap.Sum,
			Max:       snap.Max,
			P50:       snap.P50,
			P90:       snap.P90,
			P99:       snap.P99,
			Buckets:   snap.Buckets,
			Segs:      segMap(a.segs),
			TailSegs:  segMap(tl.segs),
			TailCount: tl.count,
		}
		sli.TopSeg = topSeg(sli.TailSegs)
		s.Ops = append(s.Ops, sli)
	}
	return s
}

// Op returns the SLI for one op name, nil when absent.
func (s *Summary) Op(name string) *OpSLI {
	if s == nil {
		return nil
	}
	for i := range s.Ops {
		if s.Ops[i].Op == name {
			return &s.Ops[i]
		}
	}
	return nil
}

// MergeSummaries folds per-leg summaries into one: counts and bucket
// arrays add exactly (so merged quantiles are as precise as per-leg
// ones), maxima take the max, and tail decompositions sum — an
// approximation across legs, since each leg's tail was cut at its own
// p99. Nil inputs are skipped; merging nothing returns an empty
// summary.
func MergeSummaries(parts []*Summary) *Summary {
	out := &Summary{}
	byOp := map[string]*OpSLI{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Requests += p.Requests
		out.Open += p.Open
		out.ReqDrops += p.ReqDrops
		out.Spans += p.Spans
		out.SpanDrops += p.SpanDrops
		out.SpanOverflows += p.SpanOverflows
		out.IdentityViolations += p.IdentityViolations
		if out.FirstViolation == "" {
			out.FirstViolation = p.FirstViolation
		}
		for _, sli := range p.Ops {
			dst := byOp[sli.Op]
			if dst == nil {
				cp := sli
				cp.Buckets = append([]int64(nil), sli.Buckets...)
				cp.Segs = copySegMap(sli.Segs)
				cp.TailSegs = copySegMap(sli.TailSegs)
				byOp[sli.Op] = &cp
				continue
			}
			dst.Count += sli.Count
			dst.Sum += sli.Sum
			if sli.Max > dst.Max {
				dst.Max = sli.Max
			}
			if len(sli.Buckets) > len(dst.Buckets) {
				dst.Buckets = append(dst.Buckets, make([]int64, len(sli.Buckets)-len(dst.Buckets))...)
			}
			for i, n := range sli.Buckets {
				dst.Buckets[i] += n
			}
			addSegMap(dst.Segs, sli.Segs)
			addSegMap(dst.TailSegs, sli.TailSegs)
			dst.TailCount += sli.TailCount
		}
	}
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		sli := byOp[op]
		sli.P50, sli.P90, sli.P99 = kperf.Quantiles(sli.Buckets, sli.Count, sli.Max)
		sli.TopSeg = topSeg(sli.TailSegs)
		out.Ops = append(out.Ops, *sli)
	}
	return out
}

func copySegMap(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func addSegMap(dst, src map[string]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// DecodeSummary parses a summary from JSON (the kflight record's
// ktrace attachment, or a benchall embedding). Hostile bytes produce
// an error, never a panic.
func DecodeSummary(b []byte) (*Summary, error) {
	var s Summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("ktrace: decode summary: %w", err)
	}
	return &s, nil
}

// FlowSpans renders the retained spans as kperf Chrome-trace flow
// spans, optionally restricted to one request id (0 = all). Request
// spans originate their flow; child spans join it, so Perfetto draws
// parent/child arrows across the request's lifetime.
func (t *Tracer) FlowSpans(req uint64) []kperf.FlowSpan {
	if t == nil {
		return nil
	}
	var out []kperf.FlowSpan
	for i := 0; i < t.spans.Len(); i++ {
		sp := t.spans.At(i)
		if req != 0 && sp.req != req {
			continue
		}
		fs := kperf.FlowSpan{
			Name:      t.spanName(sp),
			PID:       int(sp.pid),
			Flow:      sp.req,
			FlowStart: sp.kind == SpanRequest,
			Start:     sp.start,
			End:       sp.end,
			Args: map[string]any{
				"span": sp.id, "parent": sp.parent, "req": sp.req, "kind": sp.kind.String(),
			},
		}
		out = append(out, fs)
	}
	return out
}

// spanName renders a span's display name.
func (t *Tracer) spanName(sp spanRec) string {
	switch sp.kind {
	case SpanRequest:
		return "req:" + t.names[sp.op]
	case SpanOp:
		return t.names[sp.op]
	case SpanSyscall:
		if t.set.SyscallName != nil {
			return t.set.SyscallName(int(sp.arg))
		}
		return fmt.Sprintf("sys_%d", sp.arg)
	case SpanWait:
		return "wait:" + kperf.Subsys(sp.arg).String()
	case SpanExec:
		return "exec:" + kperf.Subsys(sp.arg).String()
	}
	return "?"
}
