package kflight

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/kperf"
	"repro/internal/sim"
)

// ReferenceRecorder is the flight recorder's map-based close, kept as
// the oracle the dense Recorder must match byte for byte. Each close
// snapshots the set into maps, diffs them by name against maps of the
// previous close's values, sums attribution from the raw per-syscall
// cells, and pushes a finished Epoch into the ring.
type ReferenceRecorder struct {
	cfg Config
	set *kperf.Set

	nextBoundary sim.Cycles
	prevSample   sim.Cycles
	seq          int64
	ticks        int64
	totalTicks   int64

	prevCounters map[string]int64
	prevGauges   map[string]int64
	prevHists    map[string]kperf.HistogramSnapshot
	prevAttr     map[AttrDelta]int64 // keyed with Cycles zero

	ring      []Epoch
	ringStart int
	evicted   int64

	dumps        []Postmortem
	dumpsSkipped int64
	events       map[string]int64

	peakEpochSyscalls int64
}

// NewReferenceRecorder creates a reference recorder sampling set.
func NewReferenceRecorder(cfg Config, set *kperf.Set) *ReferenceRecorder {
	cfg = cfg.withDefaults()
	return &ReferenceRecorder{
		cfg:          cfg,
		set:          set,
		nextBoundary: cfg.EpochCycles,
		prevCounters: make(map[string]int64),
		prevGauges:   make(map[string]int64),
		prevHists:    make(map[string]kperf.HistogramSnapshot),
		prevAttr:     make(map[AttrDelta]int64),
		events:       make(map[string]int64),
	}
}

// Tick mirrors Recorder.Tick.
func (r *ReferenceRecorder) Tick(now sim.Cycles) {
	r.ticks++
	r.totalTicks++
	if now < r.nextBoundary {
		return
	}
	r.closeEpoch(now)
}

// Event mirrors Recorder.Event.
func (r *ReferenceRecorder) Event(now sim.Cycles, kind, detail string) {
	r.events[kind]++
	if kind != "run_end" && len(r.dumps) >= r.cfg.MaxDumps {
		r.dumpsSkipped++
		return
	}
	if now > r.prevSample || r.ticks > 0 {
		r.closeEpoch(now)
	}
	pm := Postmortem{Kind: kind, Detail: detail, At: now}
	if n := min(len(r.ring), r.cfg.PostmortemEpochs); n > 0 {
		pm.Epochs = r.epochs()[len(r.ring)-n:]
	}
	pm.Tail = traceTail(r.set, r.cfg.TailRecords)
	pm.Requests = openRequests(r.set)
	r.dumps = append(r.dumps, pm)
}

func (r *ReferenceRecorder) closeEpoch(now sim.Cycles) {
	if r.set == nil {
		return
	}
	sn := r.set.Snapshot()
	prevSyscalls := r.prevGauges[callsGauge]
	e := Epoch{Seq: r.seq, Start: r.prevSample, End: now, Ticks: r.ticks}
	r.seq++
	r.ticks = 0

	for name, v := range sn.Counters {
		if d := v - r.prevCounters[name]; d != 0 {
			if e.Counters == nil {
				e.Counters = make(map[string]int64)
			}
			e.Counters[name] = d
		}
		r.prevCounters[name] = v
	}
	for name, v := range sn.Gauges {
		if prev, seen := r.prevGauges[name]; !seen || v != prev {
			if e.Gauges == nil {
				e.Gauges = make(map[string]int64)
			}
			e.Gauges[name] = v
		}
		r.prevGauges[name] = v
	}
	for name, h := range sn.Histograms {
		prev := r.prevHists[name]
		if h.Count != prev.Count || h.Sum != prev.Sum {
			if e.Hists == nil {
				e.Hists = make(map[string]HistDelta)
			}
			p50, p90, p99 := kperf.Quantiles(h.Buckets, h.Count, h.Max)
			e.Hists[name] = HistDelta{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum, P50: p50, P90: p90, P99: p99}
		}
		r.prevHists[name] = h
	}
	cells := make(map[AttrDelta]int64)
	for _, row := range sn.Attribution {
		cells[AttrDelta{Process: row.Process, Mode: row.Mode, Subsys: row.Subsys}] += row.Cycles
	}
	for cell, v := range cells {
		if d := v - r.prevAttr[cell]; d != 0 {
			r.prevAttr[cell] = v
			cell.Cycles = d
			e.Attr = append(e.Attr, cell)
		}
	}
	sort.Slice(e.Attr, func(i, j int) bool {
		a, b := e.Attr[i], e.Attr[j]
		if a.Process != b.Process {
			return a.Process < b.Process
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		return a.Subsys < b.Subsys
	})
	if rate := r.prevGauges[callsGauge] - prevSyscalls; rate > r.peakEpochSyscalls {
		r.peakEpochSyscalls = rate
	}

	if len(r.ring) < r.cfg.Retain {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.ringStart] = e
		r.ringStart = (r.ringStart + 1) % len(r.ring)
		r.evicted++
	}
	r.prevSample = now
	r.nextBoundary = (now/r.cfg.EpochCycles + 1) * r.cfg.EpochCycles
}

// epochs returns the retained epochs oldest-first.
func (r *ReferenceRecorder) epochs() []Epoch {
	return append(append([]Epoch{}, r.ring[r.ringStart:]...), r.ring[:r.ringStart]...)
}

// WriteJSON serializes the record exactly as Recorder.WriteJSON does.
func (r *ReferenceRecorder) WriteJSON(w io.Writer) error {
	s := Summary{
		Epochs:            r.seq,
		Evicted:           r.evicted,
		Ticks:             r.totalTicks,
		DumpsSkipped:      r.dumpsSkipped,
		PeakEpochSyscalls: r.peakEpochSyscalls,
	}
	if len(r.events) > 0 {
		s.Events = r.events
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&Record{
		Schema:      Schema,
		Config:      r.cfg,
		Epochs:      r.epochs(),
		Postmortems: r.dumps,
		Summary:     s,
	})
}
