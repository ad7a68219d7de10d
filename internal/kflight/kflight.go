// Package kflight is the simulated-time flight recorder: a bounded,
// delta-encoded time series over everything kperf measures, plus
// postmortem dumps cut at kills, traps, extension deaths, and run end.
//
// kperf (the metric layer) answers "what did the whole run cost";
// kflight answers "what was happening in the window leading up to
// cycle X". At every scheduler boundary the kernel announces the
// simulated clock through the FlightHook seam; when the clock passes
// an epoch boundary the recorder closes an epoch — the delta of every
// counter, gauge, histogram, and per-(process, mode, subsystem)
// attribution cell since the previous close — into a bounded
// retention ring. Postmortems copy the last K epochs and each trace
// shard's tail, so a kill arrives with its own history attached.
//
// The package inherits kperf's central invariant and strengthens it
// structurally: sampling is host-side only. The recorder is driven
// through an interface that cannot return a cost, it only ever reads
// the clock and kperf state, and it never calls Charge — so a run
// with the recorder attached is bit-identical in simulated cycles to
// one without. The determinism suite asserts exactly that.
//
// kflight imports only kperf and sim; internal/kernel's FlightHook is
// satisfied structurally, keeping the dependency graph acyclic in
// both directions (kernel knows no recorder, recorder knows no
// kernel).
package kflight

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/kperf"
	"repro/internal/sim"
)

// Schema identifies the serialized record format.
const Schema = "kflight/v1"

// Config sizes the recorder. The zero value selects defaults tuned so
// the smallest experiment (E3, ~17M cycles) closes at least one epoch
// and the largest (E7, ~5.3T) stays bounded: with the default epoch
// and retention the ring covers the trailing ~69G cycles (~40
// simulated seconds), everything older is evicted and counted.
type Config struct {
	// EpochCycles is the epoch length in simulated cycles; boundaries
	// are aligned multiples. Epochs are variable-length: the recorder
	// closes one at the first scheduler tick past a boundary, covering
	// everything since the previous close (an idle jump across several
	// boundaries closes one long epoch, not several empty ones).
	// 0 selects DefaultEpochCycles.
	EpochCycles sim.Cycles
	// Retain bounds the in-memory epoch ring; older epochs are evicted
	// (and counted) as new ones close. 0 selects DefaultRetain.
	Retain int
	// PostmortemEpochs is how many trailing epochs a postmortem copies.
	// 0 selects DefaultPostmortemEpochs.
	PostmortemEpochs int
	// TailRecords is how many trace records per shard a postmortem
	// copies. 0 selects DefaultTailRecords.
	TailRecords int
	// MaxDumps caps kill/trap/death postmortems (a kefence trap storm
	// must not hoard host memory); skipped dumps are counted. The
	// run-end dump is exempt. 0 selects DefaultMaxDumps.
	MaxDumps int
}

// Default Config values.
const (
	DefaultEpochCycles      = sim.Cycles(1 << 24) // ~16.8M cycles ≈ 10ms at 1.7GHz
	DefaultRetain           = 4096
	DefaultPostmortemEpochs = 8
	DefaultTailRecords      = 64
	DefaultMaxDumps         = 8
)

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.EpochCycles <= 0 {
		c.EpochCycles = DefaultEpochCycles
	}
	if c.Retain <= 0 {
		c.Retain = DefaultRetain
	}
	if c.PostmortemEpochs <= 0 {
		c.PostmortemEpochs = DefaultPostmortemEpochs
	}
	if c.TailRecords <= 0 {
		c.TailRecords = DefaultTailRecords
	}
	if c.MaxDumps <= 0 {
		c.MaxDumps = DefaultMaxDumps
	}
	return c
}

// HistDelta is one histogram's movement across an epoch: how many
// observations it gained and what they summed to, plus the cumulative
// quantile triple at epoch close (quantiles don't delta; the triple
// is recomputed from the merged buckets via kperf.Quantiles).
type HistDelta struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50_upper"`
	P90   int64 `json:"p90_upper"`
	P99   int64 `json:"p99_upper"`
}

// AttrDelta is the cycles one (process, mode, subsystem) cell gained
// across an epoch.
type AttrDelta struct {
	Process string `json:"process"`
	Mode    string `json:"mode"`
	Subsys  string `json:"subsys"`
	Cycles  int64  `json:"cycles"`
}

// Epoch is one closed sampling window as readers see it. All maps hold
// only entries that changed during the window (delta encoding). The
// recorder keeps closed epochs in a dense form, rows of (index, value),
// and builds an Epoch from them each time one is read — by Epochs, by a
// postmortem, or by Record — so every Epoch a caller gets owns its maps.
type Epoch struct {
	Seq   int64      `json:"seq"`
	Start sim.Cycles `json:"start"`
	End   sim.Cycles `json:"end"`
	// Ticks counts scheduler boundaries observed inside the window.
	Ticks int64 `json:"ticks"`
	// Counters holds per-counter deltas (changed only).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds end-of-epoch gauge values (changed only).
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Hists holds per-histogram movement (changed only).
	Hists map[string]HistDelta `json:"hists,omitempty"`
	// Attr holds per-(process, mode, subsystem) cycle deltas (nonzero
	// only), rows in deterministic (process, mode, subsys) order.
	Attr []AttrDelta `json:"attr,omitempty"`
}

// SubsysDeltas aggregates the epoch's attribution rows by subsystem.
func (e *Epoch) SubsysDeltas() map[string]int64 {
	out := make(map[string]int64)
	for _, a := range e.Attr {
		out[a.Subsys] += a.Cycles
	}
	return out
}

// TailEvent is one serializable trace record from a shard tail.
type TailEvent struct {
	Process string     `json:"process"`
	Kind    string     `json:"kind"`
	Name    string     `json:"name,omitempty"` // syscall name when resolvable
	Arg     uint32     `json:"arg"`
	Start   sim.Cycles `json:"start"`
	End     sim.Cycles `json:"end"`
	// Req is the ktrace request id that owned the event, 0 when it
	// happened outside any traced request.
	Req uint64 `json:"req,omitempty"`
}

// ReqContext is one process's open traced request at dump time: the
// logical operation it was serving and its trace id, so a postmortem
// answers "which request was in flight" and the tail events can be
// cross-referenced against kprof -req.
type ReqContext struct {
	Process string `json:"process"`
	Op      string `json:"op"`
	TraceID uint64 `json:"trace_id"`
}

// Postmortem is the dump cut at a flight event: what the last K
// epochs looked like and what each process was doing right before.
type Postmortem struct {
	Kind   string     `json:"kind"`
	Detail string     `json:"detail,omitempty"`
	At     sim.Cycles `json:"at"`
	// Epochs are the trailing closed epochs, oldest first; the window
	// open at event time is flushed first so the dump reaches the
	// event itself.
	Epochs []Epoch `json:"epochs,omitempty"`
	// Tail holds the newest trace records per process at dump time.
	Tail []TailEvent `json:"tail,omitempty"`
	// Requests holds each process's open traced request at dump time
	// (processes with no request open are omitted).
	Requests []ReqContext `json:"requests,omitempty"`
}

// Summary is the compact, fully deterministic digest embedded per
// experiment in BENCH_repro.json: every field is a function of
// simulated behavior only, so benchdiff can gate on it.
type Summary struct {
	Epochs       int64            `json:"epochs"`
	Evicted      int64            `json:"evicted,omitempty"`
	Ticks        int64            `json:"ticks"`
	Events       map[string]int64 `json:"events,omitempty"`
	DumpsSkipped int64            `json:"dumps_skipped,omitempty"`
	// PeakEpochSyscalls is the largest per-epoch delta of the
	// sys.calls.total gauge — the run's syscall-rate high-water mark.
	PeakEpochSyscalls int64 `json:"peak_epoch_syscalls,omitempty"`
}

// MergeSummaries folds b into a (multi-machine experiments report one
// combined summary): counts sum, peaks take the max.
func MergeSummaries(a *Summary, b *Summary) *Summary {
	if a == nil {
		if b == nil {
			return nil
		}
		cp := *b
		return &cp
	}
	if b == nil {
		return a
	}
	a.Epochs += b.Epochs
	a.Evicted += b.Evicted
	a.Ticks += b.Ticks
	a.DumpsSkipped += b.DumpsSkipped
	if b.PeakEpochSyscalls > a.PeakEpochSyscalls {
		a.PeakEpochSyscalls = b.PeakEpochSyscalls
	}
	if len(b.Events) > 0 && a.Events == nil {
		a.Events = make(map[string]int64)
	}
	for k, v := range b.Events {
		a.Events[k] += v
	}
	return a
}

// Record is the complete serialized state of a recorder: what ktop
// replays and kprof exports counter tracks from.
type Record struct {
	Schema      string       `json:"schema"`
	Config      Config       `json:"config"`
	Epochs      []Epoch      `json:"epochs"`
	Postmortems []Postmortem `json:"postmortems,omitempty"`
	Summary     Summary      `json:"summary"`
	// Ktrace is the request tracer's latency summary, attached by the
	// writer when a tracer ran alongside the recorder. Kept opaque here
	// so kflight stays ignorant of ktrace (the dependency graph is
	// kperf+sim only); ktop decodes it for the latency panel.
	Ktrace json.RawMessage `json:"ktrace,omitempty"`
}

// Recorder samples one kperf.Set at epoch boundaries. It relies on
// the machine's strict goroutine hand-off exactly like kperf does:
// Tick and Event arrive from whichever goroutine holds the CPU, never
// two at once, so plain fields are race-free.
type Recorder struct {
	cfg Config
	set *kperf.Set

	nextBoundary sim.Cycles
	prevSample   sim.Cycles
	seq          int64
	ticks        int64 // ticks since last close
	totalTicks   int64

	// Close state, indexed by registration order (metrics) and spawn
	// order (processes). last is the registry read at the previous
	// close and cur the read being closed; they swap after each close.
	// lastAttr holds each process's attrCells cycle totals at the
	// previous close.
	last, cur kperf.Sample
	procs     []*kperf.ProcState
	lastAttr  []int64
	scratch   []int64
	callsIdx  int // index of callsGauge, -1 until registered

	// ring holds the retained epochs; once it reaches Retain the
	// oldest sits at ringStart and is the next to be evicted.
	ring      []storedEpoch
	ringStart int
	evicted   int64

	dumps        []Postmortem
	dumpsSkipped int64
	events       map[string]int64

	peakEpochSyscalls int64
}

// attrCells is the number of (mode, subsystem) attribution cells of
// one process.
const attrCells = kperf.NModes * kperf.NSubsys

// callsGauge is the gauge whose per-epoch delta is the syscall rate.
const callsGauge = "sys.calls.total"

// storedEpoch is a closed epoch as the ring keeps it. Each row pairs
// an index with a value: a metric's registration index, or for
// attribution process*attrCells + cell. Histogram rows carry their
// quantiles, computed at close. A slot's row slices are reused by the
// epoch that evicts it, so closing into a full ring allocates nothing.
type storedEpoch struct {
	seq        int64
	start, end sim.Cycles
	ticks      int64
	counters   []row // delta
	gauges     []row // end value
	hists      []histRow
	attr       []row // cycle delta
}

type row struct {
	i int
	v int64
}

type histRow struct {
	i int
	d HistDelta
}

// NewRecorder creates a recorder sampling set. The set must be the
// same one wired into the machine the recorder's hook is attached to.
func NewRecorder(cfg Config, set *kperf.Set) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:          cfg,
		set:          set,
		nextBoundary: cfg.EpochCycles,
		callsIdx:     -1,
		ring:         make([]storedEpoch, 0, min(cfg.Retain, 64)),
		events:       make(map[string]int64),
	}
}

// Config reports the resolved configuration.
func (r *Recorder) Config() Config { return r.cfg }

// Tick is the kernel.FlightHook boundary callback: one compare on the
// fast path, a sample only when the clock passed an epoch boundary.
func (r *Recorder) Tick(now sim.Cycles) {
	r.ticks++
	r.totalTicks++
	if now < r.nextBoundary {
		return
	}
	r.closeEpoch(now)
}

// Event is the kernel.FlightHook event callback: count it, and for
// dump-worthy kinds cut a postmortem (capped, except run end).
func (r *Recorder) Event(now sim.Cycles, kind, detail string) {
	r.events[kind]++
	runEnd := kind == "run_end"
	if !runEnd && len(r.dumps) >= r.cfg.MaxDumps {
		r.dumpsSkipped++
		return
	}
	// Flush the open window so the dump's epochs reach the event.
	if now > r.prevSample || r.ticks > 0 {
		r.closeEpoch(now)
	}
	pm := Postmortem{Kind: kind, Detail: detail, At: now}
	if n := min(len(r.ring), r.cfg.PostmortemEpochs); n > 0 {
		pm.Epochs = make([]Epoch, n)
		names := r.set.Reg.Names()
		for i := range pm.Epochs {
			pm.Epochs[i] = r.render(len(r.ring)-n+i, names)
		}
	}
	pm.Tail = traceTail(r.set, r.cfg.TailRecords)
	pm.Requests = openRequests(r.set)
	r.dumps = append(r.dumps, pm)
}

// traceTail collects the newest perShard trace records of every shard.
func traceTail(set *kperf.Set, perShard int) []TailEvent {
	if set == nil || set.Trace == nil {
		return nil
	}
	var out []TailEvent
	for _, sh := range set.Trace.Shards() {
		label := fmt.Sprintf("%s-%d", sh.Name(), sh.PID())
		for _, ev := range sh.Tail(perShard) {
			te := TailEvent{
				Process: label,
				Kind:    ev.Kind.String(),
				Arg:     ev.Arg,
				Start:   ev.Start,
				End:     ev.End,
				Req:     ev.Req,
			}
			if ev.Kind == kperf.EvSyscallSpan && set.SyscallName != nil {
				te.Name = set.SyscallName(int(ev.Arg))
			}
			out = append(out, te)
		}
	}
	return out
}

// openRequests collects each process's open traced request (spawn
// order, so the listing is deterministic).
func openRequests(set *kperf.Set) []ReqContext {
	if set == nil {
		return nil
	}
	var out []ReqContext
	for _, ps := range set.Procs() {
		if id, op := ps.Request(); id != 0 {
			out = append(out, ReqContext{Process: ps.Label(), Op: op, TraceID: id})
		}
	}
	return out
}

// closeEpoch samples the set and closes the window [prevSample, now]:
// each metric and attribution cell is compared with its value at the
// previous close, and every one that moved adds a row.
func (r *Recorder) closeEpoch(now sim.Cycles) {
	if r.set == nil {
		return
	}
	e := r.slot()
	e.seq, e.start, e.end, e.ticks = r.seq, r.prevSample, now, r.ticks
	r.seq++
	r.ticks = 0

	reg := r.set.Reg
	reg.Sample(&r.cur)
	for i, v := range r.cur.Counters {
		if d := v - valueAt(r.last.Counters, i); d != 0 {
			e.counters = append(e.counters, row{i, d})
		}
	}
	for i, v := range r.cur.Gauges {
		// A gauge is recorded at the first close that sees it, even at 0.
		if i >= len(r.last.Gauges) || v != r.last.Gauges[i] {
			e.gauges = append(e.gauges, row{i, v})
		}
	}
	for i, h := range r.cur.Hists {
		var prev kperf.HistCount
		if i < len(r.last.Hists) {
			prev = r.last.Hists[i]
		}
		if h != prev {
			d := HistDelta{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
			d.P50, d.P90, d.P99 = reg.HistQuantiles(i)
			e.hists = append(e.hists, histRow{i, d})
		}
	}

	r.procs = r.set.AppendProcs(r.procs)
	if n := len(r.procs) * attrCells; n > len(r.lastAttr) {
		r.lastAttr = append(r.lastAttr, make([]int64, n-len(r.lastAttr))...)
	}
	for p, ps := range r.procs {
		r.scratch = ps.ModeSubsysCycles(r.scratch)
		last := r.lastAttr[p*attrCells : (p+1)*attrCells]
		for cell, v := range r.scratch {
			if d := v - last[cell]; d != 0 {
				e.attr = append(e.attr, row{p*attrCells + cell, d})
				last[cell] = v
			}
		}
	}

	if r.callsIdx < 0 {
		r.callsIdx = slices.Index(reg.Names().Gauges, callsGauge)
	}
	if i := r.callsIdx; i >= 0 {
		if rate := r.cur.Gauges[i] - valueAt(r.last.Gauges, i); rate > r.peakEpochSyscalls {
			r.peakEpochSyscalls = rate
		}
	}
	r.last, r.cur = r.cur, r.last

	r.prevSample = now
	// Align the next boundary past now; a long jump closes one long
	// epoch instead of a train of empty ones.
	r.nextBoundary = (now/r.cfg.EpochCycles + 1) * r.cfg.EpochCycles
}

// valueAt reads entry i of an earlier sample: 0 for a metric
// registered since.
func valueAt(vs []int64, i int) int64 {
	if i < len(vs) {
		return vs[i]
	}
	return 0
}

// slot returns the ring slot for the epoch being closed: a new one
// while the ring is below Retain, else the oldest, evicted and emptied
// for reuse.
func (r *Recorder) slot() *storedEpoch {
	if len(r.ring) < r.cfg.Retain {
		r.ring = append(r.ring, storedEpoch{})
		return &r.ring[len(r.ring)-1]
	}
	e := &r.ring[r.ringStart]
	r.ringStart = (r.ringStart + 1) % len(r.ring)
	r.evicted++
	e.counters, e.gauges, e.hists, e.attr = e.counters[:0], e.gauges[:0], e.hists[:0], e.attr[:0]
	return e
}

// render builds the Epoch of the i-th retained epoch, oldest first.
// The registry's names and the recorder's process list only grow, so
// they cover every index an older epoch holds.
func (r *Recorder) render(i int, names kperf.MetricNames) Epoch {
	s := &r.ring[(r.ringStart+i)%len(r.ring)]
	e := Epoch{
		Seq:      s.seq,
		Start:    s.start,
		End:      s.end,
		Ticks:    s.ticks,
		Counters: namedRows(s.counters, names.Counters),
		Gauges:   namedRows(s.gauges, names.Gauges),
	}
	if len(s.hists) > 0 {
		e.Hists = make(map[string]HistDelta, len(s.hists))
		for _, h := range s.hists {
			e.Hists[names.Hists[h.i]] = h.d
		}
	}
	for _, a := range s.attr {
		cell := a.i % attrCells
		e.Attr = append(e.Attr, AttrDelta{
			Process: r.procs[a.i/attrCells].Label(),
			Mode:    kperf.Mode(cell / kperf.NSubsys).String(),
			Subsys:  kperf.Subsys(cell % kperf.NSubsys).String(),
			Cycles:  a.v,
		})
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
	return e
}

// namedRows maps rows to the names of the readings they index; nil
// when there are none, so empty maps stay out of the JSON.
func namedRows(rows []row, names []string) map[string]int64 {
	if len(rows) == 0 {
		return nil
	}
	m := make(map[string]int64, len(rows))
	for _, rw := range rows {
		m[names[rw.i]] = rw.v
	}
	return m
}

// Epochs returns the retained epochs oldest-first.
func (r *Recorder) Epochs() []Epoch {
	out := make([]Epoch, len(r.ring))
	if len(out) > 0 {
		names := r.set.Reg.Names()
		for i := range out {
			out[i] = r.render(i, names)
		}
	}
	return out
}

// Postmortems returns the dumps cut so far.
func (r *Recorder) Postmortems() []Postmortem {
	return append([]Postmortem(nil), r.dumps...)
}

// Evicted reports epochs lost to retention.
func (r *Recorder) Evicted() int64 { return r.evicted }

// Summary digests the recorder for BENCH embedding.
func (r *Recorder) Summary() *Summary {
	s := &Summary{
		Epochs:            r.seq,
		Evicted:           r.evicted,
		Ticks:             r.totalTicks,
		DumpsSkipped:      r.dumpsSkipped,
		PeakEpochSyscalls: r.peakEpochSyscalls,
	}
	if len(r.events) > 0 {
		s.Events = make(map[string]int64, len(r.events))
		for k, v := range r.events {
			s.Events[k] = v
		}
	}
	return s
}

// Record assembles the full serializable state.
func (r *Recorder) Record() *Record {
	return &Record{
		Schema:      Schema,
		Config:      r.cfg,
		Epochs:      r.Epochs(),
		Postmortems: r.Postmortems(),
		Summary:     *r.Summary(),
	}
}

// WriteJSON serializes the record.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Record())
}

// ReadRecord parses a serialized record (ktop replay).
func ReadRecord(rd io.Reader) (*Record, error) {
	var rec Record
	if err := json.NewDecoder(rd).Decode(&rec); err != nil {
		return nil, fmt.Errorf("kflight: parse record: %w", err)
	}
	if rec.Schema != Schema {
		return nil, fmt.Errorf("kflight: schema %q, want %q", rec.Schema, Schema)
	}
	return &rec, nil
}
