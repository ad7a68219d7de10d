// Package kflight is the simulated-time flight recorder: a bounded,
// delta-encoded time series over everything kperf measures, plus
// postmortem dumps cut at kills, traps, extension deaths, and run end.
//
// kperf (the metric layer) answers "what did the whole run cost";
// kflight answers "what was happening in the window leading up to
// cycle X". At every scheduler boundary the kernel announces the
// simulated clock through the kernel.Observer seam; when the clock passes
// an epoch boundary the recorder closes an epoch — every gauge that
// changed, the movement of every histogram, and the delta of every
// per-(process, mode, subsystem) attribution cell since the previous
// close — into a bounded retention window. Postmortems copy the last
// K epochs and each trace shard's tail, so a kill arrives with its
// own history attached.
//
// The package inherits kperf's central invariant and strengthens it
// structurally: sampling is host-side only. The recorder is driven
// through an interface that cannot return a cost, it only ever reads
// the clock and kperf state, and it never calls Charge — so a run
// with the recorder attached is bit-identical in simulated cycles to
// one without. The determinism suite asserts exactly that.
//
// kflight imports only kperf and sim; internal/kernel's Observer is
// satisfied structurally (the recorder overrides Tick and Event of an
// embedded kperf.NopObserver), keeping the dependency graph acyclic in
// both directions (kernel knows no recorder, recorder knows no
// kernel).
package kflight

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
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
	// Retain bounds the in-memory epochs; older epochs are evicted
	// (and counted) as new ones close. Their slots are allocated when
	// the recorder is created. 0 selects DefaultRetain.
	Retain int
}

// Default Config values.
const (
	DefaultEpochCycles = sim.Cycles(1 << 24) // ~16.8M cycles ≈ 10ms at 1.7GHz
	DefaultRetain      = 4096
)

// Postmortem sizes.
const (
	// postmortemEpochs is how many trailing epochs a postmortem copies.
	postmortemEpochs = 8
	// tailRecords is how many trace records per shard a postmortem
	// copies.
	tailRecords = 64
	// maxDumps caps kill/trap/death postmortems (a kefence trap storm
	// must not hoard host memory); skipped dumps are counted. The
	// run-end dump is exempt.
	maxDumps = 8
)

// RecordConfig is a record's "config" object: the recorder's Config
// and its fixed postmortem sizes, which kflight/v1 records carry.
type RecordConfig struct {
	Config
	PostmortemEpochs, TailRecords, MaxDumps int
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.EpochCycles <= 0 {
		c.EpochCycles = DefaultEpochCycles
	}
	if c.Retain <= 0 {
		c.Retain = DefaultRetain
	}
	return c
}

// HistDelta is one histogram's movement across an epoch: how many
// observations it gained and what they summed to, plus the cumulative
// quantile triple at epoch close (quantiles don't delta; the triple
// comes with the registry's sample, from the marks each histogram
// keeps, and equals what kperf.Quantiles computes from its buckets).
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
// recorder keeps closed epochs in a dense form, varint rows of (index
// gap, values), and builds an Epoch from them each time one is read —
// by Epochs, by a postmortem, or by Record — so every Epoch a caller
// gets owns its maps.
type Epoch struct {
	Seq   int64      `json:"seq"`
	Start sim.Cycles `json:"start"`
	End   sim.Cycles `json:"end"`
	// Ticks counts scheduler boundaries observed inside the window.
	Ticks int64 `json:"ticks"`
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
// combined summary): counts sum, peaks take the max. With a nil, it
// returns a copy of b that shares nothing with it.
func MergeSummaries(a *Summary, b *Summary) *Summary {
	if a == nil {
		if b == nil {
			return nil
		}
		cp := *b
		cp.Events = maps.Clone(b.Events)
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
	Config      RecordConfig `json:"config"`
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
	kperf.NopObserver

	cfg Config
	set *kperf.Set

	nextBoundary sim.Cycles
	prevSample   sim.Cycles
	ticks        int64 // ticks since last close
	totalTicks   int64

	// Close state, indexed by registration order (metrics) and spawn
	// order (processes). last is the registry read at the previous
	// close, which the next read compares against and replaces;
	// lastAttr holds each process's attrCells cycle totals at the
	// previous close.
	last     kperf.Sample
	lastAttr []sim.Cycles
	// callsIdx is the index of callsGauge, -1 until registered;
	// callsSearched is how many gauges the last search for it saw, and
	// lastCalls its value at the previous close.
	callsIdx, callsSearched int
	lastCalls               int64

	// ring holds the retained epochs; their rows live in log.
	ring kperf.Window[storedEpoch]
	log  rowLog

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

// storedEpoch is a closed epoch as the ring keeps it: its rows,
// encoded in the recorder's row log and held as a sub-slice of it, and
// how many rows of each kind they are. An epoch's sequence number is
// not stored: it is the epoch's position among all the epochs written
// to the ring.
type storedEpoch struct {
	start, end sim.Cycles
	ticks      int64
	rows       []byte
	n          [nRowKinds]int32
}

// rowKind is the kind of a row: what its index names and which values
// follow it.
type rowKind uint8

// The row kinds, in the order an epoch's rows come in. Each row is the
// gap from the previous row of its kind's index (or from -1) as a
// uvarint, then its values:
//
//   - a gauge row, the gauge's end value as a zigzag varint;
//   - a histogram row, the count and sum deltas as uvarints and the
//     bucket of each of p50, p90 and p99 as a byte;
//   - an attribution row, indexed process*attrCells + cell, the
//     cycle delta as a uvarint.
//
// A delta that is negative round-trips as its two's complement bits.
const (
	gaugeRow rowKind = iota
	histRow
	attrRow
	nRowKinds
)

// maxRowBytes is the longest a row's encoding can be: a histogram row
// of three full varints and three bytes.
const maxRowBytes = 3*binary.MaxVarintLen64 + 3

// blockBytes is how many bytes a row log's block holds.
const blockBytes = 32 << 10

// rowLog keeps the closed epochs' rows, oldest first, in blocks of
// blockBytes bytes, filled in epoch order. An epoch's rows are
// contiguous in one block, and its ring slot holds them as a
// sub-slice. A block is recycled once every epoch with rows in it has
// been evicted, so the log holds about the bytes the ring retains plus
// two blocks, and a close into recycled blocks allocates nothing. An
// epoch that alone outgrows a block gets a larger one.
type rowLog struct {
	// tail is the block rows are added to; the open epoch's rows begin
	// at start, and n counts them by kind. last is the index of the
	// open epoch's newest row. newest is the sequence number of the
	// newest closed epoch with rows in the log.
	tail   []byte
	start  int
	n      [nRowKinds]int32
	last   int
	newest int64
	// full holds the earlier blocks, oldest first; free the recycled.
	full []logBlock
	free [][]byte
	// evicted is the ring's Overwritten count once the open epoch has
	// its slot: older epochs' rows are garbage.
	evicted int64
}

type logBlock struct {
	rows   []byte
	newest int64
}

// open starts an epoch's rows.
func (l *rowLog) open(evicted int64) {
	l.start, l.evicted = len(l.tail), evicted
	l.n = [nRowKinds]int32{}
}

// index starts a row of kind k for index i, after reserving room for
// the longest row. An epoch's rows come kind by kind, in the rowKind
// order, and in increasing index order within a kind.
func (l *rowLog) index(k rowKind, i int) {
	if cap(l.tail)-len(l.tail) < maxRowBytes {
		l.grow()
	}
	prev := l.last
	if l.n[k] == 0 {
		prev = -1
	}
	l.tail = binary.AppendUvarint(l.tail, uint64(i-prev-1))
	l.last = i
	l.n[k]++
}

// gauge adds a gauge row: gauge i ended the epoch at v.
func (l *rowLog) gauge(i int, v int64) {
	l.index(gaugeRow, i)
	l.tail = binary.AppendVarint(l.tail, v)
}

// hist adds a histogram row.
func (l *rowLog) hist(m kperf.HistMove) {
	l.index(histRow, m.I)
	l.tail = binary.AppendUvarint(l.tail, uint64(m.Count))
	l.tail = binary.AppendUvarint(l.tail, uint64(m.Sum))
	l.tail = append(l.tail, m.Quantiles[0], m.Quantiles[1], m.Quantiles[2])
}

// attr adds an attribution row: cell i gained cycles.
func (l *rowLog) attr(i int, cycles int64) {
	l.index(attrRow, i)
	l.tail = binary.AppendUvarint(l.tail, uint64(cycles))
}

// close ends the open epoch, sequence number seq, and returns its rows
// and their count by kind.
func (l *rowLog) close(seq int64) ([]byte, [nRowKinds]int32) {
	if len(l.tail) == l.start {
		return nil, l.n
	}
	l.newest = seq
	return l.tail[l.start:len(l.tail):len(l.tail)], l.n
}

// grow moves the open epoch's rows to a new tail with room for the
// longest row after them: a recycled block if one is that large once
// the blocks holding only evicted epochs are recycled, else a new one.
func (l *rowLog) grow() {
	moved := l.tail[l.start:]
	if l.start > 0 { // else the open epoch alone filled it: drop it
		l.full = append(l.full, logBlock{l.tail[:l.start], l.newest})
	}
	k := 0
	for k < len(l.full) && l.full[k].newest < l.evicted {
		l.free = append(l.free, l.full[k].rows[:0])
		k++
	}
	l.full = l.full[:copy(l.full, l.full[k:])]

	// The recycled block may be the one moved is in; append copies
	// the overlapping rows correctly.
	need := len(moved) + maxRowBytes
	var rows []byte
	if f := len(l.free); f > 0 && cap(l.free[f-1]) >= need {
		rows, l.free = l.free[f-1], l.free[:f-1]
	} else {
		rows = make([]byte, 0, max(blockBytes, 2*need))
	}
	l.tail = append(rows, moved...)
	l.start = 0
}

// decode reads a stored epoch's rows back in order, calling the func
// of each row's kind with its index and values.
func (e *storedEpoch) decode(gauge func(i int, v int64), hist func(i int, d HistDelta), attr func(i int, cycles int64)) {
	b := e.rows
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b)
		b = b[n:]
		return v
	}
	for k, n := range e.n {
		i := -1
		for range n {
			i += int(uvarint()) + 1
			switch rowKind(k) {
			case gaugeRow:
				v, w := binary.Varint(b)
				b = b[w:]
				gauge(i, v)
			case histRow:
				d := HistDelta{Count: int64(uvarint()), Sum: int64(uvarint())}
				d.P50, d.P90, d.P99 = 1<<b[0], 1<<b[1], 1<<b[2]
				b = b[3:]
				hist(i, d)
			case attrRow:
				attr(i, int64(uvarint()))
			}
		}
	}
}

// NewRecorder creates a recorder sampling set. The set must be the
// same one wired into the machine the recorder observes.
func NewRecorder(cfg Config, set *kperf.Set) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:          cfg,
		set:          set,
		nextBoundary: cfg.EpochCycles,
		callsIdx:     -1,
		ring:         kperf.NewWindow[storedEpoch](cfg.Retain),
		events:       make(map[string]int64),
	}
}

// Config reports the resolved configuration.
func (r *Recorder) Config() Config { return r.cfg }

// Tick is the kernel.Observer boundary callback: one compare on the
// fast path, a sample only when the clock passed an epoch boundary.
func (r *Recorder) Tick(now sim.Cycles) {
	r.ticks++
	r.totalTicks++
	if now < r.nextBoundary {
		return
	}
	r.closeEpoch(now)
}

// Event is the kernel.Observer event callback: count it, and for
// dump-worthy kinds cut a postmortem (capped, except run end).
func (r *Recorder) Event(now sim.Cycles, kind, detail string) {
	r.events[kind]++
	runEnd := kind == "run_end"
	if !runEnd && len(r.dumps) >= maxDumps {
		r.dumpsSkipped++
		return
	}
	// Flush the open window so the dump's epochs reach the event.
	if now > r.prevSample || r.ticks > 0 {
		r.closeEpoch(now)
	}
	pm := Postmortem{Kind: kind, Detail: detail, At: now}
	if n := min(r.ring.Len(), postmortemEpochs); n > 0 {
		pm.Epochs = make([]Epoch, n)
		names := r.set.Reg.Names()
		for i := range pm.Epochs {
			pm.Epochs[i] = r.render(r.ring.Len()-n+i, names)
		}
	}
	pm.Tail = traceTail(r.set, tailRecords)
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
	// The slot Next hands out holds the evicted epoch once the ring is
	// full; the rows it pointed at are evicted with it.
	e := r.ring.Next()
	e.start, e.end, e.ticks = r.prevSample, now, r.ticks
	r.ticks = 0
	r.log.open(r.ring.Overwritten())

	s := &r.last
	r.set.Reg.Sample(s)
	for _, i := range s.MovedGauges {
		r.log.gauge(i, s.Gauges[i])
	}
	for _, m := range s.MovedHists {
		r.log.hist(m)
	}

	procs := r.set.Procs()
	if n := len(procs) * attrCells; n > len(r.lastAttr) {
		r.lastAttr = append(r.lastAttr, make([]sim.Cycles, n-len(r.lastAttr))...)
	}
	for p, ps := range procs {
		last := r.lastAttr[p*attrCells : (p+1)*attrCells]
		for cell, v := range ps.ModeSubsysCycles() {
			if v != last[cell] {
				r.log.attr(p*attrCells+cell, int64(v-last[cell]))
				last[cell] = v
			}
		}
	}
	e.rows, e.n = r.log.close(r.ring.Written() - 1)

	if r.callsIdx < 0 && len(s.Gauges) > r.callsSearched {
		r.callsIdx = slices.Index(r.set.Reg.Names().Gauges, callsGauge)
		r.callsSearched = len(s.Gauges)
	}
	if i := r.callsIdx; i >= 0 {
		if rate := s.Gauges[i] - r.lastCalls; rate > r.peakEpochSyscalls {
			r.peakEpochSyscalls = rate
		}
		r.lastCalls = s.Gauges[i]
	}

	r.prevSample = now
	// Align the next boundary past now; a long jump closes one long
	// epoch instead of a train of empty ones.
	r.nextBoundary = (now/r.cfg.EpochCycles + 1) * r.cfg.EpochCycles
}

// render builds the Epoch of the i-th retained epoch, oldest first.
// The registry's names and the set's process list only grow, so they
// cover every index an older epoch holds.
func (r *Recorder) render(i int, names kperf.MetricNames) Epoch {
	s := r.ring.At(i)
	e := Epoch{
		Seq:   r.ring.Overwritten() + int64(i),
		Start: s.start,
		End:   s.end,
		Ticks: s.ticks,
	}
	// Empty maps stay nil, and so out of the JSON.
	if n := s.n[gaugeRow]; n > 0 {
		e.Gauges = make(map[string]int64, n)
	}
	if n := s.n[histRow]; n > 0 {
		e.Hists = make(map[string]HistDelta, n)
	}
	procs := r.set.Procs()
	s.decode(
		func(i int, v int64) { e.Gauges[names.Gauges[i]] = v },
		func(i int, d HistDelta) { e.Hists[names.Hists[i]] = d },
		func(i int, cycles int64) {
			cell := i % attrCells
			e.Attr = append(e.Attr, AttrDelta{
				Process: procs[i/attrCells].Label(),
				Mode:    kperf.Mode(cell / kperf.NSubsys).String(),
				Subsys:  kperf.Subsys(cell % kperf.NSubsys).String(),
				Cycles:  cycles,
			})
		})
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

// Epochs returns the retained epochs oldest-first.
func (r *Recorder) Epochs() []Epoch {
	out := make([]Epoch, r.ring.Len())
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
func (r *Recorder) Evicted() int64 { return r.ring.Overwritten() }

// Summary digests the recorder for BENCH embedding.
func (r *Recorder) Summary() *Summary {
	s := &Summary{
		Epochs:            r.ring.Written(),
		Evicted:           r.ring.Overwritten(),
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
		Config:      RecordConfig{r.cfg, postmortemEpochs, tailRecords, maxDumps},
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
