package kflight

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/kperf"
	"repro/internal/sim"
)

// newTestRecorder builds a recorder over a fresh 8-syscall set with a
// tiny epoch so unit tests close many epochs cheaply.
func newTestRecorder(cfg Config) (*Recorder, *kperf.Set) {
	set := kperf.New(8, 16)
	set.SyscallName = func(nr int) string { return "call" }
	if cfg.EpochCycles == 0 {
		cfg.EpochCycles = 1000
	}
	return NewRecorder(cfg, set), set
}

// TestEpochDeltasSumToCumulative drives metrics across several epochs
// and checks the delta encoding reconstructs the cumulative totals —
// the property every consumer (ktop, benchdiff, counter tracks)
// depends on.
func TestEpochDeltasSumToCumulative(t *testing.T) {
	r, set := newTestRecorder(Config{})
	var ops, depth int64
	set.Reg.GaugeVar("test.ops", &ops)
	set.Reg.GaugeVar("test.depth", &depth)
	ps := set.NewProc(1, "proc")

	// Epoch 0: ops 3, depth 7, one syscall span, 400 user cycles.
	ops, depth = 3, 7
	ps.SyscallEnter(2, 100)
	ps.SyscallExit(300) // observes the 200-cycle span
	ps.OnCycles(400, false)
	r.Tick(1500) // past boundary 1000: closes [0,1500]

	// Epoch 1: ops +5, depth unchanged, 200 kernel cycles.
	ops += 5
	ps.OnCycles(200, true)
	r.Tick(1600) // below next boundary (2000): no close
	r.Tick(2500) // closes [1500,2500]

	// Long idle jump: closes ONE long epoch, not a train.
	ops++
	r.Tick(9100) // closes [2500,9100] in a single epoch

	epochs := r.Epochs()
	if len(epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(epochs))
	}
	if epochs[2].Start != 2500 || epochs[2].End != 9100 {
		t.Errorf("long epoch = [%d,%d], want [2500,9100]", epochs[2].Start, epochs[2].End)
	}
	if epochs[0].Ticks != 1 || epochs[1].Ticks != 2 {
		t.Errorf("ticks = %d,%d, want 1,2", epochs[0].Ticks, epochs[1].Ticks)
	}

	// Gauges are end-values, changed-only: each epoch that moved
	// test.ops carries its new value, so carrying the last one forward
	// reconstructs the current value.
	var got []int64
	for _, e := range epochs {
		got = append(got, e.Gauges["test.ops"])
	}
	if !slices.Equal(got, []int64{3, 8, 9}) {
		t.Errorf("test.ops end values = %v, want 3, 8, 9", got)
	}
	// test.depth is present in epoch 0, absent after (no change).
	if epochs[0].Gauges["test.depth"] != 7 {
		t.Errorf("epoch 0 gauge = %d, want 7", epochs[0].Gauges["test.depth"])
	}
	if _, ok := epochs[1].Gauges["test.depth"]; ok {
		t.Error("unchanged gauge re-encoded in epoch 1")
	}
	// Histogram delta carries the movement and the quantile triple.
	h := epochs[0].Hists["sys.span.cycles"]
	if h.Count != 1 || h.Sum != 200 {
		t.Errorf("hist delta = {%d,%d}, want {1,200}", h.Count, h.Sum)
	}
	if h.P50 != 256 || h.P99 != 256 {
		t.Errorf("hist quantiles = p50 %d p99 %d, want 256/256 (upper bound of 200)", h.P50, h.P99)
	}
	// Attribution deltas reconstruct the per-subsystem cumulative.
	attrTotal := map[string]int64{}
	for _, e := range epochs {
		for sub, c := range e.SubsysDeltas() {
			attrTotal[sub] += c
		}
	}
	if attrTotal["user"] != 400 {
		t.Errorf("user cycles = %d, want 400", attrTotal["user"])
	}
	// 200 kernel cycles landed inside no syscall => kern subsystem.
	if attrTotal["kern"] != 200 {
		t.Errorf("kern cycles = %d, want 200", attrTotal["kern"])
	}
	// Rows are deterministically ordered.
	for _, e := range epochs {
		for i := 1; i < len(e.Attr); i++ {
			a, b := e.Attr[i-1], e.Attr[i]
			if a.Process > b.Process ||
				(a.Process == b.Process && a.Mode > b.Mode) ||
				(a.Process == b.Process && a.Mode == b.Mode && a.Subsys >= b.Subsys) {
				t.Fatalf("attr rows out of order: %+v before %+v", a, b)
			}
		}
	}
}

// TestRetentionRingEviction closes more epochs than the ring retains
// and checks the oldest are evicted and counted while sequence numbers
// keep climbing.
func TestRetentionRingEviction(t *testing.T) {
	r, set := newTestRecorder(Config{Retain: 4})
	var ops int64
	set.Reg.GaugeVar("test.ops", &ops)
	for i := 1; i <= 10; i++ {
		ops++ // make each epoch non-empty
		r.Tick(sim.Cycles(i) * 1000)
	}
	epochs := r.Epochs()
	if len(epochs) != 4 {
		t.Fatalf("retained = %d, want 4", len(epochs))
	}
	if r.Evicted() != 6 {
		t.Errorf("evicted = %d, want 6", r.Evicted())
	}
	for i, e := range epochs {
		if want := int64(6 + i); e.Seq != want {
			t.Errorf("epoch[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	s := r.Summary()
	if s.Epochs != 10 || s.Evicted != 6 || s.Ticks != 10 {
		t.Errorf("summary = %+v, want epochs 10 evicted 6 ticks 10", s)
	}
}

// TestEventPostmortems checks dump contents, the cap of 8 dumps, and
// the run-end exemption, at the recorder's postmortem sizes.
func TestEventPostmortems(t *testing.T) {
	r, set := newTestRecorder(Config{})
	var ops int64
	set.Reg.GaugeVar("test.ops", &ops)
	ps := set.NewProc(1, "victim")
	for i := 1; i <= 8; i++ {
		ops++
		r.Tick(sim.Cycles(i) * 1000)
	}
	ps.SyscallEnter(1, 8000)
	ps.SyscallExit(8100)

	// Open window [8000,8500] flushes into the first dump's epochs.
	ops++
	for k := range 9 { // the 9th kill is over the cap
		r.Event(8500+sim.Cycles(100*k), "kill", fmt.Sprintf("victim-1: kill %d", k))
	}
	r.Event(10000, "run_end", "") // exempt from the cap

	pms := r.Postmortems()
	if len(pms) != 9 {
		t.Fatalf("postmortems = %d, want 9 (8 kills + run_end)", len(pms))
	}
	if pms[0].Kind != "kill" || pms[7].Kind != "kill" || pms[8].Kind != "run_end" {
		t.Errorf("kinds = %s,%s,%s", pms[0].Kind, pms[7].Kind, pms[8].Kind)
	}
	if n := len(pms[0].Epochs); n != 8 {
		t.Fatalf("dump epochs = %d, want 8", n)
	}
	// The flushed open window is the newest epoch in the dump and
	// reaches the event cycle.
	last := pms[0].Epochs[7]
	if last.End != 8500 {
		t.Errorf("dump's newest epoch ends at %d, want the event cycle 8500", last.End)
	}
	if last.Gauges["test.ops"] != 9 {
		t.Errorf("flushed window gauge = %d, want 9", last.Gauges["test.ops"])
	}
	// The tail names the syscall via the injected resolver.
	var sawCall bool
	for _, te := range pms[0].Tail {
		if te.Process == "victim-1" && te.Name == "call" {
			sawCall = true
		}
	}
	if !sawCall {
		t.Errorf("tail %+v missing named syscall record for victim-1", pms[0].Tail)
	}
	s := r.Summary()
	if s.DumpsSkipped != 1 {
		t.Errorf("dumps skipped = %d, want 1", s.DumpsSkipped)
	}
	if s.Events["kill"] != 9 || s.Events["run_end"] != 1 {
		t.Errorf("events = %+v, want kill:9 run_end:1", s.Events)
	}
}

// TestMergeSummaries covers nil handling and sum/max folding, and that
// a fold into merge(nil, b)'s copy leaves b alone.
func TestMergeSummaries(t *testing.T) {
	if MergeSummaries(nil, nil) != nil {
		t.Error("merge(nil,nil) != nil")
	}
	b := &Summary{Epochs: 2, Ticks: 5, PeakEpochSyscalls: 9, Events: map[string]int64{"kill": 1}}
	cp := MergeSummaries(nil, b)
	if cp == b || cp.Epochs != 2 || cp.Events["kill"] != 1 {
		t.Errorf("merge(nil,b) must copy: got %+v", cp)
	}
	MergeSummaries(cp, &Summary{Epochs: 1, Events: map[string]int64{"kill": 5}})
	if b.Epochs != 2 || b.Events["kill"] != 1 || cp.Events["kill"] != 6 {
		t.Errorf("folding into the copy changed b: b %+v, copy %+v", b, cp)
	}
	a := &Summary{Epochs: 3, Evicted: 1, Ticks: 7, DumpsSkipped: 2, PeakEpochSyscalls: 4,
		Events: map[string]int64{"kill": 2, "trap": 1}}
	got := MergeSummaries(a, b)
	if got.Epochs != 5 || got.Evicted != 1 || got.Ticks != 12 || got.DumpsSkipped != 2 {
		t.Errorf("counts wrong: %+v", got)
	}
	if got.PeakEpochSyscalls != 9 {
		t.Errorf("peak = %d, want max(4,9) = 9", got.PeakEpochSyscalls)
	}
	if got.Events["kill"] != 3 || got.Events["trap"] != 1 {
		t.Errorf("events = %+v", got.Events)
	}
}

// TestRecordRoundTrip serializes a record and replays it, and rejects
// foreign schemas.
func TestRecordRoundTrip(t *testing.T) {
	r, set := newTestRecorder(Config{})
	ops := int64(42)
	set.Reg.GaugeVar("test.ops", &ops)
	r.Tick(1500)
	r.Event(2000, "run_end", "")

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecord(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schema != Schema || len(rec.Epochs) != 2 || len(rec.Postmortems) != 1 {
		t.Errorf("round trip: schema %q, %d epochs, %d postmortems",
			rec.Schema, len(rec.Epochs), len(rec.Postmortems))
	}
	if rec.Epochs[0].Gauges["test.ops"] != 42 {
		t.Errorf("gauge lost in round trip: %+v", rec.Epochs[0].Gauges)
	}
	if rec.Summary.Epochs != 2 {
		t.Errorf("summary.Epochs = %d, want 2", rec.Summary.Epochs)
	}

	if _, err := ReadRecord(strings.NewReader(`{"schema":"other/v1"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
}

// TestCounterTracks checks the derived series kprof exports and ktop
// renders: syscall rate from gauge deltas, cumulative TLB ratio, and
// per-subsystem cycle tracks.
func TestCounterTracks(t *testing.T) {
	rec := &Record{
		Schema: Schema,
		Epochs: []Epoch{
			{Seq: 0, End: 1000,
				Gauges: map[string]int64{"sys.calls.total": 10, "mem.tlb.hits": 9, "mem.tlb.misses": 1},
				Attr:   []AttrDelta{{Process: "p-1", Mode: "kernel", Subsys: "kern", Cycles: 700}}},
			{Seq: 1, End: 2000,
				Gauges: map[string]int64{"sys.calls.total": 25, "mem.tlb.hits": 19},
				Attr: []AttrDelta{
					{Process: "p-1", Mode: "kernel", Subsys: "kern", Cycles: 300},
					{Process: "p-1", Mode: "user", Subsys: "user", Cycles: 100}}},
		},
	}
	byName := map[string][]kperf.CounterPoint{}
	for _, tr := range rec.CounterTracks() {
		byName[tr.Name] = tr.Points
	}
	calls := byName["syscalls/epoch"]
	if len(calls) != 2 || calls[0].Value != 10 || calls[1].Value != 15 {
		t.Errorf("syscalls/epoch = %+v, want deltas 10,15", calls)
	}
	tlb := byName["tlb.hit.ratio"]
	if len(tlb) != 2 || tlb[0].Value != 0.9 || tlb[1].Value != 0.95 {
		t.Errorf("tlb.hit.ratio = %+v, want 0.9, 0.95", tlb)
	}
	kern := byName["cycles.kern"]
	if len(kern) != 2 || kern[0].Value != 700 || kern[1].Value != 300 {
		t.Errorf("cycles.kern = %+v, want 700,300", kern)
	}
	if user := byName["cycles.user"]; len(user) != 1 || user[0].Value != 100 {
		t.Errorf("cycles.user = %+v, want one point of 100", user)
	}
	if calls[1].At != 2000 {
		t.Errorf("points stamped at %d, want epoch end 2000", calls[1].At)
	}
}
