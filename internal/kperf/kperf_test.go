package kperf

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestCounterGaugeRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sys.calls")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("sys.calls") != c {
		t.Fatal("Counter not idempotent by name")
	}
	g := r.Gauge("cache.size")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	lazy := int64(0)
	r.GaugeFunc("lazy.reads", func() int64 { return lazy })
	lazy = 42
	sn := r.Snapshot()
	if sn.Counters["sys.calls"] != 5 || sn.Gauges["cache.size"] != 7 || sn.Gauges["lazy.reads"] != 42 {
		t.Fatalf("snapshot mismatch: %+v", sn)
	}

	// A func registered under a plain gauge's name wins in both reads,
	// keeping the gauge's position; a counter may share a gauge's name.
	r.GaugeFunc("cache.size", func() int64 { return -1 })
	r.Counter("cache.size").Add(3)
	r.Histogram("lat").Observe(100)
	if sn := r.Snapshot(); sn.Gauges["cache.size"] != -1 || sn.Counters["cache.size"] != 3 {
		t.Fatalf("snapshot after re-registration: %+v", sn)
	}
	var s Sample
	r.Sample(&s)
	names := r.Names()
	if !slices.Equal(names.Counters, []string{"sys.calls", "cache.size"}) ||
		!slices.Equal(names.Gauges, []string{"cache.size", "lazy.reads"}) ||
		!slices.Equal(names.Hists, []string{"lat"}) {
		t.Fatalf("names = %+v", names)
	}
	if !slices.Equal(s.Counters, []int64{5, 3}) || !slices.Equal(s.Gauges, []int64{-1, 42}) ||
		!slices.Equal(s.Hists, []HistCount{{1, 100}}) {
		t.Fatalf("sample = %+v", s)
	}
	if p50, _, p99 := r.HistQuantiles(0); p50 != 128 || p99 != 128 {
		t.Fatalf("HistQuantiles p50 %d p99 %d, want 128/128", p50, p99)
	}

	// A gauge group's func runs once per read and fills every member.
	walks := 0
	r.GaugeFuncs([]string{"grp.a", "grp.b"}, func(vals []int64) {
		walks++
		vals[0], vals[1] = int64(walks), int64(10*walks)
	})
	r.Sample(&s)
	r.Sample(&s)
	if walks != 2 || !slices.Equal(s.Gauges, []int64{-1, 42, 2, 20}) {
		t.Fatalf("after %d group walks, sample gauges %v", walks, s.Gauges)
	}
	if sn := r.Snapshot(); walks != 3 || sn.Gauges["grp.a"] != 3 || sn.Gauges["grp.b"] != 30 {
		t.Fatalf("after %d group walks, snapshot gauges %v", walks, sn.Gauges)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	for _, v := range []sim.Cycles{1, 2, 3, 100, 1000, 1_000_000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1_001_106 {
		t.Fatalf("count %d sum %d", h.Count(), h.Sum())
	}
	sn := h.Snapshot()
	if sn.Min != 1 || sn.Max != 1_000_000 {
		t.Fatalf("min/max %d/%d", sn.Min, sn.Max)
	}
	// Quantile returns the upper bound of the bucket holding the q-th
	// observation: the 4th of {1,2,3,100,1000,1e6} is 100 → bucket 2^7.
	if sn.P50 != 128 {
		t.Fatalf("p50 upper estimate %d, want 128", sn.P50)
	}
	if sn.P99 < 1_000_000 {
		t.Fatalf("p99 %d below max observation's bucket", sn.P99)
	}
	h.Observe(-5) // clamps, does not panic
	if h.Snapshot().Min != 0 {
		t.Fatal("negative observation should clamp to 0")
	}
}

func TestTracerShardRecordsAndDrops(t *testing.T) {
	tr := NewTracer(4)
	sh := tr.Shard(7, "worker")
	sh.Span(EvSchedSpan, 0, 10, 20)
	sh.Instant(EvFault, 3, 15)
	id := sh.Begin(2, 30)
	if id == 0 {
		t.Fatal("Begin returned zero id")
	}
	if got := sh.CurrentSpan(); got != id {
		t.Fatalf("CurrentSpan = %d, want %d", got, id)
	}
	sh.End(40)
	if got := sh.CurrentSpan(); got != 0 {
		t.Fatalf("CurrentSpan after End = %d, want 0", got)
	}
	sh.Span(EvBlockSpan, uint32(SubDisk), 50, 60)
	// Ring is full (4 records); the next write wraps, overwriting the
	// oldest record and counting it as a drop.
	sh.Span(EvSchedSpan, 0, 70, 80)
	if sh.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", sh.Drops())
	}
	if sh.Retained() != 4 {
		t.Fatalf("retained = %d, want 4", sh.Retained())
	}
	evs := sh.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	// The retained window is the newest 4 records in write order: the
	// first sched span (10,20) was evicted, the wrapping one survives.
	want := []EventKind{EvFault, EvSyscallSpan, EvBlockSpan, EvSchedSpan}
	for i, ev := range evs {
		if ev.Kind != want[i] {
			t.Fatalf("event %d kind %v, want %v", i, ev.Kind, want[i])
		}
		if ev.PID != 7 {
			t.Fatalf("event %d pid %d", i, ev.PID)
		}
	}
	if evs[1].Arg != 2 || evs[1].Start != 30 || evs[1].End != 40 {
		t.Fatalf("syscall span decoded wrong: %+v", evs[1])
	}
	if evs[3].Start != 70 || evs[3].End != 80 {
		t.Fatalf("wrapping span decoded wrong: %+v", evs[3])
	}
	// Tail slices the newest k of the retained window.
	tail := sh.Tail(2)
	if len(tail) != 2 || tail[0].Kind != EvBlockSpan || tail[1].Kind != EvSchedSpan {
		t.Fatalf("tail(2) = %+v", tail)
	}
	if got := sh.Tail(99); len(got) != 4 {
		t.Fatalf("tail(99) = %d events, want all 4", len(got))
	}
	records, drops := tr.Totals()
	if records != 5 || drops != 1 {
		t.Fatalf("totals = %d/%d, want 5/1", records, drops)
	}
}

// TestTracerShardWraparoundExact pins the satellite contract for
// kflight sampling: when a shard ring wraps many times mid-epoch,
// drop counting stays exact (records written - retained) and the
// retained events are precisely the newest capacity-many, still in
// strict write order.
func TestTracerShardWraparoundExact(t *testing.T) {
	const cap = 8
	tr := NewTracer(cap)
	sh := tr.Shard(3, "churn")
	const writes = 3*cap + 5 // wraps the ring three-plus times
	for i := 0; i < writes; i++ {
		sh.Span(EvSchedSpan, uint32(i), sim.Cycles(10*i), sim.Cycles(10*i+5))
	}
	if sh.Records() != writes {
		t.Fatalf("records = %d, want %d", sh.Records(), writes)
	}
	if sh.Drops() != writes-cap {
		t.Fatalf("drops = %d, want %d", sh.Drops(), writes-cap)
	}
	if sh.Records()-sh.Drops() != int64(sh.Retained()) {
		t.Fatalf("records-drops = %d, retained = %d",
			sh.Records()-sh.Drops(), sh.Retained())
	}
	evs := sh.Events()
	if len(evs) != cap {
		t.Fatalf("events = %d, want %d", len(evs), cap)
	}
	for i, ev := range evs {
		wantArg := uint32(writes - cap + i)
		if ev.Arg != wantArg {
			t.Fatalf("event %d arg %d, want %d (ordering broken)", i, ev.Arg, wantArg)
		}
		if ev.Start != sim.Cycles(10*int(wantArg)) {
			t.Fatalf("event %d start %d, want %d", i, ev.Start, 10*int(wantArg))
		}
	}
	// Mid-epoch observation: sampling Totals between wraps must agree
	// with the exact write count at that instant.
	sh2 := tr.Shard(4, "sampled")
	for i := 0; i < cap+3; i++ {
		sh2.Span(EvSchedSpan, uint32(i), sim.Cycles(i), sim.Cycles(i+1))
		wantRecords := int64(i + 1)
		wantDrops := int64(0)
		if i >= cap {
			wantDrops = int64(i + 1 - cap)
		}
		if sh2.Records() != wantRecords || sh2.Drops() != wantDrops {
			t.Fatalf("after write %d: records/drops = %d/%d, want %d/%d",
				i, sh2.Records(), sh2.Drops(), wantRecords, wantDrops)
		}
	}
}

// TestQuantilesHelper is the table test for the shared p50/p90/p99
// helper over power-of-two buckets (satellite: ktop and benchdiff use
// this instead of re-deriving bucket math).
func TestQuantilesHelper(t *testing.T) {
	mkBuckets := func(vals ...int64) ([]int64, int64, int64) {
		b := make([]int64, HistBuckets)
		var count, max int64
		for _, v := range vals {
			b[BucketOf(v)]++
			count++
			if v > max {
				max = v
			}
		}
		return b, count, max
	}
	cases := []struct {
		name          string
		vals          []int64
		p50, p90, p99 int64
	}{
		{name: "empty", vals: nil, p50: 0, p90: 0, p99: 0},
		{name: "single", vals: []int64{5}, p50: 8, p90: 8, p99: 8},
		{name: "mixed", vals: []int64{1, 2, 3, 100, 1000, 1_000_000},
			// 6 observations: p50 target idx 3 → 100 → 2^7; p90 target
			// idx 5 → 1e6 → 2^20; p99 same.
			p50: 128, p90: 1 << 20, p99: 1 << 20},
		{name: "uniform", vals: []int64{16, 16, 16, 16}, p50: 32, p90: 32, p99: 32},
		{name: "heavy tail", vals: append(make([]int64, 99), 1<<30),
			// 99 zeros (bucket 0, upper bound 2^0=1) and one huge value:
			// p50/p90 land in the zero bucket, p99 in the tail.
			p50: 1, p90: 1, p99: 1 << 31},
	}
	for _, tc := range cases {
		b, count, max := mkBuckets(tc.vals...)
		p50, p90, p99 := Quantiles(b, count, max)
		if p50 != tc.p50 || p90 != tc.p90 || p99 != tc.p99 {
			t.Errorf("%s: Quantiles = %d/%d/%d, want %d/%d/%d",
				tc.name, p50, p90, p99, tc.p50, tc.p90, tc.p99)
		}
		// BucketQuantile must agree at the triple's points.
		if got := BucketQuantile(b, count, max, 0.50); got != tc.p50 {
			t.Errorf("%s: BucketQuantile(0.50) = %d, want %d", tc.name, got, tc.p50)
		}
	}
	// A live histogram's snapshot and the helper over its own buckets
	// must agree: one quantile implementation, two entry points.
	var h Histogram
	for _, v := range []sim.Cycles{1, 2, 3, 100, 1000, 1_000_000} {
		h.Observe(v)
	}
	sn := h.Snapshot()
	full := make([]int64, HistBuckets)
	copy(full, sn.Buckets)
	p50, p90, p99 := Quantiles(full, sn.Count, sn.Max)
	if sn.P50 != p50 || sn.P90 != p90 || sn.P99 != p99 {
		t.Errorf("snapshot quantiles %d/%d/%d disagree with helper %d/%d/%d",
			sn.P50, sn.P90, sn.P99, p50, p90, p99)
	}
}

func TestAttributionCellsAndFoldedSum(t *testing.T) {
	set := New(8, 64)
	set.SyscallName = func(nr int) string { return "call" }
	ps := set.NewProc(1, "proc")

	ps.OnCycles(100, false) // user compute
	ps.SyscallEnter(3, 0)
	ps.Push(SubBoundary)
	ps.OnCycles(50, false) // user-side dispatch
	ps.OnCycles(70, true)  // trap
	ps.Pop()
	ps.OnCycles(200, true) // syscall body
	ps.Push(SubMem)
	ps.OnCycles(30, true) // tlb miss inside the call
	ps.Pop()
	ps.SyscallExit(350)
	set.OnSetup(11)
	set.OnIdle(9)

	sn := set.Snapshot()
	if sn.TotalCycles != 100+50+70+200+30+11+9 {
		t.Fatalf("total = %d", sn.TotalCycles)
	}
	if err := sn.CheckTotal(sim.Cycles(470)); err != nil {
		t.Fatal(err)
	}
	if err := sn.CheckTotal(sim.Cycles(471)); err == nil {
		t.Fatal("CheckTotal should reject a mismatched elapsed")
	}
	if sn.SubsystemCycles["mem"] != 30 || sn.SubsystemCycles["boundary"] != 120 {
		t.Fatalf("subsystem cycles: %v", sn.SubsystemCycles)
	}
	// The running (mode, subsystem) totals equal the cells summed over
	// syscall slots.
	want := make([]int64, NModes*NSubsys)
	for _, c := range []struct {
		mode Mode
		sub  Subsys
		v    int64
	}{
		{ModeUser, SubUser, 100}, {ModeUser, SubBoundary, 50},
		{ModeKernel, SubBoundary, 70}, {ModeKernel, SubKern, 200}, {ModeKernel, SubMem, 30},
	} {
		want[int(c.mode)*NSubsys+int(c.sub)] = c.v
	}
	if got := ps.ModeSubsysCycles(nil); !slices.Equal(got, want) {
		t.Fatalf("ModeSubsysCycles = %v, want %v", got, want)
	}
	folded := sn.FoldedStacks()
	if !strings.Contains(folded, "proc-1;kernel;kern;call 200") {
		t.Fatalf("folded missing kernel body line:\n%s", folded)
	}
	if !strings.Contains(folded, "proc-1;user;user;- 100") {
		t.Fatalf("folded missing user line:\n%s", folded)
	}
	if !strings.Contains(folded, "machine;idle;idle;- 9") {
		t.Fatalf("folded missing idle line:\n%s", folded)
	}
	// Folded lines must sum to the total.
	var sum int64
	for _, line := range strings.Split(strings.TrimSpace(folded), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("bad folded line %q", line)
		}
		c, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += c
	}
	if sum != sn.TotalCycles {
		t.Fatalf("folded sum %d != total %d", sum, sn.TotalCycles)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := New(4, 64)
	pa := a.NewProc(1, "a")
	pa.OnCycles(10, true)
	a.Reg.Counter("x").Add(1)
	a.Reg.Histogram("h").Observe(8)

	b := New(4, 64)
	pb := b.NewProc(1, "b")
	pb.OnCycles(20, false)
	b.Reg.Counter("x").Add(2)
	b.Reg.Histogram("h").Observe(100)

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.TotalCycles != 30 || sa.Counters["x"] != 3 {
		t.Fatalf("merge: total %d counter %d", sa.TotalCycles, sa.Counters["x"])
	}
	h := sa.Histograms["h"]
	if h.Count != 2 || h.Sum != 108 || h.Min != 8 || h.Max != 100 {
		t.Fatalf("merged histogram %+v", h)
	}
}

// TestHistogramMergeEqualsCombined is the exactness contract for
// snapshot merging: because the buckets are power-of-two, merging two
// histogram snapshots must produce exactly the summary a single
// histogram would have reported after seeing every observation —
// including P50/P99, which are recomputed from the merged buckets
// rather than approximated from either side.
func TestHistogramMergeEqualsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ha, hb, combined Histogram
	for i := 0; i < 5000; i++ {
		v := sim.Cycles(rng.Int63n(1 << uint(rng.Intn(40))))
		if i%3 == 0 {
			ha.Observe(v)
		} else {
			hb.Observe(v)
		}
		combined.Observe(v)
	}
	got := mergeHist(ha.Snapshot(), hb.Snapshot())
	want := combined.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum ||
		got.Min != want.Min || got.Max != want.Max ||
		got.Mean != want.Mean || got.P50 != want.P50 || got.P99 != want.P99 {
		t.Fatalf("merged snapshot differs from combined:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("bucket lengths differ: %d vs %d", len(got.Buckets), len(want.Buckets))
	}
	for i := range got.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: merged %d, combined %d", i, got.Buckets[i], want.Buckets[i])
		}
	}
	// Merging in the other order must agree too.
	rev := mergeHist(hb.Snapshot(), ha.Snapshot())
	if rev.P50 != want.P50 || rev.P99 != want.P99 || rev.Count != want.Count {
		t.Fatalf("merge is order-sensitive: %+v vs %+v", rev, want)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	set := New(8, 64)
	set.SyscallName = func(nr int) string { return "open" }
	ps := set.NewProc(1, "app")
	ps.SchedSpan(0, 500)
	ps.SyscallEnter(0, 100)
	ps.SyscallExit(300)
	ps.BlockSpan(SubDisk, 300, 450)
	ps.Fault(120, true, false)

	var buf bytes.Buffer
	if err := set.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	// metadata + sched + syscall + block + fault
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(doc.TraceEvents))
	}
	kinds := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		kinds[ph] = true
		if ph == "X" {
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
		}
	}
	if !kinds["M"] || !kinds["X"] || !kinds["i"] {
		t.Fatalf("missing event phases: %v", kinds)
	}
}

func TestTraceFilter(t *testing.T) {
	set := New(8, 64)
	set.SyscallName = func(nr int) string { return "open" }
	app := set.NewProc(1, "app")
	app.SchedSpan(0, 500)
	app.SyscallEnter(0, 100)
	app.SyscallExit(300)
	app.BlockSpan(SubDisk, 300, 450)
	other := set.NewProc(2, "bg")
	other.SchedSpan(500, 600)

	count := func(f TraceFilter) int {
		var buf bytes.Buffer
		if err := set.WriteChromeTraceFiltered(&buf, f); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ev := range doc.TraceEvents {
			if cat, _ := ev["cat"].(string); cat != "__metadata" {
				n++
			}
		}
		return n
	}
	if got := count(TraceFilter{}); got != 4 {
		t.Fatalf("unfiltered events = %d, want 4", got)
	}
	if got := count(TraceFilter{Proc: "app"}); got != 3 {
		t.Fatalf("proc=app events = %d, want 3", got)
	}
	if got := count(TraceFilter{Proc: "app-1"}); got != 3 {
		t.Fatalf("proc=app-1 events = %d, want 3", got)
	}
	if got := count(TraceFilter{Subsystem: "disk"}); got != 1 {
		t.Fatalf("subsystem=disk events = %d, want 1", got)
	}
	if got := count(TraceFilter{Proc: "bg", Subsystem: "sched"}); got != 1 {
		t.Fatalf("bg sched events = %d, want 1", got)
	}
	if got := count(TraceFilter{Proc: "nope"}); got != 0 {
		t.Fatalf("proc=nope events = %d, want 0", got)
	}

	sn := &Snapshot{
		Attribution: []AttrRow{
			{Process: "app-1", Mode: "kernel", Subsys: "disk", Syscall: "read", Cycles: 100},
			{Process: "app-1", Mode: "user", Subsys: "kern", Syscall: "-", Cycles: 50},
			{Process: "bg-2", Mode: "kernel", Subsys: "disk", Syscall: "write", Cycles: 25},
		},
		SetupCycles: 7,
		IdleCycles:  3,
	}
	lineCount := func(f TraceFilter) int {
		s := sn.FoldedStacksFiltered(f)
		if s == "" {
			return 0
		}
		return strings.Count(s, "\n")
	}
	if got := lineCount(TraceFilter{}); got != 5 {
		t.Fatalf("unfiltered folded lines = %d, want 5", got)
	}
	if got := lineCount(TraceFilter{Proc: "app"}); got != 2 {
		t.Fatalf("proc=app folded lines = %d, want 2", got)
	}
	if got := lineCount(TraceFilter{Subsystem: "disk"}); got != 2 {
		t.Fatalf("subsystem=disk folded lines = %d, want 2", got)
	}
	if got := lineCount(TraceFilter{Proc: "machine"}); got != 2 {
		t.Fatalf("proc=machine folded lines = %d, want 2", got)
	}
	if got := lineCount(TraceFilter{Proc: "bg", Subsystem: "disk"}); got != 1 {
		t.Fatalf("bg disk folded lines = %d, want 1", got)
	}
}

func TestNilSafety(t *testing.T) {
	var set *Set
	var ps *ProcState
	// All hot-path entry points must tolerate nil receivers.
	ps.OnCycles(1, true)
	ps.Push(SubMem)
	ps.Pop()
	ps.SyscallEnter(1, 0)
	ps.SyscallExit(1)
	ps.BlockSpan(SubDisk, 0, 1)
	ps.SchedSpan(0, 1)
	ps.Fault(0, false, false)
	if ps.CurrentSpan() != 0 {
		t.Fatal("nil ProcState CurrentSpan != 0")
	}
	set.OnSetup(1)
	set.OnIdle(1)
	if set.NewProc(1, "x") != nil {
		t.Fatal("nil set NewProc should return nil")
	}
	if set.Snapshot() != nil {
		t.Fatal("nil set Snapshot should return nil")
	}
}
