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
	calls := int64(0)
	r.GaugeVar("sys.calls", &calls)
	calls += 5 // a variable is read when the registry is, not when registered
	reads := int64(42)
	r.GaugeVar("io.reads", &reads)
	field := int64(9)
	r.GaugeVar("field.reads", &field)
	sn := r.Snapshot()
	if sn.Gauges["sys.calls"] != 5 || sn.Gauges["io.reads"] != 42 || sn.Gauges["field.reads"] != 9 {
		t.Fatalf("snapshot mismatch: %+v", sn)
	}

	// A variable registered under a gauge's name replaces its variable
	// in both reads, keeping the gauge's position; a histogram may
	// share a gauge's name.
	replaced := int64(-1)
	r.GaugeVar("sys.calls", &replaced)
	r.Histogram("sys.calls").Observe(100)
	if sn := r.Snapshot(); sn.Gauges["sys.calls"] != -1 || sn.Histograms["sys.calls"].Count != 1 {
		t.Fatalf("snapshot after re-registration: %+v", sn)
	}
	var s Sample
	r.Sample(&s)
	names := r.Names()
	if !slices.Equal(names.Gauges, []string{"sys.calls", "io.reads", "field.reads"}) ||
		!slices.Equal(names.Hists, []string{"sys.calls"}) {
		t.Fatalf("names = %+v", names)
	}
	// The first read moves every gauge and each histogram that observed
	// something, with its quantile buckets: 100 lands below 2^7.
	if !slices.Equal(s.Gauges, []int64{-1, 42, 9}) || !slices.Equal(s.MovedGauges, []int{0, 1, 2}) ||
		!slices.Equal(s.Hists, []HistSample{{Count: 1, Sum: 100}}) ||
		!slices.Equal(s.MovedHists, []HistMove{{I: 0, Count: 1, Sum: 100, Quantiles: [3]uint8{7, 7, 7}}}) {
		t.Fatalf("sample = %+v", s)
	}

	// A later read lists only what moved: a changed variable, and a
	// gauge registered since, even at 0.
	field = 10
	var late int64
	r.GaugeVar("late.reads", &late)
	r.Sample(&s)
	if !slices.Equal(s.Gauges, []int64{-1, 42, 10, 0}) || !slices.Equal(s.MovedGauges, []int{2, 3}) ||
		len(s.MovedHists) != 0 {
		t.Fatalf("second sample = %+v", s)
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
	sh.Span(EvSyscallSpan, 2, 30, 40)
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

// TestQuantilesOnePass checks the one-scan triple against three
// BucketQuantile scans over random bucket vectors, plus empty and
// single-bucket vectors, counts held in the overflow bucket, and counts
// above the buckets' sum that fall through to max.
func TestQuantilesOnePass(t *testing.T) {
	check := func(b []int64, count, max int64) {
		t.Helper()
		p50, p90, p99 := Quantiles(b, count, max)
		want := [3]int64{
			BucketQuantile(b, count, max, 0.50),
			BucketQuantile(b, count, max, 0.90),
			BucketQuantile(b, count, max, 0.99),
		}
		if got := [3]int64{p50, p90, p99}; got != want {
			t.Fatalf("Quantiles(%v, %d, %d) = %v, want %v", b, count, max, got, want)
		}
	}
	check(nil, 0, 0)
	check(nil, 5, 77)
	check([]int64{3}, 3, 1)
	check([]int64{0, 0, 4}, 9, 1000)
	overflow := make([]int64, HistBuckets)
	overflow[HistBuckets-1] = 10
	check(overflow, 10, 1<<60)
	overflow[3] = 90
	check(overflow, 100, 1<<60)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := make([]int64, rng.Intn(HistBuckets+1))
		var sum int64
		for j := range b {
			if rng.Intn(3) == 0 {
				b[j] = rng.Int63n(1000)
			}
			sum += b[j]
		}
		count := sum
		switch rng.Intn(4) {
		case 0: // past the buckets: the tail falls through to max
			count = sum + 1 + rng.Int63n(100)
		case 1:
			count = rng.Int63n(sum + 1)
		}
		check(b, count, rng.Int63())
	}
}

// TestSampleRefreshesQuantiles checks the moves a Sample lists: a
// histogram that observed something since the previous read moves,
// with the buckets of the triple its Snapshot scans for; one that did
// not stays out.
func TestSampleRefreshesQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	var s Sample
	r.Sample(&s)
	if s.Hists[0] != (HistSample{}) || len(s.MovedHists) != 0 {
		t.Fatalf("empty histogram sampled as %+v", s)
	}
	h.Observe(100)
	r.Sample(&s)
	if !slices.Equal(s.MovedHists, []HistMove{{I: 0, Count: 1, Sum: 100, Quantiles: [3]uint8{7, 7, 7}}}) {
		t.Fatalf("after one observation: %+v", s.MovedHists)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5000)
	}
	r.Sample(&s)
	sn := h.Snapshot()
	if len(s.MovedHists) != 1 {
		t.Fatalf("after the histogram moved: moves %+v", s.MovedHists)
	}
	m := s.MovedHists[0]
	got := [3]int64{1 << m.Quantiles[0], 1 << m.Quantiles[1], 1 << m.Quantiles[2]}
	if m.Count != 10 || m.Sum != 50_000 || got != [3]int64{sn.P50, sn.P90, sn.P99} || got[0] != 8192 {
		t.Fatalf("after the histogram moved: move %+v (quantiles %v), snapshot %+v", m, got, sn)
	}
	r.Sample(&s)
	if len(s.MovedHists) != 0 || s.Hists[0] != (HistSample{Count: sn.Count, Sum: sn.Sum}) {
		t.Fatalf("a read with nothing observed: %+v", s)
	}
}

// TestHistogramQuantilesMatchScan feeds random streams, from narrow to
// spanning every bucket with clamped negatives and values past 2^47,
// into fresh histograms, and compares the triple the marks give with a
// scan of the buckets: in a third of the streams after every
// observation, in the rest after runs of up to 1,000 observations, as
// epochs read them.
func TestHistogramQuantilesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	observations := 0
	for stream := 0; observations < 600_000; stream++ {
		var h Histogram
		// Narrow streams pile into a few buckets, so the marks walk
		// down past repeated counts; wide ones cross every bucket.
		lo, hi := rng.Intn(HistBuckets+2), rng.Intn(HistBuckets+2)
		lo, hi = min(lo, hi), max(lo, hi)
		maxRun := 1
		if rng.Intn(3) > 0 {
			maxRun = 1 << rng.Intn(11)
		}
		run := 0
		for n := 1 + rng.Intn(3000); n > 0; n-- {
			var v int64
			switch e := lo + rng.Intn(hi-lo+1); {
			case e == 0:
				v = -rng.Int63n(1 << 40) // clamps to 0
			case e > HistBuckets:
				v = 1<<HistBuckets + rng.Int63n(1<<62) // past the last bucket's bound
			default:
				v = 1<<(e-1) + rng.Int63n(1<<(e-1))
			}
			h.Observe(sim.Cycles(v))
			observations++
			if run--; run > 0 && n > 1 {
				continue
			}
			run = 1 + rng.Intn(maxRun)
			q := h.markBuckets()
			got := [3]int64{1 << q[0], 1 << q[1], 1 << q[2]}
			p50, p90, p99 := Quantiles(h.buckets[:], h.count, h.max)
			if want := [3]int64{p50, p90, p99}; got != want {
				t.Fatalf("stream %d, after observation %d of %d: marks give %v, scan %v (buckets %v)",
					stream, h.count, v, got, want, h.buckets)
			}
		}
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
	want := make([]sim.Cycles, NModes*NSubsys)
	for _, c := range []struct {
		mode Mode
		sub  Subsys
		v    sim.Cycles
	}{
		{ModeUser, SubUser, 100}, {ModeUser, SubBoundary, 50},
		{ModeKernel, SubBoundary, 70}, {ModeKernel, SubKern, 200}, {ModeKernel, SubMem, 30},
	} {
		want[int(c.mode)*NSubsys+int(c.sub)] = c.v
	}
	if got := ps.ModeSubsysCycles(); !slices.Equal(got[:], want) {
		t.Fatalf("ModeSubsysCycles = %v, want %v", got, want)
	}
	folded := sn.FoldedStacks(TraceFilter{})
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
	xa, xb := int64(1), int64(2)
	a.Reg.GaugeVar("x", &xa)
	a.Reg.Histogram("h").Observe(8)

	b := New(4, 64)
	pb := b.NewProc(1, "b")
	pb.OnCycles(20, false)
	b.Reg.GaugeVar("x", &xb)
	b.Reg.Histogram("h").Observe(100)

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.TotalCycles != 30 || sa.Gauges["x"] != 3 {
		t.Fatalf("merge: total %d gauge %d", sa.TotalCycles, sa.Gauges["x"])
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
	if err := set.WriteChromeTrace(&buf, TraceFilter{}, nil, nil); err != nil {
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
	// A dashed name: "app" must not select app-x (label app-x-3).
	dashed := set.NewProc(3, "app-x")
	dashed.SchedSpan(600, 700)

	count := func(f TraceFilter) int {
		var buf bytes.Buffer
		if err := set.WriteChromeTrace(&buf, f, nil, nil); err != nil {
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
	if got := count(TraceFilter{}); got != 5 {
		t.Fatalf("unfiltered events = %d, want 5", got)
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
	for _, proc := range []string{"app-x", "app-x-3"} {
		if got := count(TraceFilter{Proc: proc}); got != 1 {
			t.Fatalf("proc=%s events = %d, want 1", proc, got)
		}
	}

	sn := &Snapshot{
		Attribution: []AttrRow{
			{Process: "app-1", Mode: "kernel", Subsys: "disk", Syscall: "read", Cycles: 100},
			{Process: "app-1", Mode: "user", Subsys: "kern", Syscall: "-", Cycles: 50},
			{Process: "bg-2", Mode: "kernel", Subsys: "disk", Syscall: "write", Cycles: 25},
			{Process: "app-x-3", Mode: "user", Subsys: "user", Syscall: "-", Cycles: 10},
		},
		SetupCycles: 7,
		IdleCycles:  3,
	}
	lineCount := func(f TraceFilter) int {
		s := sn.FoldedStacks(f)
		if s == "" {
			return 0
		}
		return strings.Count(s, "\n")
	}
	if got := lineCount(TraceFilter{}); got != 6 {
		t.Fatalf("unfiltered folded lines = %d, want 6", got)
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
	for _, proc := range []string{"app-x", "app-x-3"} {
		if got := lineCount(TraceFilter{Proc: proc}); got != 1 {
			t.Fatalf("proc=%s folded lines = %d, want 1", proc, got)
		}
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
	set.OnSetup(1)
	set.OnIdle(1)
	if set.NewProc(1, "x") != nil {
		t.Fatal("nil set NewProc should return nil")
	}
	if set.Snapshot() != nil {
		t.Fatal("nil set Snapshot should return nil")
	}
}
