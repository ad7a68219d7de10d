package kflight

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/kperf"
	"repro/internal/sim"
)

// epochStep returns a function that moves two gauges,
// sys.span.cycles and one attribution cell, then ticks past the next
// epoch boundary, so every call closes one epoch with a row of each
// kind. The ring is already full when it returns.
func epochStep(r *Recorder) func() {
	set := r.set
	var ops, depth int64
	set.Reg.GaugeVar("test.ops", &ops)
	set.Reg.GaugeVar("test.depth", &depth)
	ps := set.NewProc(1, "proc")
	now := sim.Cycles(0)
	step := func() {
		ops++
		depth = 2 * ops
		ps.SyscallEnter(2, now)
		ps.OnCycles(100, true)
		now += r.cfg.EpochCycles
		ps.SyscallExit(now)
		r.Tick(now)
	}
	for i := 0; i < 2*r.cfg.Retain; i++ {
		step()
	}
	return step
}

// TestEpochCloseAllocFree pins the dense close: once the ring is full,
// a Tick that closes an epoch allocates nothing, though two gauges, a
// histogram and an attribution cell all moved in it.
func TestEpochCloseAllocFree(t *testing.T) {
	r, _ := newTestRecorder(Config{Retain: 4})
	step := epochStep(r)
	before := r.Summary().Epochs
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("epoch close allocates %v/op", n)
	}
	if closed := r.Summary().Epochs - before; closed != 101 {
		t.Fatalf("closed %d epochs, want one per step (101)", closed)
	}
	e := r.Epochs()[3]
	if e.Gauges["test.ops"] == 0 || e.Gauges["test.depth"] != 2*e.Gauges["test.ops"] ||
		e.Hists["sys.span.cycles"].Count != 1 || len(e.Attr) != 1 {
		t.Fatalf("closed epoch lacks a moved metric: %+v", e)
	}
}

func BenchmarkEpochClose(b *testing.B) {
	r, _ := newTestRecorder(Config{Retain: 64})
	step := epochStep(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestRowLogsHoldRetainedRows closes 3·Retain epochs at the default
// Retain, each moving a number of gauges, histograms and attribution
// cells drawn from [0, 40], and bounds the bytes the closes allocate
// by the most encoded row bytes the ring retained at once plus two
// blocks: a block is recycled once every epoch with rows in it has
// been evicted. Slots whose rows regrow per epoch exceed it. Every
// retained epoch must still read its own rows afterwards.
func TestRowLogsHoldRetainedRows(t *testing.T) {
	const maxRows = 40
	r, set := newTestRecorder(Config{})
	retain := r.cfg.Retain
	var gauges [maxRows]int64
	var hists [maxRows]*kperf.Histogram
	for i := range gauges {
		set.Reg.GaugeVar(fmt.Sprintf("test.g%02d", i), &gauges[i])
		hists[i] = set.Reg.Histogram(fmt.Sprintf("test.h%02d", i))
	}
	procs := []*kperf.ProcState{set.NewProc(1, "a"), set.NewProc(2, "b")}
	if len(procs)*attrCells < maxRows {
		t.Fatalf("%d attribution cells, want %d", len(procs)*attrCells, maxRows)
	}
	now := sim.Cycles(0)
	tick := func() {
		now += r.cfg.EpochCycles
		r.Tick(now)
	}
	// Two closes size the recorder's samples; the first records every
	// gauge, at 0.
	tick()
	tick()

	// rows[k] are epoch k's gauge, histogram and attribution rows, and
	// size[k] the bytes they encode to.
	rows := [][3]int{{maxRows, 0, 0}, {0, 0, 0}}
	rng := sim.NewRand(1)
	for range 3 * retain {
		rows = append(rows, [3]int{rng.Intn(maxRows + 1), rng.Intn(maxRows + 1), rng.Intn(maxRows + 1)})
	}
	size := make([]int, len(rows))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 2; k < len(rows); k++ {
		n := rows[k]
		for i := range n[0] {
			gauges[i] = int64(k)
		}
		for i := range n[1] {
			hists[i].Observe(sim.Cycles(k))
		}
		for i := range n[2] {
			cell := i % attrCells
			ps := procs[i/attrCells]
			ps.Push(kperf.Subsys(cell % kperf.NSubsys))
			ps.OnCycles(1, cell >= kperf.NSubsys)
			ps.Pop()
		}
		tick()
		size[k] = len(r.ring.At(r.ring.Len() - 1).rows)
	}
	runtime.ReadMemStats(&after)

	var peak, held int
	for k, n := range size {
		held += n
		if k >= retain {
			held -= size[k-retain]
		}
		peak = max(peak, held)
	}
	limit := peak + 2*blockBytes
	got := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d closes allocated %d bytes; peak retained row bytes %d, limit %d bytes", 3*retain, got, peak, limit)
	if got > limit {
		t.Errorf("%d closes allocated %d bytes, want at most %d: peak retained row bytes %d plus two blocks",
			3*retain, got, limit, peak)
	}

	epochs := r.Epochs()
	if len(epochs) != retain {
		t.Fatalf("%d epochs retained, want %d", len(epochs), retain)
	}
	for _, e := range epochs {
		k := int(e.Seq)
		n := rows[k]
		if len(e.Gauges) != n[0] || len(e.Hists) != n[1] || len(e.Attr) != n[2] {
			t.Fatalf("epoch %d holds %d gauge, %d histogram and %d attribution rows, want %v",
				k, len(e.Gauges), len(e.Hists), len(e.Attr), n)
		}
		for name, v := range e.Gauges {
			if v != int64(k) {
				t.Fatalf("epoch %d: gauge %s = %d, want %d", k, name, v, k)
			}
		}
		for name, h := range e.Hists {
			if h.Count != 1 || h.Sum != int64(k) {
				t.Fatalf("epoch %d: histogram %s moved %+v, want one observation of %d", k, name, h, k)
			}
		}
		for _, a := range e.Attr {
			if a.Cycles != 1 {
				t.Fatalf("epoch %d: attribution %+v, want 1 cycle", k, a)
			}
		}
	}
}

// TestRingFillAllocBound fills a fresh recorder's default ring with
// PostMark's mix of rows, about 6 gauges, 2 histograms and 2
// attribution cells an epoch at PostMark's magnitudes, and bounds what
// the closes allocate: the rows, at a few bytes each, plus the blocks'
// slack. The typed row logs took about 860 KB.
func TestRingFillAllocBound(t *testing.T) {
	const limit = 300 << 10
	r, set := newTestRecorder(Config{})
	var calls, reads, writes, hits, misses, switches int64
	for name, v := range map[string]*int64{
		"sys.calls.total": &calls, "sys.calls.read": &reads, "sys.calls.write": &writes,
		"io.cache.hits": &hits, "io.cache.misses": &misses, "sched.ctx_switches": &switches,
	} {
		set.Reg.GaugeVar(name, v)
	}
	disk := set.Reg.Histogram("disk.access.cycles")
	ps := set.NewProc(1, "postmark")
	rng := sim.NewRand(1)
	now := sim.Cycles(0)
	step := func() {
		calls += 2 + int64(rng.Intn(4))
		reads += int64(rng.Intn(2))
		writes += 1 + int64(rng.Intn(2))
		hits += int64(rng.Intn(3))
		misses++
		switches += 2
		ps.SyscallEnter(3, now)
		ps.OnCycles(sim.Cycles(20_000+rng.Intn(40_000)), true)
		ps.SyscallExit(now + 30_000)
		disk.Observe(sim.Cycles(5_000_000 + rng.Intn(10_000_000)))
		ps.OnCycles(sim.Cycles(2_000+rng.Intn(8_000)), false)
		now += r.cfg.EpochCycles
		r.Tick(now)
	}
	step() // sizes the recorder's samples

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range r.cfg.Retain - 1 {
		step()
	}
	runtime.ReadMemStats(&after)
	got := int(after.TotalAlloc - before.TotalAlloc)

	var bytes int
	for i := range r.ring.Len() {
		bytes += len(r.ring.At(i).rows)
	}
	t.Logf("%d closes allocated %d bytes for %d bytes of rows", r.cfg.Retain-1, got, bytes)
	if got > limit {
		t.Errorf("filling the ring allocated %d bytes, want at most %d", got, limit)
	}
	e := r.Epochs()[r.ring.Len()-1]
	if len(e.Gauges) != 6 || len(e.Hists) != 2 || len(e.Attr) != 2 {
		t.Fatalf("epoch holds %d gauge, %d histogram and %d attribution rows, want 6, 2 and 2",
			len(e.Gauges), len(e.Hists), len(e.Attr))
	}
}

// TestRowLogOversizedEpoch gives one epoch more rows than a block
// holds: it gets a larger block, and the epochs around it keep their
// rows as blocks are recycled.
func TestRowLogOversizedEpoch(t *testing.T) {
	// A gauge row of index gap 0 and a value below 64 encodes in two
	// bytes, so a block holds at most perBlock of them.
	const perBlock = blockBytes / 2
	var l rowLog
	fill := func(seq, evicted int64, n int) storedEpoch {
		l.open(evicted)
		for i := range n {
			l.gauge(i, seq)
		}
		var e storedEpoch
		e.rows, e.n = l.close(seq)
		return e
	}
	check := func(e storedEpoch, seq int64, n int) {
		t.Helper()
		if len(e.rows) != 2*n || e.n != [nRowKinds]int32{gaugeRow: int32(n)} {
			t.Fatalf("epoch %d holds %d bytes in %v rows, want %d gauge rows", seq, len(e.rows), e.n, n)
		}
		read := 0
		e.decode(func(i int, v int64) {
			if i != read || v != seq {
				t.Fatalf("epoch %d row %d = gauge %d at %d", seq, read, i, v)
			}
			read++
		}, nil, nil)
	}
	small := fill(0, 0, 10)
	big := fill(1, 0, 2*perBlock+1)
	if e := fill(2, 0, 0); e.rows != nil {
		t.Fatal("an epoch without rows holds some")
	}
	next := fill(3, 0, perBlock-maxRowBytes)
	check(small, 0, 10)
	check(big, 1, 2*perBlock+1)
	check(next, 3, perBlock-maxRowBytes)
	// Epochs 0 to 2 are evicted: their blocks may be recycled, and
	// epoch 3's rows must survive it.
	for seq := int64(4); seq < 8; seq++ {
		check(fill(seq, 3, perBlock/2), seq, perBlock/2)
		check(next, 3, perBlock-maxRowBytes)
	}
}
