package kflight

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/kperf"
	"repro/internal/sim"
)

// epochStep returns a function that moves a gauge variable, a gauge
// func, sys.span.cycles and one attribution cell, then ticks past the
// next epoch boundary, so every call closes one epoch with a row of
// each kind. The ring is already full when it returns.
func epochStep(r *Recorder) func() {
	set := r.set
	var ops int64
	set.Reg.GaugeVar("test.ops", &ops)
	set.Reg.GaugeFunc("test.depth", func() int64 { return 2 * ops })
	ps := set.NewProc(1, "proc")
	now := sim.Cycles(0)
	step := func() {
		ops++
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
// by the most rows the ring retained at once plus two blocks per row
// log: a block is recycled once every epoch with rows in it has been
// evicted. Slots whose row arrays regrow per epoch exceed it. Every
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

	// rows[k] are epoch k's gauge, histogram and attribution rows.
	rows := [][3]int{{maxRows, 0, 0}, {0, 0, 0}}
	rng := sim.NewRand(1)
	for range 3 * retain {
		rows = append(rows, [3]int{rng.Intn(maxRows + 1), rng.Intn(maxRows + 1), rng.Intn(maxRows + 1)})
	}
	var peak, held [3]int
	for k, n := range rows {
		for log := range held {
			held[log] += n[log]
			if k >= retain {
				held[log] -= rows[k-retain][log]
			}
			peak[log] = max(peak[log], held[log])
		}
	}

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
	}
	runtime.ReadMemStats(&after)

	sizes := [3]int{int(unsafe.Sizeof(row{})), int(unsafe.Sizeof(histRow{})), int(unsafe.Sizeof(row{}))}
	limit := 0
	for log, size := range sizes {
		limit += (peak[log] + 2*blockRows) * size
	}
	got := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d closes allocated %d bytes; peak retained rows %v, limit %d bytes", 3*retain, got, peak, limit)
	if got > limit {
		t.Errorf("%d closes allocated %d bytes, want at most %d: peak retained rows %v plus two blocks per log",
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

// TestRowLogOversizedEpoch gives one epoch more rows than a block
// holds: it gets a larger block, and the epochs around it keep their
// rows as blocks are recycled.
func TestRowLogOversizedEpoch(t *testing.T) {
	var l rowLog[row]
	fill := func(seq, evicted int64, n int) []row {
		l.open(evicted)
		for i := range n {
			l.add(row{i, seq})
		}
		return l.close(seq)
	}
	check := func(rs []row, seq int64, n int) {
		t.Helper()
		if len(rs) != n {
			t.Fatalf("epoch %d holds %d rows, want %d", seq, len(rs), n)
		}
		for i, rw := range rs {
			if rw != (row{i, seq}) {
				t.Fatalf("epoch %d row %d = %+v", seq, i, rw)
			}
		}
	}
	small := fill(0, 0, 10)
	big := fill(1, 0, 2*blockRows+1)
	if fill(2, 0, 0) != nil {
		t.Fatal("an epoch without rows holds some")
	}
	next := fill(3, 0, blockRows-1)
	check(small, 0, 10)
	check(big, 1, 2*blockRows+1)
	check(next, 3, blockRows-1)
	// Epochs 0 to 2 are evicted: their blocks may be recycled, and
	// epoch 3's rows must survive it.
	for seq := int64(4); seq < 8; seq++ {
		check(fill(seq, 3, blockRows/2), seq, blockRows/2)
		check(next, 3, blockRows-1)
	}
}
