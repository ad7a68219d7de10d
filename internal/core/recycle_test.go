package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/kperf"
	"repro/internal/ktrace"
	"repro/internal/sys"
	"repro/internal/workload"
)

// observedPostMark boots the observed machine bootObserved describes
// and runs a PostMark of txns transactions on it.
func observedPostMark(txns int) (*System, error) {
	s, err := bootObserved()
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 50, txns
	s.Spawn("postmark", func(pr *sys.Proc) error {
		_, err := workload.PostMark(pr, cfg)
		return err
	})
	return s, s.Run()
}

// awaitLeases collects until at most n windows hold spare buffers: n
// is what the machines still alive hold, and every machine dropped so
// far has handed its windows' storage back.
func awaitLeases(t *testing.T, n int) {
	t.Helper()
	for i := 0; kperf.Leased() > n; i++ {
		if i == 1000 {
			t.Fatalf("%d windows still hold spare buffers after %d collections, want %d", kperf.Leased(), i, n)
		}
		runtime.GC()
		runtime.Gosched()
	}
}

// records renders what an observed machine kept: its kflight record as
// WriteJSON writes it and its Chrome trace as kprof writes it, with
// the counter tracks and every ktrace flow span.
func records(s *System) (flight, chrome []byte, err error) {
	var f, c bytes.Buffer
	if err := s.Flight.WriteJSON(&f); err != nil {
		return nil, nil, err
	}
	err = s.Perf.WriteChromeTrace(&c, kperf.TraceFilter{}, s.Flight.Record().CounterTracks(), s.Ktrace.FlowSpans(0))
	return f.Bytes(), c.Bytes(), err
}

// TestRecycledStorageReadsFresh runs a small observed PostMark on a
// reference machine, then a larger one on a second machine, which is
// dropped; a third machine boots into the second's storage, every
// window of which holds records past what the small run writes, and
// its small run must give the reference's kflight record and Chrome
// trace byte for byte. The reference stays alive throughout, so its
// storage is never the larger run's, and each machine leases the
// lowest free slot that fits, so the third takes the second's.
func TestRecycledStorageReadsFresh(t *testing.T) {
	awaitLeases(t, 0)
	ref, err := observedPostMark(100)
	if err != nil {
		t.Fatal(err)
	}
	wantFlight, wantChrome, err := records(ref)
	if err != nil {
		t.Fatal(err)
	}
	refLeases := kperf.Leased()
	if _, err := observedPostMark(1000); err != nil {
		t.Fatal(err)
	}
	awaitLeases(t, refLeases)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := bootObserved()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("the boot allocated %d bytes: it did not take the dropped machine's storage", got)
	}
	cfg := workload.DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 50, 100
	s.Spawn("postmark", func(pr *sys.Proc) error {
		_, err := workload.PostMark(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	gotFlight, gotChrome, err := records(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFlight, wantFlight) {
		t.Errorf("kflight record over recycled storage differs from the reference (%d bytes, want %d)", len(gotFlight), len(wantFlight))
	}
	if !bytes.Equal(gotChrome, wantChrome) {
		t.Errorf("Chrome trace over recycled storage differs from the reference (%d bytes, want %d)", len(gotChrome), len(wantChrome))
	}
	runtime.KeepAlive(ref)
}

// TestWarmObservedBootAllocates drops an observed machine that ran a
// process, waits for its windows' leases to end, and bounds what the
// next observed boot and its first spawn allocate at 1 MB: ktrace's
// span and request windows and the process's kperf shard, 8 MiB fresh,
// come from the spare table.
func TestWarmObservedBootAllocates(t *testing.T) {
	if _, err := observedPostMark(10); err != nil {
		t.Fatal(err)
	}
	awaitLeases(t, 0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := bootObserved()
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("idle", func(*sys.Proc) error { return nil })
	runtime.ReadMemStats(&after)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got > 1<<20 {
		t.Errorf("a warm observed boot and spawn allocated %d bytes, bound %d", got, 1<<20)
	}
	t.Logf("a warm observed boot and spawn allocated %d bytes", got)
}

// TestObservedBootLoopHeapBounded boots 500 observed machines in a
// loop, dropping each, and never collects explicitly. It runs at
// GOMAXPROCS=1, as perfbench does, where the previous machines' leases
// end only when the booting goroutine is preempted and the finalizer
// goroutine gets the CPU. The heap must stay under 192 MiB throughout:
// the spare table keeps at most 32 MiB, and a lease must not keep a
// dropped machine's windows alive while it waits for its finalizer.
func TestObservedBootLoopHeapBounded(t *testing.T) {
	const boots, bound = 500, 192 << 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	peak := uint64(0)
	for i := 0; i < boots; i++ {
		if _, err := bootObserved(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
		if ms.HeapAlloc > bound {
			t.Fatalf("after %d boots the heap holds %d bytes, bound %d", i+1, ms.HeapAlloc, bound)
		}
	}
	t.Logf("heap peaked at %.1f MiB over %d boots", float64(peak)/(1<<20), boots)
}

// machineView is what TestObservedBootsConcurrent compares across
// machines: the ktrace summary and spans and every shard's records.
type machineView struct {
	summary *ktrace.Summary
	spans   []ktrace.Span
	tails   [][]kperf.TraceEvent
}

func viewOf(s *System) machineView {
	v := machineView{summary: s.Ktrace.Summary(), spans: s.Ktrace.Spans()}
	for _, sh := range s.Perf.Trace.Shards() {
		v.tails = append(v.tails, sh.Events())
	}
	return v
}

func (v machineView) diff(w machineView) string {
	switch {
	case !reflect.DeepEqual(v.summary, w.summary):
		return "ktrace summary"
	case !slices.Equal(v.spans, w.spans):
		return fmt.Sprintf("ktrace spans (%d, want %d)", len(v.spans), len(w.spans))
	case !slices.EqualFunc(v.tails, w.tails, slices.Equal[[]kperf.TraceEvent]):
		return "shard records"
	}
	return ""
}

// TestObservedBootsConcurrent boots observed machines on four
// goroutines at once, as benchall's parallel runner does, so leases
// are taken and returned concurrently: each goroutine runs a small
// observed PostMark three times, dropping and collecting the machine
// after each, and every run must see what a serial run saw.
func TestObservedBootsConcurrent(t *testing.T) {
	const goroutines, rounds, txns = 4, 3, 60
	s, err := observedPostMark(txns)
	if err != nil {
		t.Fatal(err)
	}
	want := viewOf(s)
	if len(want.spans) == 0 || len(want.tails) == 0 {
		t.Fatal("the serial run kept no spans or shard records")
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s, err := observedPostMark(txns)
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if d := viewOf(s).diff(want); d != "" {
					t.Errorf("goroutine %d round %d: %s differ from the serial run", g, r, d)
				}
				runtime.GC()
			}
		}(g)
	}
	wg.Wait()
}
