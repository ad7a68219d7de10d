package core

import (
	"runtime"
	"testing"

	"repro/internal/kflight"
	"repro/internal/ktrace"
)

// bootObserved boots the machine perfbench's postmark runs on: kperf,
// kflight and ktrace on, over a 64-block (256 KB) buffer cache.
func bootObserved() (*System, error) {
	return New(Options{
		CacheBlocks: 64,
		Perf:        NewPerf(0),
		Flight:      &kflight.Config{},
		Trace:       &ktrace.Config{},
	})
}

var bootSink *System

// BenchmarkBootObserved times one fully observed boot. Most of what it
// allocates is the observers' retained windows.
func BenchmarkBootObserved(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := bootObserved()
		if err != nil {
			b.Fatal(err)
		}
		bootSink = s
	}
}

// TestBootObservedHeapBound bounds the heap bytes of one fully observed
// boot at 7 MiB. ktrace's two windows take 6 MiB of it: a string in
// their records would take them to 8 MiB.
func TestBootObservedHeapBound(t *testing.T) {
	const bound = 7 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := bootObserved()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("an observed boot allocated %d bytes, bound %d", got, bound)
	}
}
