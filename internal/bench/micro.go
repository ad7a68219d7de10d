package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/sys"
)

// Substrate micro-benchmark bodies, run by the root bench_test.go
// Benchmark* functions.

// microSpace builds an uncharged address space with span rw pages.
func microSpace(span int) (*mem.AddressSpace, mem.Addr) {
	costs := sim.DefaultCosts()
	as := mem.NewAddressSpace("micro", mem.NewPhys(0), &costs)
	base, err := as.MapRegion(span, mem.PermRW)
	if err != nil {
		panic(err)
	}
	return as, base
}

// BenchBulkCopy measures WriteBytes+ReadBytes of chunk-sized buffers
// sweeping a 64-page region: the boundary-crossing copy path every
// syscall's user<->kernel staging rides on.
func BenchBulkCopy(b *testing.B, chunk int) {
	const span = 64
	as, base := microSpace(span)
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i)
	}
	limit := span*mem.PageSize - chunk
	b.ReportAllocs()
	b.SetBytes(int64(2 * chunk))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 1024) & (mem.PageSize - 1)
		va := base + mem.Addr((i*chunk+off)%limit)
		if err := as.WriteBytes(va, buf); err != nil {
			b.Fatal(err)
		}
		if err := as.ReadBytes(va, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchTranslateHit measures repeat translations of a resident page:
// the translation-cache hit path (8-byte reads of one hot page).
func BenchTranslateHit(b *testing.B) {
	as, base := microSpace(1)
	var buf [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.ReadBytes(base+mem.Addr(i&2040), buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchTranslateMiss measures translations that always miss the
// translation cache and the simulated TLB: a stride over more pages
// than either holds.
func BenchTranslateMiss(b *testing.B) {
	const span = 1024 // > tcSize and > simulated TLB entries
	as, base := microSpace(span)
	var buf [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := base + mem.Addr((i%span)*mem.PageSize)
		if err := as.ReadBytes(va, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchReadU64 measures the word path the Cosy VM and KGCC
// interpreter lean on.
func BenchReadU64(b *testing.B) {
	as, base := microSpace(1)
	if err := as.WriteU64(base+64, 0xdeadbeefcafef00d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.ReadU64(base + 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchSyscallRoundTrip measures the simulated getpid round trip —
// host overhead per boundary crossing, allocations included.
func BenchSyscallRoundTrip(b *testing.B) {
	s, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s.Spawn("bench", func(pr *sys.Proc) error {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr.Getpid()
		}
		return nil
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchSchedulerDispatch measures a full yield-dispatch-yield cycle
// between two processes: the run-queue (ring deque) hot path.
func BenchSchedulerDispatch(b *testing.B) {
	s, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	spin := func(pr *sys.Proc) error {
		for i := 0; i < b.N; i++ {
			pr.P.Yield()
		}
		return nil
	}
	s.Spawn("a", spin)
	s.Spawn("b", spin)
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
