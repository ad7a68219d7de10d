package mem

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
)

// chargedAS builds an address space whose cycle charges accumulate
// into the returned counter, so tests can compare the view API's
// simulated cost against the ReadBytes/WriteBytes path bit for bit.
func chargedAS(name string) (*AddressSpace, *sim.Cycles) {
	costs := sim.DefaultCosts()
	as := NewAddressSpace(name, NewPhys(64<<20), &costs)
	var charged sim.Cycles
	as.Charge = func(c sim.Cycles) { charged += c }
	return as, &charged
}

func TestUserViewBounds(t *testing.T) {
	as, _ := chargedAS("uv")
	base, err := as.MapRegion(2, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	v := as.View(base, PageSize)

	var zero UserView
	if err := zero.CopyIn(0, make([]byte, 1)); !errors.Is(err, ErrViewBounds) {
		t.Fatalf("zero view CopyIn: %v", err)
	}
	if zero.Valid() {
		t.Fatal("zero view reports valid")
	}
	if !v.Valid() || v.Len() != PageSize || v.Base() != base {
		t.Fatal("view metadata")
	}
	for _, c := range []struct{ off, n int }{
		{-1, 4}, {0, PageSize + 1}, {PageSize, 1}, {PageSize - 3, 4}, {4, -1},
	} {
		if c.n >= 0 {
			if err := v.CopyIn(c.off, make([]byte, c.n)); !errors.Is(err, ErrViewBounds) {
				t.Fatalf("CopyIn(%d,+%d): %v", c.off, c.n, err)
			}
		}
		if _, err := v.Sub(c.off, c.n); !errors.Is(err, ErrViewBounds) {
			t.Fatalf("Sub(%d,+%d): %v", c.off, c.n, err)
		}
	}
	// Sub narrows and re-checks against the narrowed window.
	sub, err := v.Sub(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 32 || sub.Base() != base+16 {
		t.Fatal("Sub window")
	}
	if err := sub.CopyIn(16, make([]byte, 17)); !errors.Is(err, ErrViewBounds) {
		t.Fatalf("sub overrun: %v", err)
	}
}

// TestUserViewCopyIdentity proves CopyIn/CopyOut are charge- and
// stats-identical to the ReadBytes/WriteBytes they wrap, including
// across page boundaries.
func TestUserViewCopyIdentity(t *testing.T) {
	type stats struct {
		hits, misses, faults int64
	}
	run := func(useView bool) (sim.Cycles, stats, []byte) {
		as, charged := chargedAS("uv")
		base, err := as.MapRegion(3, PermRW)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, 2*PageSize)
		for i := range src {
			src[i] = byte(i * 7)
		}
		dst := make([]byte, len(src))
		off := PageSize - 50 // straddles two page boundaries
		if useView {
			v := as.View(base, 3*PageSize)
			if err := v.CopyOut(off, src); err != nil {
				t.Fatal(err)
			}
			as.TLBFlush()
			if err := v.CopyIn(off, dst); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := as.WriteBytes(base+Addr(off), src); err != nil {
				t.Fatal(err)
			}
			as.TLBFlush()
			if err := as.ReadBytes(base+Addr(off), dst); err != nil {
				t.Fatal(err)
			}
		}
		return *charged, stats{as.Stats.TLBHits, as.Stats.TLBMisses, as.Stats.Faults}, dst
	}
	vc, vs, vd := run(true)
	rc, rs, rd := run(false)
	if vc != rc {
		t.Fatalf("charged cycles: view %d, raw %d", vc, rc)
	}
	if vs != rs {
		t.Fatalf("stats: view %+v, raw %+v", vs, rs)
	}
	if !bytes.Equal(vd, rd) {
		t.Fatal("data mismatch")
	}
}

func TestUserViewBytesZeroCopy(t *testing.T) {
	as, _ := chargedAS("uv")
	base, err := as.MapRegion(2, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	v := as.View(base, 2*PageSize)
	b, err := v.Bytes(8, 16, AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	copy(b, "zero-copy window")
	got := make([]byte, 16)
	if err := as.ReadBytes(base+8, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "zero-copy window" {
		t.Fatalf("got %q", got)
	}
	if _, err := v.Bytes(PageSize-4, 8, AccessRead); !errors.Is(err, ErrViewBounds) {
		t.Fatalf("straddling Bytes: %v", err)
	}
	// Permission intent is enforced: read-only page rejects AccessWrite.
	roBase, err := as.MapRegion(1, PermR)
	if err != nil {
		t.Fatal(err)
	}
	rv := as.View(roBase, PageSize)
	if _, err := rv.Bytes(0, 4, AccessWrite); err == nil {
		t.Fatal("Bytes(AccessWrite) on read-only page succeeded")
	}
	if _, err := rv.Bytes(0, 4, AccessRead); err != nil {
		t.Fatalf("Bytes(AccessRead) on read-only page: %v", err)
	}
}

func TestUserViewPagesWalk(t *testing.T) {
	as, _ := chargedAS("uv")
	base, err := as.MapRegion(3, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	v := as.View(base, 3*PageSize)
	// Fill [100, 100+2*PageSize) through Pages, one run at a time.
	n := 2 * PageSize
	var runs []int
	x := byte(1)
	err = v.Pages(100, n, AccessWrite, func(p []byte) error {
		runs = append(runs, len(p))
		for i := range p {
			p[i] = x
			x++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := []int{PageSize - 100, PageSize, 100}
	if len(runs) != len(wantRuns) {
		t.Fatalf("runs %v, want %v", runs, wantRuns)
	}
	for i := range runs {
		if runs[i] != wantRuns[i] {
			t.Fatalf("runs %v, want %v", runs, wantRuns)
		}
	}
	got := make([]byte, n)
	if err := as.ReadBytes(base+100, got); err != nil {
		t.Fatal(err)
	}
	x = 1
	for i, g := range got {
		if g != x {
			t.Fatalf("byte %d = %d, want %d", i, g, x)
		}
		x++
	}
	// A short-circuiting callback stops the walk.
	calls := 0
	sentinel := errors.New("stop")
	if err := v.Pages(0, 3*PageSize, AccessRead, func(p []byte) error {
		calls++
		return sentinel
	}); !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("short-circuit: err %v, calls %d", err, calls)
	}
}

func TestUserViewWords(t *testing.T) {
	as, _ := chargedAS("uv")
	base, err := as.MapRegion(1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	v := as.View(base, PageSize)
	if err := v.PutU32(4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if x, err := v.U32(4); err != nil || x != 0xdeadbeef {
		t.Fatalf("U32 = %#x, %v", x, err)
	}
	if err := v.PutU64(8, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	if x, err := v.U64(8); err != nil || x != 0x0102030405060708 {
		t.Fatalf("U64 = %#x, %v", x, err)
	}
	if _, err := v.U32(PageSize - 2); !errors.Is(err, ErrViewBounds) {
		t.Fatalf("U32 overrun: %v", err)
	}
}

// TestMapFrameSharedCoherence maps one space's frames into a second
// space and proves the two are views of the same bytes, that shared
// PTE invalidation is coherent under unmap/remap, and that frame
// ownership stays with the mapper: unmapping the borrowed mapping
// never frees the frame.
func TestMapFrameSharedCoherence(t *testing.T) {
	costs := sim.DefaultCosts()
	phys := NewPhys(64 << 20)
	owner := NewAddressSpace("owner", phys, &costs)
	borrower := NewAddressSpace("borrower", phys, &costs)

	base, err := owner.MapRegion(2, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	inUse := phys.InUse()

	bBase := borrower.Reserve(2)
	for i := 0; i < 2; i++ {
		pte, ok := owner.Lookup(base + Addr(i*PageSize))
		if !ok {
			t.Fatal("owner page missing")
		}
		if err := borrower.MapFrame(bBase+Addr(i*PageSize), pte.Frame, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	if phys.InUse() != inUse {
		t.Fatal("MapFrame allocated frames")
	}

	// Writes through either mapping are visible through the other.
	if err := owner.WriteBytes(base+10, []byte("from owner")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	if err := borrower.ReadBytes(bBase+10, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "from owner" {
		t.Fatalf("borrower sees %q", got)
	}
	bv := borrower.View(bBase, 2*PageSize)
	if err := bv.CopyOut(PageSize+1, []byte("from borrower")); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, 13)
	if err := owner.ReadBytes(base+PageSize+1, got2); err != nil {
		t.Fatal(err)
	}
	if string(got2) != "from borrower" {
		t.Fatalf("owner sees %q", got2)
	}

	// Double-mapping the same VA and unaligned mapping both fail.
	pte0, _ := owner.Lookup(base)
	if err := borrower.MapFrame(bBase, pte0.Frame, PermRW); err == nil {
		t.Fatal("double MapFrame succeeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unaligned MapFrame did not panic")
			}
		}()
		_ = borrower.MapFrame(bBase+1, pte0.Frame, PermRW)
	}()

	// Unmapping the borrowed mapping drops the PTE (subsequent access
	// faults) but keeps the frame live for the owner.
	if err := borrower.Unmap(bBase); err != nil {
		t.Fatal(err)
	}
	if phys.InUse() != inUse {
		t.Fatal("borrower Unmap freed a shared frame")
	}
	if err := borrower.ReadBytes(bBase, make([]byte, 1)); err == nil {
		t.Fatal("read through unmapped shared page succeeded")
	}
	if err := owner.ReadBytes(base, make([]byte, 1)); err != nil {
		t.Fatalf("owner lost its page: %v", err)
	}

	// Remap the same frame at the same VA: the stale translation-cache
	// entry must not be served; the new mapping is coherent.
	if err := borrower.MapFrame(bBase, pte0.Frame, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := owner.WriteBytes(base+20, []byte("after remap")); err != nil {
		t.Fatal(err)
	}
	got3 := make([]byte, 11)
	if err := borrower.ReadBytes(bBase+20, got3); err != nil {
		t.Fatal(err)
	}
	if string(got3) != "after remap" {
		t.Fatalf("after remap borrower sees %q", got3)
	}

	// Owner unmap is the real free.
	if err := owner.Unmap(base); err != nil {
		t.Fatal(err)
	}
	if phys.InUse() != inUse-1 {
		t.Fatalf("owner Unmap freed %d frames, want 1", inUse-phys.InUse())
	}
}
