package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newAS(t *testing.T) *AddressSpace {
	t.Helper()
	costs := sim.DefaultCosts()
	return NewAddressSpace("test", NewPhys(64<<20), &costs)
}

func TestPageHelpers(t *testing.T) {
	if PageDown(0x1fff) != 0x1000 {
		t.Fatal("PageDown")
	}
	if PageUp(0x1001) != 0x2000 {
		t.Fatal("PageUp")
	}
	if PageUp(0x2000) != 0x2000 {
		t.Fatal("PageUp aligned")
	}
	if PagesFor(0) != 0 || PagesFor(1) != 1 || PagesFor(PageSize) != 1 || PagesFor(PageSize+1) != 2 {
		t.Fatal("PagesFor")
	}
}

func TestPhysAllocFree(t *testing.T) {
	p := NewPhys(4 * PageSize)
	var frames []Frame
	for i := 0; i < 4; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		frames = append(frames, f)
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	p.Free(frames[0])
	if _, err := p.Alloc(); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if p.InUse() != 4 {
		t.Fatalf("InUse = %d, want 4", p.InUse())
	}
}

func TestPhysDoubleFreePanics(t *testing.T) {
	p := NewPhys(PageSize)
	f, _ := p.Alloc()
	p.Free(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	p.Free(f)
}

func TestPhysFrameZeroed(t *testing.T) {
	p := NewPhys(2 * PageSize)
	f, _ := p.Alloc()
	d := p.Data(f)
	d[0] = 0xFF
	p.Free(f)
	f2, _ := p.Alloc()
	if p.Data(f2)[0] != 0 {
		t.Fatal("recycled frame not zeroed")
	}
}

// TestPhysBacksOnFirstTouch pins demand backing: allocating and mapping
// a frame gives it no host page, its first access through any path and
// either space gives it exactly one, and a page it takes from the pool
// reads as zeros.
func TestPhysBacksOnFirstTouch(t *testing.T) {
	costs := sim.DefaultCosts()
	p := NewPhys(64 << 20)
	owner := NewAddressSpace("owner", p, &costs)

	// Leave one dirty page in the pool for a later first touch.
	dirty, err := owner.MapRegion(1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.WriteBytes(dirty, bytes.Repeat([]byte{0xAB}, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := owner.Unmap(dirty); err != nil {
		t.Fatal(err)
	}
	if p.InUse() != 0 || p.Backed() != 0 || len(p.pool) != 1 {
		t.Fatalf("after a dirty page's unmap: InUse %d, Backed %d, pool %d; want 0, 0, 1", p.InUse(), p.Backed(), len(p.pool))
	}

	// Alloc and MapPage reserve frames and back none; freeing an
	// unbacked frame pools nothing.
	bare, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	base, err := owner.MapRegion(4, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if p.InUse() != 5 || p.Backed() != 0 {
		t.Fatalf("after Alloc and MapRegion(4): InUse %d, Backed %d; want 5, 0", p.InUse(), p.Backed())
	}
	p.Free(bare)
	if p.InUse() != 4 || len(p.pool) != 1 {
		t.Fatalf("after freeing an unbacked frame: InUse %d, pool %d; want 4, 1", p.InUse(), len(p.pool))
	}

	frameAt := func(as *AddressSpace, va Addr) Frame {
		t.Helper()
		pte, ok := as.Lookup(va)
		if !ok {
			t.Fatalf("page %#x unmapped", uint64(va))
		}
		return pte.Frame
	}
	// Each first touch backs its own page's frame and no other; the
	// first takes the dirty pooled page. Each touch writes at most the
	// byte at offset 8, to 1, so the rest of the page must read zeros.
	touches := []struct {
		name  string
		touch func(va Addr) error
	}{
		{"ReadBytes", func(va Addr) error { return owner.ReadBytes(va+8, make([]byte, 8)) }},
		{"WriteBytes", func(va Addr) error { return owner.WriteBytes(va+8, []byte{1}) }},
		{"Bytes", func(va Addr) error {
			_, err := owner.View(va, PageSize).Bytes(8, 8, AccessRead)
			return err
		}},
		{"Pages", func(va Addr) error {
			return owner.View(va, PageSize).Pages(8, 1, AccessWrite, func(b []byte) error {
				b[0] = 1
				return nil
			})
		}},
	}
	for i, tc := range touches {
		va := base + Addr(i*PageSize)
		if err := tc.touch(va); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.Backed() != i+1 {
			t.Fatalf("%s: Backed %d after %d first touches", tc.name, p.Backed(), i+1)
		}
		for j := range touches {
			got := p.frames[frameAt(owner, base+Addr(j*PageSize))].page != nil
			if got != (j <= i) {
				t.Fatalf("%s on page %d: page %d backed %v", tc.name, i, j, got)
			}
		}
		page := make([]byte, PageSize)
		if err := owner.ReadBytes(va, page); err != nil {
			t.Fatal(err)
		}
		page[8] = 0
		if !bytes.Equal(page, make([]byte, PageSize)) {
			t.Fatalf("%s: a first-touched page does not read as zeros", tc.name)
		}
	}
	if len(p.pool) != 0 {
		t.Fatalf("pool holds %d pages after four first touches, want 0", len(p.pool))
	}

	// MapFrame of an unbacked frame backs nothing; the frame's first
	// touch through either side backs it once, and a write through one
	// side is visible through the other.
	shared, err := owner.MapRegion(2, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	borrower := NewAddressSpace("borrower", p, &costs)
	bBase := borrower.Reserve(2)
	for i := 0; i < 2; i++ {
		if err := borrower.MapFrame(bBase+Addr(i*PageSize), frameAt(owner, shared+Addr(i*PageSize)), PermRW); err != nil {
			t.Fatal(err)
		}
	}
	if p.Backed() != 4 {
		t.Fatalf("MapFrame of unbacked frames: Backed %d, want 4", p.Backed())
	}
	for i, first := range []*AddressSpace{owner, borrower} {
		other, va, ova := borrower, shared, bBase
		if first == borrower {
			other, va, ova = owner, bBase, shared
		}
		va += Addr(i * PageSize)
		ova += Addr(i * PageSize)
		msg := []byte("from " + first.Name)
		if err := first.WriteBytes(va+100, msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if err := other.ReadBytes(ova+100, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%s wrote first: %s reads %q", first.Name, other.Name, got)
		}
		if err := other.WriteBytes(ova+200, []byte("reply")); err != nil {
			t.Fatal(err)
		}
		if err := first.ReadBytes(va+200, got[:5]); err != nil || string(got[:5]) != "reply" {
			t.Fatalf("%s wrote first: it reads %q, %v of %s's reply", first.Name, got[:5], err, other.Name)
		}
		if p.Backed() != 5+i {
			t.Fatalf("%s touched first: Backed %d, want %d", first.Name, p.Backed(), 5+i)
		}
	}
	for i := 0; i < 2; i++ {
		if err := borrower.Unmap(bBase + Addr(i*PageSize)); err != nil {
			t.Fatal(err)
		}
		if err := owner.Unmap(shared + Addr(i*PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if p.InUse() != 4 || p.Backed() != 4 || len(p.pool) != 2 {
		t.Fatalf("after the shared pages' unmap: InUse %d, Backed %d, pool %d; want 4, 4, 2", p.InUse(), p.Backed(), len(p.pool))
	}
}

func TestMapReadWrite(t *testing.T) {
	as := newAS(t)
	base, err := as.MapRegion(2, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello, kernel world; this crosses no page yet")
	if err := as.WriteBytes(base, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := as.ReadBytes(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
}

func TestCrossPageAccess(t *testing.T) {
	as := newAS(t)
	base, _ := as.MapRegion(2, PermRW)
	msg := make([]byte, PageSize+100)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	off := Addr(PageSize - 50)
	if err := as.WriteBytes(base+off, msg[:150]); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 150)
	if err := as.ReadBytes(base+off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg[:150]) {
		t.Fatal("cross-page data mismatch")
	}
}

func TestUnmappedFault(t *testing.T) {
	as := newAS(t)
	err := as.ReadBytes(0xdead000, make([]byte, 1))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if !f.NotPresent || f.Access != AccessRead {
		t.Fatalf("fault = %+v", f)
	}
}

func TestPermissionFault(t *testing.T) {
	as := newAS(t)
	base, _ := as.MapRegion(1, PermR)
	if err := as.ReadBytes(base, make([]byte, 8)); err != nil {
		t.Fatalf("read of r-- page: %v", err)
	}
	err := as.WriteBytes(base, []byte{1})
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if f.NotPresent || f.Guard || f.Access != AccessWrite {
		t.Fatalf("fault = %+v", f)
	}
}

func TestGuardPageFault(t *testing.T) {
	as := newAS(t)
	g := as.Reserve(1)
	if err := as.MapGuard(g); err != nil {
		t.Fatal(err)
	}
	err := as.ReadBytes(g+10, make([]byte, 1))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if !f.Guard {
		t.Fatalf("fault not marked guard: %+v", f)
	}
}

func TestFaultHandlerRetry(t *testing.T) {
	// Kefence auto-map mode: the handler converts the guard page to a
	// readable page and retries.
	as := newAS(t)
	g := as.Reserve(1)
	if err := as.MapGuard(g); err != nil {
		t.Fatal(err)
	}
	var handled int
	as.Handler = func(space *AddressSpace, f *Fault) FaultAction {
		handled++
		if !f.Guard {
			return FaultKill
		}
		if err := space.SetPerm(PageDown(f.Addr), PermRW); err != nil {
			return FaultKill
		}
		return FaultRetry
	}
	if err := as.WriteBytes(g+4, []byte{42}); err != nil {
		t.Fatalf("auto-mapped write failed: %v", err)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times, want 1", handled)
	}
	var b [1]byte
	if err := as.ReadBytes(g+4, b[:]); err != nil || b[0] != 42 {
		t.Fatalf("read back %v, %v", b[0], err)
	}
}

func TestFaultHandlerKill(t *testing.T) {
	as := newAS(t)
	g := as.Reserve(1)
	_ = as.MapGuard(g)
	as.Handler = func(space *AddressSpace, f *Fault) FaultAction { return FaultKill }
	if err := as.WriteBytes(g, []byte{1}); err == nil {
		t.Fatal("kill handler did not propagate fault")
	}
}

func TestFaultHandlerRetryLoopBounded(t *testing.T) {
	// A broken handler that claims Retry without fixing the mapping
	// must not hang the machine.
	as := newAS(t)
	as.Handler = func(space *AddressSpace, f *Fault) FaultAction { return FaultRetry }
	if err := as.ReadBytes(0xbad000, make([]byte, 1)); err == nil {
		t.Fatal("unfixed retry loop returned success")
	}
}

func TestUnmapAndReuse(t *testing.T) {
	as := newAS(t)
	base, _ := as.MapRegion(1, PermRW)
	if err := as.WriteBytes(base, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(base); err != nil {
		t.Fatal(err)
	}
	if err := as.ReadBytes(base, make([]byte, 1)); err == nil {
		t.Fatal("read of unmapped page succeeded")
	}
	if err := as.Unmap(base); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestUnmapGuardReleasesNoFrame(t *testing.T) {
	as := newAS(t)
	inUse := as.Phys().InUse()
	g := as.Reserve(1)
	_ = as.MapGuard(g)
	if err := as.Unmap(g); err != nil {
		t.Fatal(err)
	}
	if as.Phys().InUse() != inUse {
		t.Fatal("guard page unmapping changed frame count")
	}
}

func TestSetPermOnGuardAllocatesFrame(t *testing.T) {
	as := newAS(t)
	g := as.Reserve(1)
	_ = as.MapGuard(g)
	before := as.Phys().InUse()
	if err := as.SetPerm(g, PermR); err != nil {
		t.Fatal(err)
	}
	if as.Phys().InUse() != before+1 {
		t.Fatal("auto-map did not allocate a frame")
	}
	if err := as.ReadBytes(g, make([]byte, 4)); err != nil {
		t.Fatalf("read after auto-map: %v", err)
	}
	if err := as.WriteBytes(g, []byte{1}); err == nil {
		t.Fatal("write allowed through read-only auto-map")
	}
}

func TestTLBCounting(t *testing.T) {
	as := newAS(t)
	base, _ := as.MapRegion(1, PermRW)
	buf := make([]byte, 8)
	_ = as.ReadBytes(base, buf)
	missesAfterFirst := as.Stats.TLBMisses
	if missesAfterFirst == 0 {
		t.Fatal("first access should miss TLB")
	}
	_ = as.ReadBytes(base, buf)
	if as.Stats.TLBMisses != missesAfterFirst {
		t.Fatal("second access to same page should hit TLB")
	}
	if as.Stats.TLBHits == 0 {
		t.Fatal("no TLB hits recorded")
	}
	as.TLBFlush()
	_ = as.ReadBytes(base, buf)
	if as.Stats.TLBMisses != missesAfterFirst+1 {
		t.Fatal("post-flush access should miss")
	}
}

func TestTLBPressureFromManyPages(t *testing.T) {
	// Touching more distinct pages than TLB entries must keep
	// missing; this is the mechanism behind Kefence's measured
	// overhead ("allocating an entire page for each memory buffer
	// increases TLB contention").
	as := newAS(t)
	base, err := as.MapRegion(tlbSize*2, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for round := 0; round < 3; round++ {
		for i := 0; i < tlbSize*2; i++ {
			_ = as.ReadBytes(base+Addr(i*PageSize), buf)
		}
	}
	if as.Stats.TLBMisses < tlbSize*2*3 {
		t.Fatalf("TLB misses = %d, want at least %d", as.Stats.TLBMisses, tlbSize*2*3)
	}
}

func TestChargeHookInvoked(t *testing.T) {
	costs := sim.DefaultCosts()
	as := NewAddressSpace("charged", NewPhys(0), &costs)
	var total sim.Cycles
	as.Charge = func(c sim.Cycles) { total += c }
	base, _ := as.MapRegion(1, PermRW)
	_ = as.WriteBytes(base, []byte{1})
	if total == 0 {
		t.Fatal("no charges delivered")
	}
}

func TestU64RoundTrip(t *testing.T) {
	as := newAS(t)
	base, _ := as.MapRegion(1, PermRW)
	if err := quick.Check(func(v uint64, offRaw uint16) bool {
		off := Addr(offRaw % (PageSize - 8))
		if err := as.WriteU64(base+off, v); err != nil {
			return false
		}
		got, err := as.ReadU64(base + off)
		return err == nil && got == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReserveRegionsDisjoint(t *testing.T) {
	as := newAS(t)
	type region struct{ base, end Addr }
	var regions []region
	for i := 1; i <= 20; i++ {
		b := as.Reserve(i)
		regions = append(regions, region{b, b + Addr(i*PageSize)})
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			if a.base < b.end && b.base < a.end {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestMapRegionRollsBackOnExhaustion(t *testing.T) {
	costs := sim.DefaultCosts()
	as := NewAddressSpace("tiny", NewPhys(2*PageSize), &costs)
	if _, err := as.MapRegion(3, PermRW); err == nil {
		t.Fatal("expected out-of-memory")
	}
	if as.Phys().InUse() != 0 {
		t.Fatalf("leaked %d frames after failed MapRegion", as.Phys().InUse())
	}
}

func TestWriteReadQuickProperty(t *testing.T) {
	as := newAS(t)
	base, _ := as.MapRegion(8, PermRW)
	limit := 8 * PageSize
	if err := quick.Check(func(data []byte, offRaw uint16) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > limit/2 {
			data = data[:limit/2]
		}
		off := int(offRaw) % (limit - len(data))
		if err := as.WriteBytes(base+Addr(off), data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := as.ReadBytes(base+Addr(off), got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
