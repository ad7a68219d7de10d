package mem

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// Coherence tests for the host-side translation cache and the radix
// page table. The fast path must never serve a stale walk after a PTE
// mutation, and the simulated accounting (TLBHits, TLBMisses, Faults,
// cycle charges) must be bit-identical to the pre-optimization
// map-based walk on any access trace. refSpace below IS that
// pre-optimization model, kept as executable documentation of the
// seed's semantics.

// refSpace replicates the seed's AddressSpace: a map[Addr]PTE page
// table walked on every access, with the same 64-entry direct-mapped
// simulated TLB, fault loop, and charge points. Page data lives
// directly in a per-page byte slice (frame identity is not observable
// through the public API, so the model does not need a frame pool).
type refSpace struct {
	pages map[Addr]PTE
	data  map[Addr][]byte

	tlb      [tlbSize]Addr
	tlbValid [tlbSize]bool

	hits, misses, faults int64
	charged              sim.Cycles
	costs                *sim.Costs

	// autoMapGuards mirrors a Kefence-style handler: guard faults
	// promote the page to PermRW and retry; everything else kills.
	autoMapGuards bool
}

func newRefSpace(costs *sim.Costs) *refSpace {
	return &refSpace{
		pages: make(map[Addr]PTE),
		data:  make(map[Addr][]byte),
		costs: costs,
	}
}

func (r *refSpace) mapPage(va Addr, perm Perm) error {
	if _, ok := r.pages[va]; ok {
		return fmt.Errorf("ref: page %#x already mapped", uint64(va))
	}
	r.pages[va] = PTE{Perm: perm}
	r.data[va] = make([]byte, PageSize)
	r.charged += r.costs.MapPage
	return nil
}

func (r *refSpace) mapGuard(va Addr) error {
	if _, ok := r.pages[va]; ok {
		return fmt.Errorf("ref: page %#x already mapped", uint64(va))
	}
	r.pages[va] = PTE{Guard: true, Perm: PermNone}
	return nil
}

func (r *refSpace) unmap(va Addr) error {
	if _, ok := r.pages[va]; !ok {
		return fmt.Errorf("ref: unmap of unmapped page %#x", uint64(va))
	}
	delete(r.pages, va)
	delete(r.data, va)
	r.tlbFlushPage(va)
	r.charged += r.costs.UnmapPage
	return nil
}

func (r *refSpace) setPerm(va Addr, perm Perm) error {
	pte, ok := r.pages[va]
	if !ok {
		return fmt.Errorf("ref: SetPerm on unmapped page %#x", uint64(va))
	}
	if pte.Guard {
		pte.Guard = false
		r.data[va] = make([]byte, PageSize)
	}
	pte.Perm = perm
	r.pages[va] = pte
	r.tlbFlushPage(va)
	return nil
}

func (r *refSpace) tlbLookup(page Addr) {
	i := tlbIndex(page)
	if r.tlbValid[i] && r.tlb[i] == page {
		r.hits++
		return
	}
	r.misses++
	r.tlb[i] = page
	r.tlbValid[i] = true
	r.charged += r.costs.TLBMiss
}

func (r *refSpace) tlbFlushPage(page Addr) {
	i := tlbIndex(page)
	if r.tlbValid[i] && r.tlb[i] == page {
		r.tlbValid[i] = false
	}
}

func (r *refSpace) tlbFlush() {
	for i := range r.tlbValid {
		r.tlbValid[i] = false
	}
}

func (r *refSpace) translate(va Addr, access Access) ([]byte, error) {
	page := PageDown(va)
	for attempt := 0; ; attempt++ {
		pte, ok := r.pages[page]
		var f *Fault
		switch {
		case !ok:
			f = &Fault{Addr: va, Access: access, NotPresent: true}
		case pte.Guard:
			f = &Fault{Addr: va, Access: access, Guard: true}
		case access == AccessRead && pte.Perm&PermR == 0,
			access == AccessWrite && pte.Perm&PermW == 0:
			f = &Fault{Addr: va, Access: access}
		default:
			r.tlbLookup(page)
			return r.data[page], nil
		}
		r.faults++
		r.charged += r.costs.PageFault
		if !r.autoMapGuards || !f.Guard || attempt > 4 {
			return nil, f
		}
		if err := r.setPerm(page, PermRW); err != nil {
			return nil, f
		}
	}
}

func (r *refSpace) readBytes(va Addr, p []byte) error {
	for len(p) > 0 {
		d, err := r.translate(va, AccessRead)
		if err != nil {
			return err
		}
		off := int(va & PageMask)
		n := copy(p, d[off:])
		p = p[n:]
		va += Addr(n)
	}
	return nil
}

func (r *refSpace) writeBytes(va Addr, p []byte) error {
	for len(p) > 0 {
		d, err := r.translate(va, AccessWrite)
		if err != nil {
			return err
		}
		off := int(va & PageMask)
		n := copy(d[off:], p)
		p = p[n:]
		va += Addr(n)
	}
	return nil
}

// tracedSpace pairs a real AddressSpace with a charge accumulator and
// the same auto-map-guards handler the reference model runs.
func tracedSpace(costs *sim.Costs, autoMap bool) (*AddressSpace, *sim.Cycles) {
	as := NewAddressSpace("trace", NewPhys(0), costs)
	var charged sim.Cycles
	as.Charge = func(c sim.Cycles) { charged += c }
	if autoMap {
		as.Handler = func(as *AddressSpace, f *Fault) FaultAction {
			if !f.Guard {
				return FaultKill
			}
			if err := as.SetPerm(PageDown(f.Addr), PermRW); err != nil {
				return FaultKill
			}
			return FaultRetry
		}
	}
	return as, &charged
}

// TestTranslationTraceMatchesSeedModel replays a long recorded
// pseudo-random trace of maps, guards, unmaps, permission changes,
// reads, writes, and TLB flushes against both the optimized
// AddressSpace and the seed reference model, asserting the error
// outcome of every operation and the final TLBHits / TLBMisses /
// Faults / charge totals / memory contents are identical. The slot
// count exceeds both the translation cache (256) and the simulated
// TLB (64), so the trace exercises conflict evictions in both. It runs
// over two slot layouts: adjacent pages, which share a few radix
// leaves, and pages one leaf apart, so every slot has a leaf of its
// own that empties on each unmap and is refilled, from the page
// table's spare leaves, by a later map of any slot.
func TestTranslationTraceMatchesSeedModel(t *testing.T) {
	for _, layout := range []struct {
		name   string
		stride int // pages between neighbouring slots
	}{
		{"adjacent", 1},
		{"leaf-apart", radixLeafSize},
	} {
		t.Run(layout.name, func(t *testing.T) { translationTrace(t, layout.stride) })
	}
}

func translationTrace(t *testing.T, stride int) {
	const (
		slots = 320
		ops   = 20000
	)
	costs := sim.DefaultCosts()
	as, charged := tracedSpace(&costs, true)
	ref := newRefSpace(&costs)
	ref.autoMapGuards = true

	base := as.Reserve(slots * stride)
	pageAt := func(slot int) Addr { return base + Addr(slot*stride)*PageSize }

	r := sim.NewRand(42)
	var bufA, bufB [24]byte
	for op := 0; op < ops; op++ {
		slot := int(r.Uint64() % slots)
		va := pageAt(slot)
		var errA, errB error
		switch k := r.Uint64() % 16; {
		case k < 2: // map rw
			errA, errB = as.MapPage(va, PermRW), ref.mapPage(va, PermRW)
		case k < 3: // map read-only
			errA, errB = as.MapPage(va, PermR), ref.mapPage(va, PermR)
		case k < 4: // map guard
			errA, errB = as.MapGuard(va), ref.mapGuard(va)
		case k < 6: // unmap
			errA, errB = as.Unmap(va), ref.unmap(va)
		case k < 7: // downgrade to read-only
			errA, errB = as.SetPerm(va, PermR), ref.setPerm(va, PermR)
		case k < 8: // upgrade (also promotes guards)
			errA, errB = as.SetPerm(va, PermRW), ref.setPerm(va, PermRW)
		case k < 12: // write, possibly page-straddling
			off := Addr(r.Uint64() % PageSize)
			v := r.Uint64()
			for i := range bufA {
				bufA[i] = byte(v >> (8 * (uint(i) % 8)))
			}
			errA = as.WriteBytes(va+off, bufA[:])
			errB = ref.writeBytes(va+off, bufA[:])
		case k < 15: // read, possibly page-straddling
			off := Addr(r.Uint64() % PageSize)
			errA = as.ReadBytes(va+off, bufA[:])
			errB = ref.readBytes(va+off, bufB[:])
			if errA == nil && errB == nil && !bytes.Equal(bufA[:], bufB[:]) {
				t.Fatalf("op %d: read data diverged at %#x: %x vs %x",
					op, uint64(va+off), bufA, bufB)
			}
		default: // context switch
			as.TLBFlush()
			ref.tlbFlush()
		}
		if (errA == nil) != (errB == nil) {
			t.Fatalf("op %d at %#x: optimized err %v, reference err %v",
				op, uint64(va), errA, errB)
		}
	}

	if as.Stats.TLBHits != ref.hits || as.Stats.TLBMisses != ref.misses || as.Stats.Faults != ref.faults {
		t.Errorf("counters diverged: optimized hits/misses/faults %d/%d/%d, reference %d/%d/%d",
			as.Stats.TLBHits, as.Stats.TLBMisses, as.Stats.Faults, ref.hits, ref.misses, ref.faults)
	}
	if *charged != ref.charged {
		t.Errorf("charges diverged: optimized %d cycles, reference %d cycles",
			*charged, ref.charged)
	}
	if as.Stats.Faults == 0 || as.Stats.TLBHits == 0 || as.Stats.TLBMisses == 0 {
		t.Errorf("degenerate trace (hits %d, misses %d, faults %d): counters not exercised",
			as.Stats.TLBHits, as.Stats.TLBMisses, as.Stats.Faults)
	}

	// Final sweep: every page the reference still has mapped readable
	// must read back identically from the optimized space.
	var pa, pb [PageSize]byte
	for va, pte := range ref.pages {
		if pte.Guard || pte.Perm&PermR == 0 {
			continue
		}
		if err := as.ReadBytes(va, pa[:]); err != nil {
			t.Fatalf("final sweep: optimized read of %#x failed: %v", uint64(va), err)
		}
		if err := ref.readBytes(va, pb[:]); err != nil {
			t.Fatalf("final sweep: reference read of %#x failed: %v", uint64(va), err)
		}
		if !bytes.Equal(pa[:], pb[:]) {
			t.Fatalf("final sweep: page %#x contents diverged", uint64(va))
		}
	}
}

// TestTranslationCacheUnmapCoherence: a cached walk must not serve a
// page after Unmap removes it.
func TestTranslationCacheUnmapCoherence(t *testing.T) {
	costs := sim.DefaultCosts()
	as := NewAddressSpace("t", NewPhys(0), &costs)
	base, err := as.MapRegion(1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	if err := as.ReadBytes(base, b[:]); err != nil { // populate the cache
		t.Fatal(err)
	}
	if err := as.Unmap(base); err != nil {
		t.Fatal(err)
	}
	err = as.ReadBytes(base, b[:])
	f, ok := err.(*Fault)
	if !ok || !f.NotPresent {
		t.Fatalf("read after unmap: want not-present fault, got %v", err)
	}
}

// TestTranslationCacheSetPermCoherence: a cached rw walk must not
// authorize writes after the page is downgraded to read-only.
func TestTranslationCacheSetPermCoherence(t *testing.T) {
	costs := sim.DefaultCosts()
	as := NewAddressSpace("t", NewPhys(0), &costs)
	base, err := as.MapRegion(1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(base, 7); err != nil { // populate the cache
		t.Fatal(err)
	}
	if err := as.SetPerm(base, PermR); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(base, 8); err == nil {
		t.Fatal("write after downgrade to read-only succeeded")
	}
	v, err := as.ReadU64(base)
	if err != nil || v != 7 {
		t.Fatalf("read-only page: got %d, %v; want 7, nil", v, err)
	}
}

// TestTranslationCacheGuardPromotion: a guard page's fault must reach
// the handler (never a cached bypass), and after promotion the page
// must serve zeroed, writable memory.
func TestTranslationCacheGuardPromotion(t *testing.T) {
	costs := sim.DefaultCosts()
	as, _ := tracedSpace(&costs, true)
	va := as.Reserve(1)
	if err := as.MapGuard(va); err != nil {
		t.Fatal(err)
	}
	var b [16]byte
	if err := as.ReadBytes(va, b[:]); err != nil {
		t.Fatalf("guard promotion read failed: %v", err)
	}
	if b != ([16]byte{}) {
		t.Fatalf("promoted guard page not zeroed: %x", b)
	}
	if as.Stats.Faults != 1 {
		t.Fatalf("guard promotion: want exactly 1 fault, got %d", as.Stats.Faults)
	}
	if err := as.WriteU64(va, 99); err != nil {
		t.Fatalf("write to promoted page: %v", err)
	}
	if v, _ := as.ReadU64(va); v != 99 {
		t.Fatalf("promoted page readback: got %d, want 99", v)
	}
}

// TestTranslationCacheTLBFlushAccounting: TLBFlush must empty both the
// simulated TLB and the host cache, so the next access is a simulated
// miss again — the counter the context-switch cost model rides on.
func TestTranslationCacheTLBFlushAccounting(t *testing.T) {
	costs := sim.DefaultCosts()
	as := NewAddressSpace("t", NewPhys(0), &costs)
	base, err := as.MapRegion(1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	for i := 0; i < 3; i++ {
		if err := as.ReadBytes(base, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	if as.Stats.TLBMisses != 1 || as.Stats.TLBHits != 2 {
		t.Fatalf("before flush: misses %d hits %d, want 1/2", as.Stats.TLBMisses, as.Stats.TLBHits)
	}
	as.TLBFlush()
	if err := as.ReadBytes(base, b[:]); err != nil {
		t.Fatal(err)
	}
	if as.Stats.TLBMisses != 2 || as.Stats.TLBHits != 2 {
		t.Fatalf("after flush: misses %d hits %d, want 2/2", as.Stats.TLBMisses, as.Stats.TLBHits)
	}
}

// TestTranslationCacheConflictEviction: two pages that collide in the
// direct-mapped host cache must each read their own data as accesses
// alternate (eviction correctness, not accounting).
func TestTranslationCacheConflictEviction(t *testing.T) {
	costs := sim.DefaultCosts()
	as := NewAddressSpace("t", NewPhys(0), &costs)
	va1 := as.Reserve(1)
	va2 := va1 + tcSize*PageSize // same tcIndex as va1
	if tcIndex(va1) != tcIndex(va2) {
		t.Fatalf("test setup: pages %#x and %#x do not collide", uint64(va1), uint64(va2))
	}
	if err := as.MapPage(va1, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.MapPage(va2, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(va1, 111); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(va2, 222); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if v, err := as.ReadU64(va1); err != nil || v != 111 {
			t.Fatalf("round %d: page 1 read %d, %v", i, v, err)
		}
		if v, err := as.ReadU64(va2); err != nil || v != 222 {
			t.Fatalf("round %d: page 2 read %d, %v", i, v, err)
		}
	}
}
