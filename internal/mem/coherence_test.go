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

// mapShared is MapFrame: the page aliases d, another space's page.
func (r *refSpace) mapShared(va Addr, d []byte, perm Perm) error {
	if _, ok := r.pages[va]; ok {
		return fmt.Errorf("ref: page %#x already mapped", uint64(va))
	}
	r.pages[va] = PTE{Perm: perm, Shared: true}
	r.data[va] = d
	r.tlbFlushPage(va)
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

// TestTranslationCacheUnalignedUnmap: Unmap of an address inside a
// page drops that page's cached walk, so a read at the page's start
// faults instead of reading the freed frame.
func TestTranslationCacheUnalignedUnmap(t *testing.T) {
	costs := sim.DefaultCosts()
	phys := NewPhys(0)
	as := NewAddressSpace("t", phys, &costs)
	base, err := as.MapRegion(1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	if err := as.ReadBytes(base, b[:]); err != nil { // populate the cache
		t.Fatal(err)
	}
	if err := as.Unmap(base + 1); err != nil {
		t.Fatal(err)
	}
	if phys.InUse() != 0 {
		t.Fatalf("unmap left %d frames in use, want 0", phys.InUse())
	}
	err = as.ReadBytes(base, b[:])
	f, ok := err.(*Fault)
	if !ok || !f.NotPresent {
		t.Fatalf("read after unaligned unmap: want not-present fault, got %v", err)
	}
}

// TestTranslationCacheUnalignedSetPerm: SetPerm of an address inside
// a page drops that page's cached rw walk, so a write at the page's
// start no longer succeeds.
func TestTranslationCacheUnalignedSetPerm(t *testing.T) {
	costs := sim.DefaultCosts()
	as := NewAddressSpace("t", NewPhys(0), &costs)
	base, err := as.MapRegion(1, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(base, 7); err != nil { // populate the cache
		t.Fatal(err)
	}
	if err := as.SetPerm(base+8, PermR); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(base, []byte{8}); err == nil {
		t.Fatal("write after an unaligned downgrade to read-only succeeded")
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

// fuzzSlots are FuzzAddressSpace's pages, as page offsets from a base:
// neighbours, pages that share a simulated TLB slot (64 apart) or a
// translation-cache slot (256 apart), and pages in other radix leaves.
var fuzzSlots = []Addr{0, 1, 2, 63, 64, 65, 256, 257, 320, radixLeafSize, radixLeafSize + 256, 3*radixLeafSize - 1}

// FuzzAddressSpace replays a trace decoded from the input against an
// owner space and a borrower space over one frame pool, and against
// two seed models whose borrowed pages alias the owner model's bytes.
// Each step is three bytes: an operation, a slot of fuzzSlots and an
// argument. The owner takes TestTranslationTraceMatchesSeedModel's
// mix (map rw and read-only, guard, unmap, set-perm, read, write and
// TLB flush, with a handler that promotes guard pages); the borrower
// MapFrames the owner's page at the same slot, reads, writes, flushes
// its TLB and unmaps, and an owner unmap of a borrowed slot unmaps the
// borrow first. Every step's error must match the model's, faults
// field for field; at the end both spaces' TLB, fault and charge
// totals and every readable page must match, and the pool must hold
// one frame per owner page that is not a guard.
func FuzzAddressSpace(f *testing.F) {
	f.Add([]byte{0, 0, 7, 13, 0, 1, 14, 0, 9, 10, 0, 3, 4, 0, 0})
	// Borrow before any touch, write through the borrower, read through
	// the owner, downgrade, flush, unmap with the borrow still mapped.
	f.Add([]byte{0, 6, 0, 13, 6, 1, 14, 6, 200, 10, 6, 199, 6, 6, 0, 15, 6, 255, 12, 0, 0, 17, 0, 0, 8, 6, 5, 5, 6, 0, 15, 6, 1})
	// Guards, promotion through a fault, conflicting slots.
	f.Add([]byte{3, 3, 0, 10, 3, 40, 0, 4, 0, 0, 7, 0, 8, 3, 255, 8, 4, 0, 11, 7, 9, 13, 3, 1, 16, 3, 0, 4, 3, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		costs := sim.DefaultCosts()
		owner, ownerCharged := tracedSpace(&costs, true)
		borrower := NewAddressSpace("borrower", owner.Phys(), &costs)
		var borrowerCharged sim.Cycles
		borrower.Charge = func(c sim.Cycles) { borrowerCharged += c }
		ref, bref := newRefSpace(&costs), newRefSpace(&costs)
		ref.autoMapGuards = true

		span := int(fuzzSlots[len(fuzzSlots)-1]) + 1
		oBase, bBase := owner.Reserve(span), borrower.Reserve(span)
		var buf, want [24]byte
		for i := 0; i+2 < len(in); i += 3 {
			op, arg := in[i]%18, in[i+2]
			slot := fuzzSlots[int(in[i+1])%len(fuzzSlots)] * PageSize
			ova, bva := oBase+slot, bBase+slot
			off := Addr(arg) * 16 // 255*16 + 24 straddles into the next page
			for j := range buf {
				buf[j] = arg ^ byte(i+j)
			}
			var errA, errB error
			switch op {
			case 0, 1:
				errA, errB = owner.MapPage(ova, PermRW), ref.mapPage(ova, PermRW)
			case 2:
				errA, errB = owner.MapPage(ova, PermR), ref.mapPage(ova, PermR)
			case 3:
				errA, errB = owner.MapGuard(ova), ref.mapGuard(ova)
			case 4, 5:
				if _, ok := bref.pages[bva]; ok {
					if errA, errB = borrower.Unmap(bva), bref.unmap(bva); errA != nil || errB != nil {
						break
					}
				}
				errA, errB = owner.Unmap(ova), ref.unmap(ova)
			case 6:
				errA, errB = owner.SetPerm(ova, PermR), ref.setPerm(ova, PermR)
			case 7:
				errA, errB = owner.SetPerm(ova, PermRW), ref.setPerm(ova, PermRW)
			case 8, 9:
				errA, errB = owner.WriteBytes(ova+off, buf[:]), ref.writeBytes(ova+off, buf[:])
			case 10, 11:
				errA, errB = owner.ReadBytes(ova+off, buf[:]), ref.readBytes(ova+off, want[:])
			case 12:
				owner.TLBFlush()
				ref.tlbFlush()
			case 13:
				// Borrow the owner's page at this slot, if it has a frame.
				pte, ok := owner.Lookup(ova)
				if !ok || pte.Guard {
					continue
				}
				perm := PermRW
				if arg&1 != 0 {
					perm = PermR
				}
				errA, errB = borrower.MapFrame(bva, pte.Frame, perm), bref.mapShared(bva, ref.data[ova], perm)
			case 14:
				errA, errB = borrower.WriteBytes(bva+off, buf[:]), bref.writeBytes(bva+off, buf[:])
			case 15:
				errA, errB = borrower.ReadBytes(bva+off, buf[:]), bref.readBytes(bva+off, want[:])
			case 16:
				errA, errB = borrower.Unmap(bva), bref.unmap(bva)
			case 17:
				borrower.TLBFlush()
				bref.tlbFlush()
			}
			if (errA == nil) != (errB == nil) {
				t.Fatalf("step %d (op %d at slot %#x): space err %v, model err %v", i/3, op, uint64(slot), errA, errB)
			}
			if fa, ok := errA.(*Fault); ok {
				if fb, ok := errB.(*Fault); !ok || *fa != *fb {
					t.Fatalf("step %d (op %d at slot %#x): space fault %v, model %v", i/3, op, uint64(slot), errA, errB)
				}
			}
			if (op == 10 || op == 11 || op == 15) && errA == nil && buf != want {
				t.Fatalf("step %d (op %d at slot %#x): read %x, model %x", i/3, op, uint64(slot), buf, want)
			}
		}

		for _, c := range []struct {
			name    string
			as      *AddressSpace
			charged sim.Cycles
			ref     *refSpace
		}{{"owner", owner, *ownerCharged, ref}, {"borrower", borrower, borrowerCharged, bref}} {
			st := c.as.Stats
			if st.TLBHits != c.ref.hits || st.TLBMisses != c.ref.misses || st.Faults != c.ref.faults || c.charged != c.ref.charged {
				t.Fatalf("%s: hits/misses/faults/charged %d/%d/%d/%d, model %d/%d/%d/%d", c.name,
					st.TLBHits, st.TLBMisses, st.Faults, c.charged, c.ref.hits, c.ref.misses, c.ref.faults, c.ref.charged)
			}
			var pa, pb [PageSize]byte
			for va, pte := range c.ref.pages {
				if pte.Guard || pte.Perm&PermR == 0 {
					continue
				}
				if err := c.as.ReadBytes(va, pa[:]); err != nil {
					t.Fatalf("%s: final read of %#x: %v", c.name, uint64(va), err)
				}
				if err := c.ref.readBytes(va, pb[:]); err != nil {
					t.Fatalf("%s: final model read of %#x: %v", c.name, uint64(va), err)
				}
				if pa != pb {
					t.Fatalf("%s: page %#x diverged from the model", c.name, uint64(va))
				}
			}
		}
		frames := 0
		for _, pte := range ref.pages {
			if !pte.Guard {
				frames++
			}
		}
		if p := owner.Phys(); p.InUse() != frames || p.Backed() > frames {
			t.Fatalf("pool: InUse %d, Backed %d; the owner maps %d frames", p.InUse(), p.Backed(), frames)
		}
	})
}
