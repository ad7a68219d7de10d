package mem

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestPageTableReusesLeaves pins the page table's spare leaves. A
// space that maps and unmaps a region over and over, on fresh VA each
// time as Reserve hands it out, must allocate nothing once warm: every
// leaf the region needs comes from the leaves its predecessors
// emptied, and the root grows by append, whose doublings average out
// under one object per cycle. A reused leaf must also resolve no page
// of its own that nobody mapped since.
func TestPageTableReusesLeaves(t *testing.T) {
	const pages = 130
	costs := sim.DefaultCosts()
	as := NewAddressSpace("churn", NewPhys(0), &costs)
	var cycleErr error
	cycle := func() {
		// Start the region 65 pages short of a leaf boundary, so it
		// spans two leaves.
		pn := int(as.next >> PageShift)
		if pad := (radixLeafSize - pages/2 - pn) & radixLeafMask; pad > 0 {
			as.Reserve(pad - 1)
		}
		base, err := as.MapRegion(pages, PermRW)
		if err != nil {
			cycleErr = err
			return
		}
		if leafIndex(base) == leafIndex(base+(pages-1)*PageSize) {
			cycleErr = errors.New("the region fell inside one leaf")
			return
		}
		for i := 0; i < pages; i++ {
			if err := as.Unmap(base + Addr(i*PageSize)); err != nil {
				cycleErr = err
				return
			}
		}
	}
	cycle() // warm: the first leaves, frames and root
	if allocs := testing.AllocsPerRun(100, cycle); cycleErr != nil {
		t.Fatal(cycleErr)
	} else if allocs != 0 {
		t.Errorf("a %d-page MapRegion + Unmap cycle across a leaf boundary allocated %.1f objects, want 0", pages, allocs)
	}
	if n := len(as.pages.spare); n != 2 {
		t.Errorf("the page table keeps %d spare leaves after the churn, want the 2 it peaked at", n)
	}

	// Fill slots of one leaf, empty it, then map one page under another
	// root index: that page must land in the same leaf object and be
	// the only page it resolves.
	const leafBytes = radixLeafSize * PageSize
	leafA := (as.Reserve(3*radixLeafSize) + leafBytes) &^ (leafBytes - 1)
	leafB := leafA + leafBytes
	slots := []int{0, 7, 300, radixLeafMask}
	for _, s := range slots {
		if err := as.MapPage(leafA+Addr(s*PageSize), PermRW); err != nil {
			t.Fatal(err)
		}
	}
	reused := as.pages.root[leafIndex(leafA)]
	for _, s := range slots {
		if err := as.Unmap(leafA + Addr(s*PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.MapPage(leafB+3*PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	if got := as.pages.root[leafIndex(leafB)]; got != reused {
		t.Fatal("the page under a new root index did not reuse the emptied leaf")
	}
	if n := as.Mapped(); n != 1 {
		t.Errorf("%d pages mapped, want 1", n)
	}
	for s := 0; s < radixLeafSize; s++ {
		if pte, ok := as.Lookup(leafA + Addr(s*PageSize)); ok {
			t.Errorf("emptied leaf's slot %d still resolves to %+v", s, pte)
		}
		pte, ok := as.Lookup(leafB + Addr(s*PageSize))
		if s == 3 {
			if !ok || pte.Perm != PermR {
				t.Errorf("mapped slot 3 resolves to %+v, %v", pte, ok)
			}
		} else if ok {
			t.Errorf("reused leaf resolves slot %d, mapped only under its old index, to %+v", s, pte)
		}
	}
}

// leafIndex is the root index of the leaf holding va's PTE.
func leafIndex(va Addr) uint64 { return uint64(va) >> PageShift >> radixLeafBits }

// fuzzPages is FuzzPageTable's page universe: four slots in each of
// five leaves, one of them far enough out to grow the root in a single
// step, and three pages of the overflow range.
var fuzzPages = func() []Addr {
	var ps []Addr
	for _, leaf := range []uint64{0, 1, 2, 9, 700} {
		for _, slot := range []uint64{0, 1, 256, radixLeafMask} {
			ps = append(ps, Addr((leaf<<radixLeafBits|slot)<<PageShift))
		}
	}
	over := uint64(radixMaxRoot) << radixLeafBits << PageShift
	return append(ps, Addr(over), Addr(over+PageSize), Addr(^uint64(0)&^PageMask))
}()

// FuzzPageTable drives the radix page table's set, del and lookup
// against a map model. Each step is three input bytes: an operation
// (set, set, del or a lookup alone), a page of fuzzPages and the bits
// of the PTE a set installs. After every step len() must equal the
// model's size and every page of the universe must resolve as the
// model says, so a leaf reused from the spare list can never bring
// back a PTE it held under another root index.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{0, 0, 1})
	// Fill two slots of leaf 0, empty it, then set in leaves 9 and 700
	// and in the overflow range.
	f.Add([]byte{0, 0, 1, 1, 1, 2, 2, 0, 0, 2, 1, 0, 0, 12, 3, 0, 16, 5, 0, 20, 7, 3, 13, 0})
	f.Add([]byte{0, 2, 15, 2, 2, 0, 0, 3, 14, 2, 3, 0, 1, 21, 9, 2, 21, 0, 0, 22, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		var pt pageTable
		model := make(map[Addr]PTE)
		for i := 0; i+2 < len(in); i += 3 {
			op, page, v := in[i]&3, fuzzPages[int(in[i+1])%len(fuzzPages)], in[i+2]
			switch op {
			case 0, 1:
				pte := PTE{Frame: Frame(v) | Frame(i)<<8, Perm: Perm(v & 3), Guard: v&4 != 0, Shared: v&8 != 0}
				pt.set(page, pte)
				model[page] = pte
			case 2:
				_, want := model[page]
				if got := pt.del(page); got != want {
					t.Fatalf("step %d: del(%#x) = %v, model had it: %v", i/3, uint64(page), got, want)
				}
				delete(model, page)
			}
			if n := pt.len(); n != len(model) {
				t.Fatalf("step %d: len() = %d, model holds %d", i/3, n, len(model))
			}
			for _, p := range fuzzPages {
				got, ok := pt.lookup(p)
				want, wantOK := model[p]
				if ok != wantOK || got != want {
					t.Fatalf("step %d: lookup(%#x) = %+v, %v; model %+v, %v", i/3, uint64(p), got, ok, want, wantOK)
				}
			}
		}
	})
}
