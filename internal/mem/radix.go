package mem

// Two-level radix page table. The simulator's own hot path is the
// page walk in translate: every ReadBytes/WriteBytes resolves at
// least one page, and bulk copies resolve one per 4KiB. The seed kept
// the table in a Go map, paying a hash per page; the radix form pays
// two array indexes. The *simulated* cost model (TLB hits/misses,
// fault charges) is entirely unaffected — this structure only changes
// how fast the host resolves a PTE, never how many cycles the
// simulated machine is charged.
//
// Geometry: leaves hold 512 PTEs (2MiB of VA each); the root is a
// slice of leaf pointers grown on demand and indexed directly by the
// high bits of the page number. Addresses beyond the directly
// indexable range (nothing in the simulator maps there — Reserve
// hands out VA linearly from near zero) fall back to a map so
// arbitrary 64-bit addresses stay correct.
//
// Reserve never reuses VA, so a space that maps and unmaps regions
// over and over (a ring set up and closed per scan) keeps emptying
// old leaves and needing new ones. del releases an empty leaf to a
// spare list and set takes a spare before it allocates, so such a
// space keeps at most the leaves it held at its peak, and the root
// grows by append.

const (
	radixLeafBits = 9 // 512 PTEs per leaf: one leaf spans 2MiB of VA
	radixLeafSize = 1 << radixLeafBits
	radixLeafMask = radixLeafSize - 1
	// radixMaxRoot bounds direct-indexed root growth: 1<<16 leaves
	// reach 128GiB of VA through the fast path.
	radixMaxRoot = 1 << 16
)

type radixLeaf struct {
	present [radixLeafSize]bool
	ptes    [radixLeafSize]PTE
	used    int
}

type pageTable struct {
	root []*radixLeaf
	// spare holds leaves del emptied, for set to reuse. del clears a
	// leaf entry by entry, so every spare leaf is all absent.
	spare    []*radixLeaf
	overflow map[Addr]PTE
	count    int
}

// lookup resolves the PTE for a page-aligned address.
func (pt *pageTable) lookup(page Addr) (PTE, bool) {
	pn := uint64(page) >> PageShift
	ri := pn >> radixLeafBits
	if ri < uint64(len(pt.root)) {
		if lf := pt.root[ri]; lf != nil {
			li := pn & radixLeafMask
			if lf.present[li] {
				return lf.ptes[li], true
			}
		}
		return PTE{}, false
	}
	if ri < radixMaxRoot {
		return PTE{}, false
	}
	pte, ok := pt.overflow[page]
	return pte, ok
}

// set installs or replaces the PTE for a page-aligned address.
func (pt *pageTable) set(page Addr, pte PTE) {
	pn := uint64(page) >> PageShift
	ri := pn >> radixLeafBits
	if ri >= radixMaxRoot {
		if pt.overflow == nil {
			pt.overflow = make(map[Addr]PTE)
		}
		if _, ok := pt.overflow[page]; !ok {
			pt.count++
		}
		pt.overflow[page] = pte
		return
	}
	for uint64(len(pt.root)) <= ri {
		pt.root = append(pt.root, nil)
	}
	lf := pt.root[ri]
	if lf == nil {
		if n := len(pt.spare); n > 0 {
			lf = pt.spare[n-1]
			pt.spare = pt.spare[:n-1]
		} else {
			lf = &radixLeaf{}
		}
		pt.root[ri] = lf
	}
	li := pn & radixLeafMask
	if !lf.present[li] {
		lf.present[li] = true
		lf.used++
		pt.count++
	}
	lf.ptes[li] = pte
}

// del removes the PTE for a page-aligned address, reporting whether
// it was present. A leaf it empties goes to the spare list, so
// long-lived spaces with churning mappings neither accrete dead
// tables nor allocate fresh ones.
func (pt *pageTable) del(page Addr) bool {
	pn := uint64(page) >> PageShift
	ri := pn >> radixLeafBits
	if ri >= radixMaxRoot {
		if _, ok := pt.overflow[page]; !ok {
			return false
		}
		delete(pt.overflow, page)
		pt.count--
		return true
	}
	if ri >= uint64(len(pt.root)) {
		return false
	}
	lf := pt.root[ri]
	li := pn & radixLeafMask
	if lf == nil || !lf.present[li] {
		return false
	}
	lf.present[li] = false
	lf.ptes[li] = PTE{}
	lf.used--
	pt.count--
	if lf.used == 0 {
		pt.root[ri] = nil
		pt.spare = append(pt.spare, lf)
	}
	return true
}

// len reports the number of present PTEs.
func (pt *pageTable) len() int { return pt.count }
