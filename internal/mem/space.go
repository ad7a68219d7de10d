package mem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
)

// Perm is a page permission mask.
type Perm uint8

const (
	// PermR allows reads.
	PermR Perm = 1 << iota
	// PermW allows writes.
	PermW
	// PermRW is the common read-write mapping.
	PermRW = PermR | PermW
	// PermNone maps a page with no access rights: the Kefence
	// guardian PTE. Any touch faults.
	PermNone Perm = 0
)

func (p Perm) String() string {
	switch {
	case p&PermRW == PermRW:
		return "rw"
	case p&PermR != 0:
		return "r-"
	case p&PermW != 0:
		return "-w"
	}
	return "--"
}

// Access describes what an instruction was doing when it touched
// memory.
type Access uint8

const (
	// AccessRead is a load.
	AccessRead Access = iota
	// AccessWrite is a store.
	AccessWrite
)

func (a Access) String() string {
	if a == AccessWrite {
		return "write"
	}
	return "read"
}

// PTE is one page-table entry.
type PTE struct {
	Frame Frame
	Perm  Perm
	// Guard marks a guardian PTE inserted by Kefence. Guard pages
	// have no frame; permissions are PermNone until a handler
	// auto-maps them.
	Guard bool
	// Shared marks a borrowed mapping of a frame owned by another
	// address space (MapFrame). Unmapping a shared PTE drops the
	// mapping but never frees the frame: the owner does that. This is
	// the substrate of the zero-copy data plane — the kring region,
	// which also carries Cosy compounds and their data, appears in both
	// the kernel and the user space, and the borrower side must not
	// release it on teardown.
	Shared bool
}

// Fault describes a page fault. It implements error so failed
// accesses propagate naturally when no handler fixes them up.
type Fault struct {
	Addr   Addr
	Access Access
	// NotPresent is true when no mapping exists at all; false means a
	// protection violation on an existing mapping.
	NotPresent bool
	// Guard is true when the faulting PTE is a guardian page: the
	// Kefence signal.
	Guard bool
}

func (f *Fault) Error() string {
	kind := "protection violation"
	if f.NotPresent {
		kind = "page not present"
	}
	if f.Guard {
		kind = "guard page"
	}
	return fmt.Sprintf("mem: %s fault (%s) at %#x", f.Access, kind, uint64(f.Addr))
}

// FaultAction is a handler's verdict.
type FaultAction int

const (
	// FaultKill aborts the access: the fault is returned to the
	// caller as an error.
	FaultKill FaultAction = iota
	// FaultRetry re-walks the page table; the handler repaired the
	// mapping (Kefence's auto-map mode).
	FaultRetry
)

// FaultHandler is the simulated kernel's page-fault handler hook. The
// paper modifies Linux's handler to recognize guardian PTEs; Kefence
// installs its handler here.
type FaultHandler func(as *AddressSpace, f *Fault) FaultAction

// ChargeFunc receives virtual-cycle charges from the memory system
// (TLB misses, fault handler entries). The owning machine attributes
// them to the running process.
type ChargeFunc func(sim.Cycles)

// tlbSize is the number of simulated TLB entries; i386-era data TLBs
// held 64 entries.
const tlbSize = 64

// Translation-cache geometry: a direct-mapped, host-side cache of
// successful page walks fronting translate. A hit skips the radix
// walk, the fault-path branches and the frame pool: it hands back the
// page's bytes directly. This cache is invisible to the simulated
// machine — the simulated TLB (tlbLookup) still runs on every
// successful translation, so the TLB and fault counts and every cycle
// charge are bit-identical with or without it.
const (
	tcBits = 8
	tcSize = 1 << tcBits
	tcMask = tcSize - 1
)

// tcEntry is one cached walk: the page, its permissions and its
// frame's host page, which the slow path's fill backs if the frame
// had none; data == nil marks an empty entry. A PTE mutation in this
// space drops the entry (tcInvalidate), so the bytes stay right while
// the mapping does. For a Shared borrow (MapFrame) the owner's Unmap
// frees the frame without reaching the borrower's cache, so the borrow
// must be unmapped before its owner frees the frame, the order
// ring_close and any other teardown of a borrowed region keep. Each
// space carries 256 entries: keep one at 24 bytes.
type tcEntry struct {
	page Addr
	data *[PageSize]byte
	perm Perm
}

// AddressSpace is one virtual address space: a software page table, a
// TLB, a fault handler, and a simple region reservation cursor.
type AddressSpace struct {
	Name  string
	phys  *Phys
	pages pageTable

	// Handler is invoked on faults; nil means all faults kill.
	Handler FaultHandler

	// Charge receives cost-model charges; nil disables charging.
	Charge ChargeFunc
	costs  *sim.Costs

	// FaultProbe, when set, observes every delivered fault (after the
	// fault is counted and charged, before the handler runs). It is an
	// observability tap: it must not repair mappings or charge cycles.
	FaultProbe func(f *Fault)

	// tlb holds the simulated TLB's tags: a cached page's address with
	// tlbValid set, so an empty slot is 0 and a hit is one compare.
	tlb [tlbSize]Addr

	// tc is the host-side translation cache; see tcBits.
	tc [tcSize]tcEntry

	// Stats receives the space's MMU counts. NewAddressSpace gives
	// each space its own; spaces that point at one Stats count
	// together.
	Stats *Stats

	next Addr // region reservation cursor
}

// Stats are MMU counters, kept as plain fields so a reader loads them.
type Stats struct {
	TLBHits, TLBMisses int64
	Faults             int64
	// GuardPromos counts guard pages promoted to real mappings by
	// SetPerm (Kefence's log-and-continue auto-map).
	GuardPromos int64
}

// NewAddressSpace creates an empty space over the frame pool. costs
// may be nil (no charging).
func NewAddressSpace(name string, phys *Phys, costs *sim.Costs) *AddressSpace {
	return &AddressSpace{
		Name:  name,
		phys:  phys,
		costs: costs,
		Stats: &Stats{},
		next:  0x1000 * 16, // keep page 0 and the low pages unmapped
	}
}

// Phys exposes the frame pool (allocators need it).
func (as *AddressSpace) Phys() *Phys { return as.phys }

// Reserve hands out a fresh, unmapped, page-aligned virtual region of
// n pages and returns its base. Virtual address space is treated as
// the paper treats 64-bit VA space: "a virtually inexhaustible
// resource".
func (as *AddressSpace) Reserve(nPages int) Addr {
	base := as.next
	as.next += Addr(nPages+1) * PageSize // +1: unmapped spacer page
	return base
}

// MapPage installs a mapping from the page containing va to a fresh
// frame with the given permissions. The va must be page-aligned.
func (as *AddressSpace) MapPage(va Addr, perm Perm) error {
	if va&PageMask != 0 {
		panic(fmt.Sprintf("mem: MapPage of unaligned address %#x", uint64(va)))
	}
	if _, ok := as.pages.lookup(va); ok {
		return fmt.Errorf("mem: page %#x already mapped", uint64(va))
	}
	f, err := as.phys.Alloc()
	if err != nil {
		return err
	}
	as.pages.set(va, PTE{Frame: f, Perm: perm})
	as.tcInvalidate(va)
	as.chargeCost(as.costMapPage())
	return nil
}

// MapFrame installs a mapping from the page containing va to an
// existing frame owned elsewhere (typically by another address
// space). The mapping is marked Shared: both spaces now alias the
// same backing bytes — a store through either is immediately visible
// through the other, with no copy, whichever side touched the frame
// first — and unmapping here never frees the frame. Coherent
// invalidation is per-space: this call, like every PTE mutation,
// drops the page's cached walk and TLB entry in this space; the
// owner's space is untouched (its PTE did not change).
//
// The borrow must be unmapped before the owner frees the frame. The
// owner's Unmap cannot reach this space's translation cache, which
// keeps the frame's bytes, and a freed frame's page and number are
// both reused.
func (as *AddressSpace) MapFrame(va Addr, f Frame, perm Perm) error {
	if va&PageMask != 0 {
		panic(fmt.Sprintf("mem: MapFrame of unaligned address %#x", uint64(va)))
	}
	if _, ok := as.pages.lookup(va); ok {
		return fmt.Errorf("mem: page %#x already mapped", uint64(va))
	}
	// A stale frame is a kernel bug, not a recoverable error. The
	// check backs nothing: the frame gets its page at its first touch
	// through either space.
	as.phys.checkLive(f, "MapFrame of unallocated")
	as.pages.set(va, PTE{Frame: f, Perm: perm, Shared: true})
	as.tcInvalidate(va)
	as.tlbFlushPage(va)
	as.chargeCost(as.costMapPage())
	return nil
}

// MapGuard installs a guardian PTE: present in the page table but
// with all access disabled, and no frame behind it.
func (as *AddressSpace) MapGuard(va Addr) error {
	if va&PageMask != 0 {
		panic(fmt.Sprintf("mem: MapGuard of unaligned address %#x", uint64(va)))
	}
	if _, ok := as.pages.lookup(va); ok {
		return fmt.Errorf("mem: page %#x already mapped", uint64(va))
	}
	as.pages.set(va, PTE{Guard: true, Perm: PermNone})
	as.tcInvalidate(va)
	return nil
}

// Unmap removes the mapping of the page holding va, releasing its
// frame, and drops that page's cached translation. Unmapping a
// guard page releases nothing, and neither does unmapping a Shared
// borrow (the owning space frees the frame when it unmaps).
func (as *AddressSpace) Unmap(va Addr) error {
	va = PageDown(va)
	pte, ok := as.pages.lookup(va)
	if !ok {
		return fmt.Errorf("mem: unmap of unmapped page %#x", uint64(va))
	}
	if !pte.Guard && !pte.Shared {
		as.phys.Free(pte.Frame)
	}
	as.pages.del(va)
	as.tcInvalidate(va)
	as.tlbFlushPage(va)
	as.chargeCost(as.costUnmapPage())
	return nil
}

// SetPerm changes the permissions of the existing mapping of the page
// holding va and drops that page's cached translation. Used by
// Kefence's auto-map mode to convert a guard page into a readable (or
// writable) page after logging the overflow.
func (as *AddressSpace) SetPerm(va Addr, perm Perm) error {
	va = PageDown(va)
	pte, ok := as.pages.lookup(va)
	if !ok {
		return fmt.Errorf("mem: SetPerm on unmapped page %#x", uint64(va))
	}
	if pte.Guard {
		// Auto-mapping a guard page requires a real frame now.
		f, err := as.phys.Alloc()
		if err != nil {
			return err
		}
		pte.Frame = f
		pte.Guard = false
		as.Stats.GuardPromos++
	}
	pte.Perm = perm
	as.pages.set(va, pte)
	as.tcInvalidate(va)
	as.tlbFlushPage(va)
	return nil
}

// Lookup returns the PTE mapping va's page, if any.
func (as *AddressSpace) Lookup(va Addr) (PTE, bool) {
	return as.pages.lookup(PageDown(va))
}

// Mapped reports the number of mapped pages (guards included).
func (as *AddressSpace) Mapped() int { return as.pages.len() }

func (as *AddressSpace) chargeCost(c sim.Cycles) {
	if as.Charge != nil && c > 0 {
		as.Charge(c)
	}
}

func (as *AddressSpace) costMapPage() sim.Cycles {
	if as.costs == nil {
		return 0
	}
	return as.costs.MapPage
}

func (as *AddressSpace) costUnmapPage() sim.Cycles {
	if as.costs == nil {
		return 0
	}
	return as.costs.UnmapPage
}

// tlb index: direct-mapped by page number.
func tlbIndex(page Addr) int { return int((page >> PageShift) % tlbSize) }

// tlbValid marks a TLB tag in use. Tags are page addresses, whose low
// bits are clear.
const tlbValid Addr = 1

// tlbLookup counts a simulated TLB hit or takes the miss out of line,
// so the hit inlines into translate; it indexes without tlbIndex's
// conversion to stay within the inlining budget.
func (as *AddressSpace) tlbLookup(page Addr) {
	if as.tlb[(page>>PageShift)%tlbSize] == page|tlbValid {
		as.Stats.TLBHits++
	} else {
		as.tlbMiss(page)
	}
}

// tlbMiss fills page's TLB slot and charges the miss.
func (as *AddressSpace) tlbMiss(page Addr) {
	as.Stats.TLBMisses++
	as.tlb[tlbIndex(page)] = page | tlbValid
	if as.costs != nil {
		as.chargeCost(as.costs.TLBMiss)
	}
}

func (as *AddressSpace) tlbFlushPage(page Addr) {
	if i := tlbIndex(page); as.tlb[i] == page|tlbValid {
		as.tlb[i] = 0
	}
}

// TLBFlush empties the TLB (context switch). The host-side
// translation cache is flushed with it: strictly wider invalidation
// than required for correctness, but it keeps the coherence argument
// one line long.
func (as *AddressSpace) TLBFlush() {
	as.tlb = [tlbSize]Addr{}
	for i := range as.tc {
		as.tc[i].data = nil
	}
}

// tcIndex is the translation cache's direct-map hash.
func tcIndex(page Addr) int { return int((uint64(page) >> PageShift) & tcMask) }

// tcInvalidate drops the cached walk for page, if present. Every
// mutation of a page's PTE (MapPage, MapGuard, SetPerm, Unmap) must
// call this before the next access.
func (as *AddressSpace) tcInvalidate(page Addr) {
	e := &as.tc[tcIndex(page)]
	if e.page == page {
		e.data = nil
	}
}

// translate resolves one page with permission checking and fault
// delivery. On success it returns the page's bytes. The fast path
// serves repeat translations from the host-side cache; simulated TLB
// accounting still runs on every success, so cycle counts match the
// uncached walk exactly.
func (as *AddressSpace) translate(va Addr, access Access) (*[PageSize]byte, error) {
	page := va &^ Addr(PageMask)
	e := &as.tc[tcIndex(page)]
	// PermR and PermW are 1 and 2, and AccessRead and AccessWrite 0
	// and 1, so PermR<<access is the permission the access needs.
	if e.data != nil && e.page == page && e.perm&(PermR<<access) != 0 {
		as.tlbLookup(page)
		return e.data, nil
	}
	return as.translateSlow(va, page, access)
}

// translateSlow is the full page walk with fault delivery. A
// successful walk fills the translation cache with the frame's bytes,
// backing the frame at its first touch.
func (as *AddressSpace) translateSlow(va, page Addr, access Access) (*[PageSize]byte, error) {
	for attempt := 0; ; attempt++ {
		pte, ok := as.pages.lookup(page)
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
			d := as.phys.page(pte.Frame)
			as.tc[tcIndex(page)] = tcEntry{page: page, data: d, perm: pte.Perm}
			as.tlbLookup(page)
			return d, nil
		}
		as.Stats.Faults++
		if as.costs != nil {
			as.chargeCost(as.costs.PageFault)
		}
		if as.FaultProbe != nil {
			as.FaultProbe(f)
		}
		if as.Handler == nil || attempt > 4 {
			return nil, f
		}
		if as.Handler(as, f) == FaultKill {
			return nil, f
		}
		// FaultRetry: handler repaired the mapping; walk again.
	}
}

// ReadBytes copies len(p) bytes starting at va into p: the bulk path.
// Each page is translated exactly once (as before), then copied in
// one host memmove.
func (as *AddressSpace) ReadBytes(va Addr, p []byte) error {
	for len(p) > 0 {
		d, err := as.translate(va, AccessRead)
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

// WriteBytes copies p into memory starting at va.
func (as *AddressSpace) WriteBytes(va Addr, p []byte) error {
	for len(p) > 0 {
		d, err := as.translate(va, AccessWrite)
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

// ReadU64 reads a little-endian 64-bit word (helper for the Cosy VM
// and the KGCC-interpreted code). Words inside a single page — the
// overwhelmingly common case — decode straight out of the frame;
// page-straddling words take the byte path. Both perform the same
// translations (and thus the same simulated charges) as a
// ReadBytes(va, 8) did.
func (as *AddressSpace) ReadU64(va Addr) (uint64, error) {
	if off := int(va & PageMask); off <= PageSize-8 {
		d, err := as.translate(va, AccessRead)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(d[off:]), nil
	}
	var b [8]byte
	if err := as.ReadBytes(va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word.
func (as *AddressSpace) WriteU64(va Addr, v uint64) error {
	if off := int(va & PageMask); off <= PageSize-8 {
		d, err := as.translate(va, AccessWrite)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(d[off:], v)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.WriteBytes(va, b[:])
}

// MapRegion reserves and maps n pages rw, returning the base address.
// Convenience used by process setup and tests.
func (as *AddressSpace) MapRegion(nPages int, perm Perm) (Addr, error) {
	base := as.Reserve(nPages)
	for i := 0; i < nPages; i++ {
		if err := as.MapPage(base+Addr(i*PageSize), perm); err != nil {
			// Roll back partial mappings.
			for j := 0; j < i; j++ {
				_ = as.Unmap(base + Addr(j*PageSize))
			}
			return 0, err
		}
	}
	return base, nil
}
