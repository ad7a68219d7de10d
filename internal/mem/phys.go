// Package mem implements the simulated machine's memory system:
// physical frames, per-address-space software page tables with
// permission bits and guard pages, a small TLB model, and a fault
// path with pluggable handlers.
//
// This is the substrate Kefence (guard-page overflow detection) and
// the rings carrying Cosy data segments are built on. Accesses go through
// AddressSpace.ReadBytes/WriteBytes, which walk the page table,
// consult the TLB, charge the cost model, and deliver faults to the
// installed handler exactly the way the Linux page-fault path the
// paper modified does.
package mem

import (
	"errors"
	"fmt"
)

// Page geometry. 4 KiB pages, like the i386 target the paper used.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// Addr is a virtual or physical address on the simulated machine.
type Addr uint64

// PageDown rounds a down to its page base.
func PageDown(a Addr) Addr { return a &^ Addr(PageMask) }

// PageUp rounds a up to the next page boundary.
func PageUp(a Addr) Addr { return (a + PageMask) &^ Addr(PageMask) }

// PagesFor reports how many pages are needed to hold n bytes.
func PagesFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize
}

// Frame identifies one physical page frame.
type Frame uint32

// ErrOutOfMemory is returned when the physical frame pool is
// exhausted.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// Phys is the physical frame pool. Frames are allocated lazily; the
// pool is bounded to model the paper's 884MB test machine (the bound
// is configurable because Kefence "may exhaust virtual or physical
// memory" and we test exactly that).
//
// Frame numbers are dense and small, so the pool is a slice indexed
// directly by frame number: Data sits on the bulk-copy fast path
// (once per page per copy) and must not pay a map hash. Freed frames'
// backing pages are recycled through a pool and re-zeroed on reuse,
// preserving the zeroed-frame guarantee without a fresh allocation
// per Alloc.
type Phys struct {
	maxFrames int
	frames    [][]byte // indexed by Frame; nil = not allocated
	free      []Frame
	pool      [][]byte // recycled backing pages
	next      Frame
	inUse     int
}

// NewPhys creates a frame pool holding at most maxBytes of memory.
// maxBytes <= 0 means effectively unbounded.
func NewPhys(maxBytes int64) *Phys {
	max := int(maxBytes / PageSize)
	if maxBytes <= 0 {
		max = 1 << 30 / PageSize * 1024 // effectively unbounded
	}
	return &Phys{maxFrames: max}
}

// Alloc grabs a zeroed frame.
func (p *Phys) Alloc() (Frame, error) {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		p.frames[f] = p.newPage()
		p.inUse++
		return f, nil
	}
	if p.inUse >= p.maxFrames {
		return 0, ErrOutOfMemory
	}
	f := p.next
	p.next++
	p.frames = append(p.frames, p.newPage())
	p.inUse++
	return f, nil
}

// newPage returns a zeroed page, recycling freed backing store.
func (p *Phys) newPage() []byte {
	if n := len(p.pool); n > 0 {
		d := p.pool[n-1]
		p.pool = p.pool[:n-1]
		clear(d)
		return d
	}
	return make([]byte, PageSize)
}

// Free returns a frame to the pool. Freeing an unallocated frame
// panics: that is a kernel bug, not a recoverable error.
func (p *Phys) Free(f Frame) {
	if int(f) >= len(p.frames) || p.frames[f] == nil {
		panic(fmt.Sprintf("mem: double free of frame %d", f))
	}
	p.pool = append(p.pool, p.frames[f])
	p.frames[f] = nil
	p.free = append(p.free, f)
	p.inUse--
}

// Data returns the backing bytes of a frame.
func (p *Phys) Data(f Frame) []byte {
	if int(f) >= len(p.frames) || p.frames[f] == nil {
		panic(fmt.Sprintf("mem: access to unallocated frame %d", f))
	}
	return p.frames[f]
}

// InUse reports the number of allocated frames.
func (p *Phys) InUse() int { return p.inUse }
