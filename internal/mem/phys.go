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
//
// Frames are backed on demand: a frame gets its host page at its first
// access, so the host pays for the simulated memory a run touches, not
// for all it maps. Nothing simulated sees the difference: an untouched
// frame reads as zeros, and frames count against the machine's memory
// from the moment they are allocated.
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

// Phys is the physical frame pool. Frames are allocated lazily: Alloc
// reserves a frame number, and the frame gets its host page at its
// first access through Data, so a mapped page nothing touches costs
// the host no allocation and no zeroing. The pool is bounded to model
// the paper's 884MB test machine (the bound is configurable because
// Kefence "may exhaust virtual or physical memory" and we test exactly
// that), and the bound and InUse count allocated frames, backed or
// not.
//
// Frame numbers are dense and small, so the pool is a slice indexed
// directly by frame number: no map hash on the first touch of a page.
// Freed frames' backing pages are recycled through a pool and
// re-zeroed when a frame takes one at its first touch, preserving the
// zeroed-frame guarantee without a fresh allocation per frame.
type Phys struct {
	maxFrames int
	frames    []frame // indexed by Frame
	free      []Frame
	pool      []*[PageSize]byte // recycled backing pages
	next      Frame
	inUse     int
	backed    int
}

// frame is one slot of the pool. A live frame is allocated; its page
// stays nil until the frame's first access.
type frame struct {
	page *[PageSize]byte
	live bool
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

// Alloc grabs a frame. It reads as zeros; its host page comes at its
// first access.
func (p *Phys) Alloc() (Frame, error) {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		p.frames[f].live = true
		p.inUse++
		return f, nil
	}
	if p.inUse >= p.maxFrames {
		return 0, ErrOutOfMemory
	}
	f := p.next
	p.next++
	p.frames = append(p.frames, frame{live: true})
	p.inUse++
	return f, nil
}

// Free returns a frame to the pool, and its page, if it had one, to
// the page pool. Freeing an unallocated frame panics: that is a
// kernel bug, not a recoverable error.
func (p *Phys) Free(f Frame) {
	p.checkLive(f, "double free of")
	if d := p.frames[f].page; d != nil {
		p.pool = append(p.pool, d)
		p.backed--
	}
	p.frames[f] = frame{}
	p.free = append(p.free, f)
	p.inUse--
}

// Data returns the backing bytes of a frame, giving the frame a zeroed
// page at its first access.
func (p *Phys) Data(f Frame) []byte { return p.page(f)[:] }

// page returns frame f's host page, backing the frame at its first
// access: with a recycled page cleared, or a fresh one.
func (p *Phys) page(f Frame) *[PageSize]byte {
	p.checkLive(f, "access to unallocated")
	if d := p.frames[f].page; d != nil {
		return d
	}
	var d *[PageSize]byte
	if n := len(p.pool); n > 0 {
		d = p.pool[n-1]
		p.pool = p.pool[:n-1]
		clear(d[:])
	} else {
		d = new([PageSize]byte)
	}
	p.frames[f].page = d
	p.backed++
	return d
}

// checkLive panics unless f is an allocated frame. It backs nothing.
func (p *Phys) checkLive(f Frame, what string) {
	if int(f) >= len(p.frames) || !p.frames[f].live {
		panic(fmt.Sprintf("mem: %s frame %d", what, f))
	}
}

// InUse reports the number of allocated frames.
func (p *Phys) InUse() int { return p.inUse }

// Backed reports the number of allocated frames that hold a host page:
// those touched since their allocation.
func (p *Phys) Backed() int { return p.backed }
