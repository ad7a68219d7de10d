// Package seg models x86-style segmentation: a descriptor table whose
// entries carry base, limit, and permissions, and a checker that every
// access from Cosy-executed user code must pass.
//
// The paper's Cosy framework uses segmentation as its hardware memory
// protection: "put the entire user function in an isolated segment but
// at the same privilege level ... any reference outside the isolated
// segment generates a protection fault" (§2.3). The simulated machine
// reproduces that check bit for bit: offset+size must lie inside
// [0, Limit) and the access type must be permitted.
package seg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mem"
)

// Selector names one descriptor in a Table. Selector 0 is reserved as
// the null selector; loading it faults, as on real hardware.
type Selector uint16

// NullSelector is never valid.
const NullSelector Selector = 0

// Descriptor describes one segment.
type Descriptor struct {
	Name  string
	Base  mem.Addr
	Limit uint64 // segment size in bytes; valid offsets are [0, Limit)
	Perm  mem.Perm
}

// ProtFault is a general protection fault: an access violated a
// segment's bounds or permissions.
type ProtFault struct {
	Sel    Selector
	Name   string
	Off    uint64
	Size   int
	Access mem.Access
	Reason string
}

func (f *ProtFault) Error() string {
	return fmt.Sprintf("seg: #GP in segment %q (sel %d): %s %d bytes at offset %#x: %s",
		f.Name, f.Sel, f.Access, f.Size, f.Off, f.Reason)
}

// Table is a descriptor table (a GDT/LDT analog). Selectors are
// handed out in order, each once, and never the null selector.
type Table struct {
	descs []Descriptor // index 0 is the null descriptor
	// Checks counts segment limit checks performed, for the mode-A
	// versus mode-B ablation.
	Checks uint64
}

// NewTable creates a table containing only the null descriptor.
func NewTable() *Table {
	return &Table{descs: make([]Descriptor, 1)}
}

// ErrTableFull reports an Alloc on a table whose every selector is
// in use.
var ErrTableFull = errors.New("seg: descriptor table full")

// Full reports whether every selector is in use.
func (t *Table) Full() bool { return len(t.descs) > math.MaxUint16 }

// Alloc installs a descriptor and returns its selector, or fails with
// ErrTableFull.
func (t *Table) Alloc(d Descriptor) (Selector, error) {
	if t.Full() {
		return NullSelector, ErrTableFull
	}
	t.descs = append(t.descs, d)
	return Selector(len(t.descs) - 1), nil
}

// Get returns the descriptor for sel.
func (t *Table) Get(sel Selector) (Descriptor, error) {
	if sel == NullSelector || int(sel) >= len(t.descs) {
		return Descriptor{}, &ProtFault{Sel: sel, Reason: "null or out-of-range selector"}
	}
	return t.descs[sel], nil
}

// SetLimit resizes an existing segment (used when a Cosy function's
// data segment grows).
func (t *Table) SetLimit(sel Selector, limit uint64) error {
	if sel == NullSelector || int(sel) >= len(t.descs) {
		return &ProtFault{Sel: sel, Reason: "null or out-of-range selector"}
	}
	t.descs[sel].Limit = limit
	return nil
}

// Check validates an access of size bytes at offset off in segment
// sel and, on success, returns the linear address Base+off. Any
// violation returns a *ProtFault.
func (t *Table) Check(sel Selector, off uint64, size int, access mem.Access) (mem.Addr, error) {
	t.Checks++
	if sel == NullSelector || int(sel) >= len(t.descs) {
		return 0, &ProtFault{Sel: sel, Off: off, Size: size, Access: access,
			Reason: "null or out-of-range selector"}
	}
	d := t.descs[sel]
	if size < 0 {
		return 0, &ProtFault{Sel: sel, Name: d.Name, Off: off, Size: size, Access: access,
			Reason: "negative size"}
	}
	if off >= d.Limit || uint64(size) > d.Limit-off {
		return 0, &ProtFault{Sel: sel, Name: d.Name, Off: off, Size: size, Access: access,
			Reason: "limit exceeded"}
	}
	switch access {
	case mem.AccessRead:
		if d.Perm&mem.PermR == 0 {
			return 0, &ProtFault{Sel: sel, Name: d.Name, Off: off, Size: size, Access: access,
				Reason: "segment not readable"}
		}
	case mem.AccessWrite:
		if d.Perm&mem.PermW == 0 {
			return 0, &ProtFault{Sel: sel, Name: d.Name, Off: off, Size: size, Access: access,
				Reason: "segment not writable"}
		}
	}
	return d.Base + mem.Addr(off), nil
}
