// Package seg models x86-style segmentation: a descriptor carrying
// base, limit and permissions, and the check every access from
// Cosy-executed user code must pass.
//
// The paper's Cosy framework uses segmentation as its hardware memory
// protection: "put the entire user function in an isolated segment but
// at the same privilege level ... any reference outside the isolated
// segment generates a protection fault" (§2.3). The simulated machine
// reproduces that check bit for bit: offset+size must lie inside
// [0, Limit) and the access type must be permitted.
package seg

import (
	"fmt"

	"repro/internal/mem"
)

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
	Name   string
	Off    uint64
	Size   int
	Access mem.Access
	Reason string
}

func (f *ProtFault) Error() string {
	return fmt.Sprintf("seg: #GP in segment %q: %s %d bytes at offset %#x: %s",
		f.Name, f.Access, f.Size, f.Off, f.Reason)
}

// Check validates an access of size bytes at offset off in the
// segment and, on success, returns the linear address Base+off. Any
// violation returns a *ProtFault.
func (d *Descriptor) Check(off uint64, size int, access mem.Access) (mem.Addr, error) {
	var reason string
	switch {
	case size < 0:
		reason = "negative size"
	case off >= d.Limit || uint64(size) > d.Limit-off:
		reason = "limit exceeded"
	case access == mem.AccessRead && d.Perm&mem.PermR == 0:
		reason = "segment not readable"
	case access == mem.AccessWrite && d.Perm&mem.PermW == 0:
		reason = "segment not writable"
	default:
		return d.Base + mem.Addr(off), nil
	}
	return 0, &ProtFault{Name: d.Name, Off: off, Size: size, Access: access, Reason: reason}
}
