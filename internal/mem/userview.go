package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrViewBounds is returned when an access falls outside a UserView's
// window.
var ErrViewBounds = errors.New("mem: access outside view bounds")

// UserView is a checked window over a contiguous range of a virtual
// address space — the one API the syscall boundary uses to touch user
// (or shared) pages. Every access is bounds-checked against the
// window and then resolved through the owning space's translate path,
// so permission checks, fault delivery, TLB accounting, and cycle
// charges are identical to the ReadBytes/WriteBytes they replace.
//
// The same type serves both data planes. On the copy path, CopyIn and
// CopyOut move bytes between the viewed pages and a kernel buffer
// (the host memmove; the simulated per-byte copy charge stays with
// the caller, exactly as before). On the zero-copy path, Bytes and
// Pages expose the backing frame storage directly — when the frames
// are mapped Shared into a second space, both sides read and write
// the same bytes and no copy ever happens.
//
// A UserView is a value: cheap to construct, cheap to pass, holding
// no resources. The zero value is invalid and fails every access.
type UserView struct {
	as   *AddressSpace
	base Addr
	n    int
}

// View opens a window of n bytes at base. The window is only
// bounds-checked here; translation (and faulting) happens per access,
// like the hardware it models.
func (as *AddressSpace) View(base Addr, n int) UserView {
	if n < 0 {
		n = 0
	}
	return UserView{as: as, base: base, n: n}
}

// Len reports the window size in bytes.
func (v UserView) Len() int { return v.n }

// Base reports the window's base virtual address.
func (v UserView) Base() Addr { return v.base }

// Valid reports whether the view is backed by an address space (the
// zero UserView is not).
func (v UserView) Valid() bool { return v.as != nil }

// check bounds [off, off+n) against the window. It inlines: the error
// it returns is formatted only when read.
func (v UserView) check(off, n int) error {
	// v.n >= 0, so a negative off or n fails as a huge unsigned one.
	if v.as == nil || uint(off) > uint(v.n) || uint(n) > uint(v.n-off) {
		return boundsError{off: off, n: n, len: v.n, zero: v.as == nil}
	}
	return nil
}

// boundsError is an access check refused: [off, off+n) of a len-byte
// window, or any access to the zero view. It wraps ErrViewBounds.
type boundsError struct {
	off, n, len int
	zero        bool
}

func (e boundsError) Error() string {
	if e.zero {
		return ErrViewBounds.Error() + ": zero view"
	}
	return fmt.Sprintf("%v: [%d,+%d) of %d-byte view", ErrViewBounds, e.off, e.n, e.len)
}

func (e boundsError) Unwrap() error { return ErrViewBounds }

// Sub narrows the view to [off, off+n).
func (v UserView) Sub(off, n int) (UserView, error) {
	if err := v.check(off, n); err != nil {
		return UserView{}, err
	}
	return UserView{as: v.as, base: v.base + Addr(off), n: n}, nil
}

// CopyIn copies len(p) bytes at off out of the viewed memory into p
// (the boundary's copy-in direction: user pages to a kernel buffer).
func (v UserView) CopyIn(off int, p []byte) error {
	if err := v.check(off, len(p)); err != nil {
		return err
	}
	return v.as.ReadBytes(v.base+Addr(off), p)
}

// CopyOut copies p into the viewed memory at off (kernel buffer to
// user pages).
func (v UserView) CopyOut(off int, p []byte) error {
	if err := v.check(off, len(p)); err != nil {
		return err
	}
	return v.as.WriteBytes(v.base+Addr(off), p)
}

// Bytes returns the backing storage of [off, off+n) when the range
// sits inside one page: a zero-copy window straight into the frame.
// The translation (permission check, TLB accounting, fault delivery)
// still runs once, with the given access intent. Ranges that straddle
// a page boundary return ErrViewBounds — use Pages for those.
func (v UserView) Bytes(off, n int, access Access) ([]byte, error) {
	if err := v.check(off, n); err != nil {
		return nil, err
	}
	va := v.base + Addr(off)
	po := int(va & PageMask)
	if po+n > PageSize {
		return nil, fmt.Errorf("%w: Bytes range [%d,+%d) straddles a page", ErrViewBounds, off, n)
	}
	d, err := v.as.translate(va, access)
	if err != nil {
		return nil, err
	}
	return d[po : po+n], nil
}

// Pages walks [off, off+n) page run by page run, handing fn the
// backing bytes of each run: the zero-copy bulk path. Each page is
// translated exactly once with the given access intent — the same
// translations, in the same order, as a CopyIn/CopyOut of the range —
// but no bytes move unless fn moves them. When the viewed frames are
// mapped Shared into another space, fn's writes are immediately
// visible there.
func (v UserView) Pages(off, n int, access Access, fn func(p []byte) error) error {
	if err := v.check(off, n); err != nil {
		return err
	}
	va := v.base + Addr(off)
	for n > 0 {
		d, err := v.as.translate(va, access)
		if err != nil {
			return err
		}
		po := int(va & PageMask)
		run := PageSize - po
		if run > n {
			run = n
		}
		if err := fn(d[po : po+run]); err != nil {
			return err
		}
		va += Addr(run)
		n -= run
	}
	return nil
}

// U32 reads a little-endian 32-bit word at off. The word must not
// straddle a page (ring-header fields are 4-aligned, so they never
// do).
func (v UserView) U32(off int) (uint32, error) {
	b, err := v.Bytes(off, 4, AccessRead)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// PutU32 writes a little-endian 32-bit word at off.
func (v UserView) PutU32(off int, x uint32) error {
	b, err := v.Bytes(off, 4, AccessWrite)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b, x)
	return nil
}

// U64 reads a little-endian 64-bit word at off; page-straddling words
// take the byte path, with the same translations either way.
func (v UserView) U64(off int) (uint64, error) {
	if err := v.check(off, 8); err != nil {
		return 0, err
	}
	return v.as.ReadU64(v.base + Addr(off))
}

// PutU64 writes a little-endian 64-bit word at off.
func (v UserView) PutU64(off int, x uint64) error {
	if err := v.check(off, 8); err != nil {
		return err
	}
	return v.as.WriteU64(v.base+Addr(off), x)
}
