package seg

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func data() *Descriptor {
	return &Descriptor{Name: "data", Base: 0x100000, Limit: 4096, Perm: mem.PermRW}
}

func TestCheckInBounds(t *testing.T) {
	addr, err := data().Check(100, 8, mem.AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	if addr != 0x100000+100 {
		t.Fatalf("addr = %#x", uint64(addr))
	}
}

func TestCheckLimitEdge(t *testing.T) {
	d := data()
	if _, err := d.Check(4088, 8, mem.AccessRead); err != nil {
		t.Fatalf("access ending exactly at limit must pass: %v", err)
	}
	if _, err := d.Check(4089, 8, mem.AccessRead); err == nil {
		t.Fatal("access crossing limit must fault")
	}
	if _, err := d.Check(4096, 1, mem.AccessRead); err == nil {
		t.Fatal("access at limit must fault")
	}
}

func TestCheckZeroSizeAtLimit(t *testing.T) {
	d := data()
	// Zero-size "access" at the limit is still out of bounds (off >= limit).
	if _, err := d.Check(4096, 0, mem.AccessRead); err == nil {
		t.Fatal("zero-size access at limit must fault")
	}
	if _, err := d.Check(0, 0, mem.AccessRead); err != nil {
		t.Fatalf("zero-size access at base: %v", err)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	ro := &Descriptor{Name: "code", Base: 0, Limit: 100, Perm: mem.PermR}
	if _, err := ro.Check(0, 4, mem.AccessRead); err != nil {
		t.Fatalf("read of r-- segment: %v", err)
	}
	_, err := ro.Check(0, 4, mem.AccessWrite)
	var pf *ProtFault
	if !errors.As(err, &pf) {
		t.Fatalf("want *ProtFault, got %v", err)
	}
	if pf.Reason != "segment not writable" {
		t.Fatalf("reason = %q", pf.Reason)
	}
}

func TestSelfModifyingCodeBlocked(t *testing.T) {
	// The paper: "if we use two non-overlapping segments for function
	// code and function data, concerns due to self-modifying code
	// vanish automatically". Code segment is read-only; a write
	// through it faults.
	code := &Descriptor{Name: "fn-code", Base: 0x200000, Limit: 512, Perm: mem.PermR}
	data := &Descriptor{Name: "fn-data", Base: 0x300000, Limit: 512, Perm: mem.PermRW}
	if _, err := code.Check(0, 1, mem.AccessWrite); err == nil {
		t.Fatal("write to code segment must fault")
	}
	if _, err := data.Check(0, 1, mem.AccessWrite); err != nil {
		t.Fatalf("write to data segment: %v", err)
	}
}

func TestCheckProperty(t *testing.T) {
	// Property: Check succeeds iff [off, off+size) ⊆ [0, limit) and
	// permission allows the access, and the returned address is
	// base+off.
	const limit = 1 << 16
	d := &Descriptor{Name: "p", Base: 0x4000, Limit: limit, Perm: mem.PermRW}
	if err := quick.Check(func(off uint32, size uint16) bool {
		o, s := uint64(off)%(2*limit), int(size)
		addr, err := d.Check(o, s, mem.AccessRead)
		inBounds := o < limit && uint64(s) <= limit-o
		if inBounds != (err == nil) {
			return false
		}
		if err == nil && addr != 0x4000+mem.Addr(o) {
			return false
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
