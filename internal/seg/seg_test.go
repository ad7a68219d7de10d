package seg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// alloc installs d in tb; no test but the full-table one fills its
// table.
func alloc(tb *Table, d Descriptor) Selector {
	sel, err := tb.Alloc(d)
	if err != nil {
		panic(err)
	}
	return sel
}

func table() (*Table, Selector) {
	t := NewTable()
	sel := alloc(t, Descriptor{Name: "data", Base: 0x100000, Limit: 4096, Perm: mem.PermRW})
	return t, sel
}

func TestCheckInBounds(t *testing.T) {
	tb, sel := table()
	addr, err := tb.Check(sel, 100, 8, mem.AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	if addr != 0x100000+100 {
		t.Fatalf("addr = %#x", uint64(addr))
	}
}

func TestCheckLimitEdge(t *testing.T) {
	tb, sel := table()
	if _, err := tb.Check(sel, 4088, 8, mem.AccessRead); err != nil {
		t.Fatalf("access ending exactly at limit must pass: %v", err)
	}
	if _, err := tb.Check(sel, 4089, 8, mem.AccessRead); err == nil {
		t.Fatal("access crossing limit must fault")
	}
	if _, err := tb.Check(sel, 4096, 1, mem.AccessRead); err == nil {
		t.Fatal("access at limit must fault")
	}
}

func TestCheckZeroSizeAtLimit(t *testing.T) {
	tb, sel := table()
	// Zero-size "access" at the limit is still out of bounds (off >= limit).
	if _, err := tb.Check(sel, 4096, 0, mem.AccessRead); err == nil {
		t.Fatal("zero-size access at limit must fault")
	}
	if _, err := tb.Check(sel, 0, 0, mem.AccessRead); err != nil {
		t.Fatalf("zero-size access at base: %v", err)
	}
}

func TestNullSelectorFaults(t *testing.T) {
	tb, _ := table()
	if _, err := tb.Check(NullSelector, 0, 1, mem.AccessRead); err == nil {
		t.Fatal("null selector must fault")
	}
	if _, err := tb.Get(NullSelector); err == nil {
		t.Fatal("Get(null) must fail")
	}
}

func TestOutOfRangeSelector(t *testing.T) {
	tb, _ := table()
	if _, err := tb.Check(Selector(99), 0, 1, mem.AccessRead); err == nil {
		t.Fatal("bogus selector must fault")
	}
}

func TestPermissionEnforcement(t *testing.T) {
	tb := NewTable()
	ro := alloc(tb, Descriptor{Name: "code", Base: 0, Limit: 100, Perm: mem.PermR})
	if _, err := tb.Check(ro, 0, 4, mem.AccessRead); err != nil {
		t.Fatalf("read of r-- segment: %v", err)
	}
	_, err := tb.Check(ro, 0, 4, mem.AccessWrite)
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
	tb := NewTable()
	code := alloc(tb, Descriptor{Name: "fn-code", Base: 0x200000, Limit: 512, Perm: mem.PermR})
	data := alloc(tb, Descriptor{Name: "fn-data", Base: 0x300000, Limit: 512, Perm: mem.PermRW})
	if _, err := tb.Check(code, 0, 1, mem.AccessWrite); err == nil {
		t.Fatal("write to code segment must fault")
	}
	if _, err := tb.Check(data, 0, 1, mem.AccessWrite); err != nil {
		t.Fatalf("write to data segment: %v", err)
	}
}

func TestSetLimitGrows(t *testing.T) {
	tb, sel := table()
	if _, err := tb.Check(sel, 5000, 4, mem.AccessRead); err == nil {
		t.Fatal("beyond limit must fault before grow")
	}
	if err := tb.SetLimit(sel, 8192); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Check(sel, 5000, 4, mem.AccessRead); err != nil {
		t.Fatalf("after grow: %v", err)
	}
	if err := tb.SetLimit(Selector(42), 1); err == nil {
		t.Fatal("SetLimit on bogus selector must fail")
	}
}

func TestChecksCounted(t *testing.T) {
	tb, sel := table()
	before := tb.Checks
	for i := 0; i < 10; i++ {
		_, _ = tb.Check(sel, 0, 1, mem.AccessRead)
	}
	if tb.Checks != before+10 {
		t.Fatalf("Checks = %d, want %d", tb.Checks, before+10)
	}
}

func TestCheckProperty(t *testing.T) {
	// Property: Check succeeds iff [off, off+size) ⊆ [0, limit) and
	// permission allows the access, and the returned address is
	// base+off.
	tb := NewTable()
	const limit = 1 << 16
	sel := alloc(tb, Descriptor{Name: "p", Base: 0x4000, Limit: limit, Perm: mem.PermRW})
	if err := quick.Check(func(off uint32, size uint16) bool {
		o, s := uint64(off)%(2*limit), int(size)
		addr, err := tb.Check(sel, o, s, mem.AccessRead)
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

func TestGetReturnsDescriptor(t *testing.T) {
	tb, sel := table()
	d, err := tb.Get(sel)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "data" || d.Limit != 4096 {
		t.Fatalf("descriptor = %+v", d)
	}
}

// TestFullTableAllocatesNothing fills a table: selectors 1 to 65,535
// are each handed out once, in order, and then Alloc fails instead of
// wrapping to the null selector or to a selector in use.
func TestFullTableAllocatesNothing(t *testing.T) {
	tb := NewTable()
	for want := 1; want <= math.MaxUint16; want++ {
		sel, err := tb.Alloc(Descriptor{Name: "fill", Limit: uint64(want), Perm: mem.PermR})
		if err != nil || int(sel) != want {
			t.Fatalf("alloc %d: selector %d, %v", want, sel, err)
		}
	}
	if !tb.Full() {
		t.Fatal("table with every selector in use is not full")
	}
	if sel, err := tb.Alloc(Descriptor{Name: "extra", Limit: 1}); !errors.Is(err, ErrTableFull) {
		t.Fatalf("alloc on a full table: selector %d, %v", sel, err)
	}
	if d, err := tb.Get(1); err != nil || d.Limit != 1 {
		t.Fatalf("selector 1 after the failed alloc: %+v, %v", d, err)
	}
}
