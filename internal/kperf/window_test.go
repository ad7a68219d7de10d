package kperf

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestWindowMatchesSliceModel checks a Window against a naive model, a
// slice that appends every value and trims to the newest capacity-many,
// after every write of runs with random capacities 1-9 (so at 0 writes,
// at exact multiples of the capacity and in between).
func TestWindowMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 500; run++ {
		capacity := 1 + rng.Intn(9)
		writes := rng.Intn(5*capacity + 1)
		w := NewWindow[int](capacity)
		var model []int
		check := func() {
			t.Helper()
			n := len(model)
			if w.Len() != n {
				t.Fatalf("cap %d: len %d, model len %d", capacity, w.Len(), n)
			}
			for i, v := range model {
				if got := w.At(i); got != v {
					t.Fatalf("cap %d: At(%d) = %d, want %d", capacity, i, got, v)
				}
			}
			for k := -1; k <= n+2; k++ {
				want := model[n-min(max(k, 0), n):]
				if got := w.Tail(k); !slices.Equal(got, want) || (k <= 0 && got != nil) {
					t.Fatalf("cap %d: Tail(%d) = %v, want %v", capacity, k, got, want)
				}
			}
		}
		check()
		for v := 1; v <= writes; v++ {
			full := len(model) == capacity
			p := w.Next()
			if full && *p != model[0] {
				t.Fatalf("cap %d: Next on a full window holds %d, want the oldest %d", capacity, *p, model[0])
			}
			*p = v
			if model = append(model, v); len(model) > capacity {
				model = model[1:]
			}
			if w.Written() != int64(v) || w.Overwritten() != int64(v-len(model)) {
				t.Fatalf("cap %d after %d writes: written %d overwritten %d", capacity, v, w.Written(), w.Overwritten())
			}
			check()
		}
	}
}

// pointerField names the first field under typ that holds a pointer
// (a string, slice, map, pointer, interface, func or chan), or "".
func pointerField(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[i]")
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer,
		reflect.UnsafePointer, reflect.Interface, reflect.Func, reflect.Chan:
		return path + " (" + typ.Kind().String() + ")"
	}
	return ""
}

// TestShardRecordHoldsNoPointers checks what a shard's window stores,
// read off Shard's own field: each spawned process allocates
// DefaultShardRecords of them, and a pointer anywhere in a record would
// make the runtime zero and the collector scan them all.
func TestShardRecordHoldsNoPointers(t *testing.T) {
	f, ok := reflect.TypeOf(Shard{}).FieldByName("recs")
	if !ok {
		t.Fatal("Shard has no field recs")
	}
	at, _ := reflect.PointerTo(f.Type).MethodByName("At")
	rec := at.Type.Out(0)
	if p := pointerField(rec, rec.Name()); p != "" {
		t.Errorf("Shard.recs keeps %s: %s holds a pointer", rec, p)
	}
	if rec.Size() != 32 {
		t.Errorf("Shard.recs keeps %d-byte %s, want 32", rec.Size(), rec)
	}
}

// TestShardReadsFreshOverRecycledStorage drives two shards the same
// way, one over fresh storage and one over storage every byte of which
// held a record before, as a leased buffer does, and requires the same
// Tail, Records, Drops and Retained after every write: before the
// shard fills, as it fills and once it has wrapped twice.
func TestShardReadsFreshOverRecycledStorage(t *testing.T) {
	const capacity = 8
	stale := make([]record, capacity)
	for i := range stale {
		stale[i] = record{kind: EvFault, arg: 0xdead, start: 1 << 40, end: 1<<40 + sim.Cycles(i), req: 0xbeef}
	}
	fresh := &Shard{pid: 3, name: "p", recs: NewWindow[record](capacity)}
	reused := &Shard{pid: 3, name: "p", recs: WindowOver(stale)}
	for w := 0; w <= 3*capacity+3; w++ {
		if w > 0 {
			for _, s := range []*Shard{fresh, reused} {
				s.req = uint64(w / 3)
				s.Span(EvSyscallSpan, uint32(w), sim.Cycles(10*w), sim.Cycles(10*w+5))
			}
		}
		if reused.Records() != fresh.Records() || reused.Drops() != fresh.Drops() || reused.Retained() != fresh.Retained() {
			t.Fatalf("after %d writes: records %d drops %d retained %d over recycled storage, %d %d %d over fresh",
				w, reused.Records(), reused.Drops(), reused.Retained(), fresh.Records(), fresh.Drops(), fresh.Retained())
		}
		for k := -1; k <= capacity+1; k++ {
			if got, want := reused.Tail(k), fresh.Tail(k); !slices.Equal(got, want) {
				t.Fatalf("after %d writes: Tail(%d) = %v over recycled storage, %v over fresh", w, k, got, want)
			}
		}
	}
}

// leaseProbe is a record type only TestLeaseWindowRecyclesStorage
// leases, so it owns that type's spare slots.
type leaseProbe struct{ a, b uint64 }

// leaseSlots reports which of leaseProbe's spare slots are leased and
// the first element of each slot's buffer, nil for none.
func leaseSlots() (leased [spareBufs]bool, bufs [spareBufs]*leaseProbe) {
	spares.Lock()
	defer spares.Unlock()
	slots := spares.slots[reflect.TypeFor[leaseProbe]()]
	if slots == nil {
		return leased, bufs
	}
	for i, s := range slots {
		leased[i] = s.leased
		if b, _ := s.buf.([]leaseProbe); len(b) > 0 {
			bufs[i] = &b[0]
		}
	}
	return leased, bufs
}

// awaitProbeSlotsFree collects until no window holds one of
// leaseProbe's spare slots.
func awaitProbeSlotsFree(t *testing.T) {
	t.Helper()
	for i := 0; ; i++ {
		leased, _ := leaseSlots()
		if leased == [spareBufs]bool{} {
			return
		}
		if i == 1000 {
			t.Fatalf("dropped windows still hold leases after %d collections: %v", i, leased)
		}
		runtime.GC()
		runtime.Gosched()
	}
}

// TestLeaseWindowRecyclesStorage checks the spare table: spareBufs
// windows of one type lease its slots and one more takes a fresh
// buffer the table does not track; once the leased windows are
// dropped and collected their slots are free again, and new windows of
// the same capacity take the same buffers, reading empty.
func TestLeaseWindowRecyclesStorage(t *testing.T) {
	const capacity = 16
	awaitProbeSlotsFree(t)
	ws := make([]*Window[leaseProbe], spareBufs)
	for i := range ws {
		w := LeaseWindow[leaseProbe](capacity)
		ws[i] = &w
		for j := 0; j < capacity+i; j++ {
			w.Put(leaseProbe{uint64(i), uint64(j)})
		}
	}
	extra := LeaseWindow[leaseProbe](capacity)
	if extra.lease != nil {
		t.Fatalf("window %d of a %d-slot table holds a lease", spareBufs+1, spareBufs)
	}
	leased, kept := leaseSlots()
	for i := range leased {
		if !leased[i] || kept[i] != &ws[i].buf[0] {
			t.Fatalf("slot %d: leased %v, buffer %p; window %d's buffer %p", i, leased[i], kept[i], i, &ws[i].buf[0])
		}
	}

	clear(ws)
	awaitProbeSlotsFree(t)
	for i := range ws {
		w := LeaseWindow[leaseProbe](capacity)
		if w.lease == nil || &w.buf[0] != kept[i] {
			t.Fatalf("window %d after the collection did not lease slot %d's buffer", i, i)
		}
		if w.Len() != 0 || w.Written() != 0 || w.Tail(capacity) != nil {
			t.Fatalf("a window over recycled storage reads %d values", w.Len())
		}
		ws[i] = &w
	}
	if odd := LeaseWindow[leaseProbe](capacity + 1); odd.lease != nil {
		t.Fatal("a window leased with every slot held")
	}
	runtime.KeepAlive(ws)
}
