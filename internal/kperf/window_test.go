package kperf

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
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
