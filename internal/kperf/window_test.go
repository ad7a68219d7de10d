package kperf

import (
	"math/rand"
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
