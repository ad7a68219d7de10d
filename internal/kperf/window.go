package kperf

// Window is a bounded ring that keeps the newest values written to it:
// kperf's trace shards, ktrace's span and request records and
// kflight's epochs all live in one. Its storage is allocated once, at
// NewWindow; once the window is full each new value overwrites the
// oldest, and the loss is counted, so recording never blocks and never
// reallocates. Like the rest of kperf it relies on the machine's
// strict goroutine hand-off and takes no lock.
//
// A window is allocated whole when its owner is built, so what T holds
// decides what building the owner costs. kperf's shard records and
// ktrace's spans and request records are pointer-free (ktrace interns
// its op names): the collector never scans those windows, and the
// runtime need not zero the pages it takes fresh from the OS for them.
// kflight's epoch slots keep a sub-slice of its row log, so its window
// is zeroed and scanned; at its default 4,096 slots of 64 bytes it is
// small.
type Window[T any] struct {
	buf     []T
	next    int   // slot Next hands out
	n       int   // retained values, at most len(buf)
	written int64 // values ever written, overwritten ones included
}

// NewWindow allocates a window of capacity values. The capacity must
// be at least 1.
func NewWindow[T any](capacity int) Window[T] {
	if capacity < 1 {
		panic("kperf: window capacity must be at least 1")
	}
	return Window[T]{buf: make([]T, capacity)}
}

// Next returns the slot for a new newest value, which the caller
// writes in place. Once the window is full it is the oldest value's
// slot, still holding that value, which counts as overwritten; an
// owner can reuse what the old value holds (kflight keeps its row
// slices).
func (w *Window[T]) Next() *T {
	p := &w.buf[w.next]
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
	}
	if w.n < len(w.buf) {
		w.n++
	}
	w.written++
	return p
}

// Len reports the values retained.
func (w *Window[T]) Len() int { return w.n }

// Written reports the values ever written, overwritten ones included.
func (w *Window[T]) Written() int64 { return w.written }

// Overwritten reports the values lost to newer ones: Written - Len.
func (w *Window[T]) Overwritten() int64 { return w.written - int64(w.n) }

// At returns the i-th retained value, oldest first (0 <= i < Len).
func (w *Window[T]) At(i int) T {
	if i < 0 || i >= w.n {
		panic("kperf: window index out of range")
	}
	j := w.next - w.n + i
	if j < 0 {
		j += len(w.buf)
	}
	return w.buf[j]
}

// Tail copies the newest k retained values, oldest first; a k past
// Len copies them all, and k <= 0 returns nil.
func (w *Window[T]) Tail(k int) []T {
	k = min(k, w.n)
	if k <= 0 {
		return nil
	}
	out := make([]T, 0, k)
	start := w.next - k
	if start < 0 {
		out = append(out, w.buf[len(w.buf)+start:]...)
		start = 0
	}
	return append(out, w.buf[start:w.next]...)
}
