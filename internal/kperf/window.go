package kperf

import (
	"reflect"
	"runtime"
	"sync"
)

// Window is a bounded ring that keeps the newest values written to it:
// kperf's trace shards, ktrace's span and request records and
// kflight's epochs all live in one. Its storage is taken whole when
// the window is made, at NewWindow or LeaseWindow, and never grows;
// once the window is full each new value overwrites the oldest, and
// the loss is counted, so recording never blocks and never
// reallocates. Like the rest of kperf it relies on the machine's
// strict goroutine hand-off and takes no lock.
//
// A window is made when its owner is built, so what T holds decides
// what building the owner costs. kperf's shard records and ktrace's
// spans and request records are pointer-free (ktrace interns its op
// names): the collector never scans those windows, and they lease
// their storage from a spare table, so a machine booted after another
// was collected reuses its buffers instead of allocating them again.
// kflight's epoch slots keep a sub-slice of its row log, so its window
// is allocated fresh, zeroed and scanned; at its default 4,096 slots of
// 64 bytes it is small.
//
// A window reads only values written into it: At and Tail reach the
// slots Next has handed out, so storage that held other values before
// the window was made (a leased buffer) cannot show.
type Window[T any] struct {
	buf     []T
	next    int   // slot Next hands out
	n       int   // retained values, at most len(buf)
	written int64 // values ever written, overwritten ones included

	// lease is the window's claim on the spare slot buf came from, nil
	// when buf is the window's own. It lives in the window so whatever
	// holds the window holds the claim.
	lease *lease
}

// NewWindow allocates a window of capacity values. The capacity must
// be at least 1.
func NewWindow[T any](capacity int) Window[T] {
	if capacity < 1 {
		panic("kperf: window capacity must be at least 1")
	}
	return Window[T]{buf: make([]T, capacity)}
}

// WindowOver returns an empty window that keeps its values in buf,
// whose capacity is len(buf). The window never reads a value of buf it
// has not written, so buf may hold anything: LeaseWindow hands out
// recycled storage this way, and tests use it to check that nothing
// stale shows.
func WindowOver[T any](buf []T) Window[T] {
	if len(buf) < 1 {
		panic("kperf: window capacity must be at least 1")
	}
	return Window[T]{buf: buf}
}

// Next returns the slot for a new newest value, which the caller
// writes in place. Once the window is full it is the oldest value's
// slot, still holding that value, which counts as overwritten; an
// owner can reuse what the old value holds (kflight keeps its row
// slices). Before the window is full the slot holds whatever its
// storage held: zero for NewWindow, anything for a leased window, whose
// owner writes through Put.
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

// Put writes v whole as the newest value. A leased window is written
// through Put: a slot pointer from Next does not keep the window's
// owner alive, and once the owner is collected its storage can serve
// another window, so Put holds the window until v is stored.
func (w *Window[T]) Put(v T) {
	*w.Next() = v
	runtime.KeepAlive(w)
}

// Len reports the values retained.
func (w *Window[T]) Len() int { return w.n }

// Written reports the values ever written, overwritten ones included.
func (w *Window[T]) Written() int64 { return w.written }

// Overwritten reports the values lost to newer ones: Written - Len.
func (w *Window[T]) Overwritten() int64 { return w.written - int64(w.n) }

// At returns the i-th retained value, oldest first (0 <= i < Len).
// Like Tail it holds the window until the value is read, for the same
// reason as Put.
func (w *Window[T]) At(i int) T {
	if i < 0 || i >= w.n {
		panic("kperf: window index out of range")
	}
	j := w.next - w.n + i
	if j < 0 {
		j += len(w.buf)
	}
	v := w.buf[j]
	runtime.KeepAlive(w)
	return v
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
	out = append(out, w.buf[start:w.next]...)
	runtime.KeepAlive(w)
	return out
}

// spareBufs bounds the buffers the spare table keeps per record type.
// perfbench collects the previous round's machine and boots the next
// one straight away, so that machine's leases usually end only after
// the next boot: two spares per type are the fewest that let every
// boot reuse storage, and four leave room for a second process's shard.
// At the default bounds the table keeps at most 4 x (3.5 MiB of ktrace
// spans + 2.5 MiB of ktrace requests + 2 MiB of kperf shard records),
// 32 MiB, however many machines are booted and dropped.
const spareBufs = 4

// spareSlot is one buffer the spare table keeps, a []T, and whether a
// window holds it.
type spareSlot struct {
	buf    any
	leased bool
}

// spares is the spare table: spareBufs slots for each record type a
// window has leased. It is package state because it outlives every
// machine, and it is not a sync.Pool because a pool serves neither
// need: a pool has no bound, and a pool must be handed the buffer back
// by whatever notices the owner is gone. That can only be a finalizer,
// and a finalizer that holds the buffer keeps every dead machine's
// windows alive until the finalizer goroutine gets the CPU: in a loop
// of observed boots at GOMAXPROCS=1 the heap then grows by a machine's
// windows per boot (core's TestObservedBootLoopHeapBounded). Here the
// table holds the buffers, and a lease holds only its slot's name.
var spares struct {
	sync.Mutex
	slots map[reflect.Type]*[spareBufs]spareSlot
}

// lease names one spare slot: its record type and index. It refers to
// no buffer, so a collected window's storage is never kept alive by a
// lease waiting for its finalizer; the table already holds it.
type lease struct {
	typ  reflect.Type
	slot int
}

// release marks the lease's slot free. It is the lease's finalizer: it
// runs once nothing holds the window the lease lives in.
func (l *lease) release() {
	spares.Lock()
	spares.slots[l.typ][l.slot].leased = false
	spares.Unlock()
}

// LeaseWindow makes a window of capacity values, like NewWindow, whose
// storage is a spare buffer when T's spare table has one free: a buffer
// a collected window held, not cleared. T must hold no pointer, and the
// window's owner writes each value whole, through Put. The buffer is
// the window's until nothing holds the window any more, when a
// finalizer hands it back to the table. With all of T's slots leased
// the window takes a fresh buffer the table does not track.
func LeaseWindow[T any](capacity int) Window[T] {
	if capacity < 1 {
		panic("kperf: window capacity must be at least 1")
	}
	typ := reflect.TypeFor[T]()
	spares.Lock()
	defer spares.Unlock()
	if spares.slots == nil {
		spares.slots = make(map[reflect.Type]*[spareBufs]spareSlot)
	}
	slots := spares.slots[typ]
	if slots == nil {
		slots = new([spareBufs]spareSlot)
		spares.slots[typ] = slots
	}
	// A free slot whose buffer fits, else the first free slot, which
	// takes a new buffer of this capacity.
	pick := -1
	for i := range slots {
		if slots[i].leased {
			continue
		}
		if b, _ := slots[i].buf.([]T); len(b) == capacity {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	if pick < 0 {
		return NewWindow[T](capacity)
	}
	s := &slots[pick]
	buf, _ := s.buf.([]T)
	if len(buf) != capacity {
		buf = make([]T, capacity)
		s.buf = buf
	}
	s.leased = true
	l := &lease{typ: typ, slot: pick}
	runtime.SetFinalizer(l, (*lease).release)
	w := WindowOver(buf)
	w.lease = l
	return w
}

// Leased reports how many windows hold spare buffers now. A collected
// window's lease ends when the finalizer goroutine next runs, after
// the collection that found it; tests wait on this before they boot
// into recycled storage.
func Leased() int {
	spares.Lock()
	defer spares.Unlock()
	n := 0
	for _, slots := range spares.slots {
		for _, s := range slots {
			if s.leased {
				n++
			}
		}
	}
	return n
}
