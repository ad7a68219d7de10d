// Package ring implements the lock-free bounded ring buffer at the
// heart of the paper's event-monitoring framework (§3.3):
//
//	"user-space event monitors receive events through a character
//	device interface to a lock-free ring buffer. Because the ring
//	buffer is lock-free, we can instrument code that is invoked
//	during interrupt handlers without fear that the interrupt
//	handler will block."
//
// The implementation is a Vyukov-style bounded MPMC queue using
// per-slot sequence numbers: producers and consumers never block and
// never take a lock, so an "interrupt handler" (any goroutine) can
// always enqueue. When the buffer is full TryPush refuses the event and
// the caller counts the drop, which is the correct non-blocking
// behaviour for a tracing ring.
package ring

import (
	"sync/atomic"
)

// Buffer is a lock-free multi-producer multi-consumer ring of T.
type Buffer[T any] struct {
	mask    uint64
	slots   []slot[T]
	enqueue atomic.Uint64
	dequeue atomic.Uint64
}

type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// New creates a ring with the given capacity, which must be a power
// of two and at least 2.
func New[T any](capacity int) *Buffer[T] {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		panic("ring: capacity must be a power of two >= 2")
	}
	b := &Buffer[T]{
		mask:  uint64(capacity - 1),
		slots: make([]slot[T], capacity),
	}
	for i := range b.slots {
		b.slots[i].seq.Store(uint64(i))
	}
	return b
}

// TryPush enqueues v without blocking. It returns false if the ring
// is full.
func (b *Buffer[T]) TryPush(v T) bool {
	pos := b.enqueue.Load()
	for {
		s := &b.slots[pos&b.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if b.enqueue.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1)
				return true
			}
			pos = b.enqueue.Load()
		case seq < pos:
			// Slot not yet consumed: ring full.
			return false
		default:
			pos = b.enqueue.Load()
		}
	}
}

// TryPop dequeues one value without blocking. ok is false when the
// ring is empty.
func (b *Buffer[T]) TryPop() (v T, ok bool) {
	pos := b.dequeue.Load()
	for {
		s := &b.slots[pos&b.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos+1:
			if b.dequeue.CompareAndSwap(pos, pos+1) {
				v = s.val
				var zero T
				s.val = zero
				s.seq.Store(pos + b.mask + 1)
				return v, true
			}
			pos = b.dequeue.Load()
		case seq <= pos:
			return v, false
		default:
			pos = b.dequeue.Load()
		}
	}
}

// PopBatch dequeues up to len(dst) values, returning how many were
// copied. This is the bulk path libkernevents uses to "copy log
// entries in bulk from the kernel and then read them one by one".
func (b *Buffer[T]) PopBatch(dst []T) int {
	n := 0
	for n < len(dst) {
		v, ok := b.TryPop()
		if !ok {
			break
		}
		dst[n] = v
		n++
	}
	return n
}

// Len approximates the number of buffered values. It is exact when no
// concurrent operations are in flight.
func (b *Buffer[T]) Len() int {
	d := b.enqueue.Load() - b.dequeue.Load()
	if d > uint64(len(b.slots)) {
		return len(b.slots)
	}
	return int(d)
}
