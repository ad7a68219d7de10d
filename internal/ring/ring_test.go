package ring

import (
	"sync"
	"testing"
)

func TestPushPopFIFO(t *testing.T) {
	b := New[int](8)
	for i := 0; i < 5; i++ {
		if !b.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	for i := 0; i < 5; i++ {
		v, ok := b.TryPop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := b.TryPop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestFullDrops(t *testing.T) {
	b := New[int](4)
	for i := 0; i < 4; i++ {
		if !b.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if b.TryPush(99) {
		t.Fatal("push into full ring succeeded")
	}
	// Drain one; pushing works again.
	if _, ok := b.TryPop(); !ok {
		t.Fatal("drain failed")
	}
	if !b.TryPush(100) {
		t.Fatal("push after drain failed")
	}
}

func TestWrapAround(t *testing.T) {
	b := New[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !b.TryPush(round*10 + i) {
				t.Fatalf("round %d push %d failed", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := b.TryPop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d pop = %d,%v", round, v, ok)
			}
		}
	}
}

func TestPopBatch(t *testing.T) {
	b := New[int](16)
	for i := 0; i < 10; i++ {
		b.TryPush(i)
	}
	dst := make([]int, 6)
	if n := b.PopBatch(dst); n != 6 {
		t.Fatalf("batch = %d", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d", i, v)
		}
	}
	if n := b.PopBatch(dst); n != 4 {
		t.Fatalf("second batch = %d", n)
	}
	if n := b.PopBatch(dst); n != 0 {
		t.Fatalf("empty batch = %d", n)
	}
}

func TestBadCapacityPanics(t *testing.T) {
	for _, c := range []int{0, 1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) did not panic", c)
				}
			}()
			New[int](c)
		}()
	}
}

func TestLen(t *testing.T) {
	b := New[int](8)
	if b.Len() != 0 {
		t.Fatal("fresh ring not empty")
	}
	b.TryPush(1)
	b.TryPush(2)
	if b.Len() != 2 {
		t.Fatalf("len = %d", b.Len())
	}
	b.TryPop()
	if b.Len() != 1 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestConcurrentProducersSingleConsumer(t *testing.T) {
	// The paper's shape: many kernel contexts (including interrupt
	// handlers) produce; one user-space logger consumes.
	const producers = 8
	const perProducer = 2000
	b := New[int](1024)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !b.TryPush(id*perProducer + i) {
					// Ring full: a real producer would drop; here we
					// spin so we can verify full delivery.
				}
			}
		}(p)
	}
	seen := make(map[int]bool, producers*perProducer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]int, 128)
		for len(seen) < producers*perProducer {
			n := b.PopBatch(buf)
			for _, v := range buf[:n] {
				if seen[v] {
					t.Errorf("duplicate value %d", v)
					return
				}
				seen[v] = true
			}
		}
	}()
	wg.Wait()
	<-done
	if len(seen) != producers*perProducer {
		t.Fatalf("consumed %d, want %d", len(seen), producers*perProducer)
	}
}

func TestConcurrentMPMC(t *testing.T) {
	const producers, consumers = 4, 4
	const perProducer = 2000
	b := New[int](256)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !b.TryPush(id*perProducer + i) {
				}
			}
		}(p)
	}
	var mu sync.Mutex
	total := 0
	var cwg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				if _, ok := b.TryPop(); ok {
					mu.Lock()
					total++
					mu.Unlock()
					continue
				}
				select {
				case <-stop:
					// Final drain.
					for {
						if _, ok := b.TryPop(); !ok {
							return
						}
						mu.Lock()
						total++
						mu.Unlock()
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	cwg.Wait()
	if total != producers*perProducer {
		t.Fatalf("consumed %d, want %d", total, producers*perProducer)
	}
}

func TestPerSlotValuesCleared(t *testing.T) {
	type big struct{ p *int }
	b := New[big](4)
	x := 7
	b.TryPush(big{&x})
	v, _ := b.TryPop()
	if v.p == nil {
		t.Fatal("lost value")
	}
	// The slot's stored value must be zeroed after pop so the ring
	// does not retain references.
	if b.slots[0].val.p != nil {
		t.Fatal("slot retained pointer after pop")
	}
}
