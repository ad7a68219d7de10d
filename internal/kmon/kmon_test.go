package kmon

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/sys"
	"repro/internal/vfs"
	"repro/internal/vfs/memfs"
)

func newEnv() (*kernel.Machine, *Monitor) {
	m := kernel.New(kernel.Config{})
	return m, New(m, 1024)
}

func runOn(t *testing.T, m *kernel.Machine, fn func(p *kernel.Process) error) {
	t.Helper()
	m.Spawn("test", fn)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDispatcherInvokesCallbacks(t *testing.T) {
	m, mon := newEnv()
	var got []Event
	mon.Register(func(ev Event) { got = append(got, ev) })
	fid := mon.FileID("dcache.c")
	runOn(t, m, func(p *kernel.Process) error {
		mon.LogEvent(p, 7, EvLockAcquire, fid, 42)
		mon.LogEvent(p, 7, EvLockRelease, fid, 57)
		return nil
	})
	if len(got) != 2 {
		t.Fatalf("callbacks saw %d events", len(got))
	}
	if got[0].Obj != 7 || got[0].Type != EvLockAcquire || got[0].Line != 42 {
		t.Fatalf("event = %+v", got[0])
	}
	if mon.FileName(got[0].File) != "dcache.c" {
		t.Fatalf("file = %q", mon.FileName(got[0].File))
	}
	if mon.Logged != 2 {
		t.Fatalf("Logged = %d", mon.Logged)
	}
}

func TestRingOnlyWhenEnabled(t *testing.T) {
	m, mon := newEnv()
	runOn(t, m, func(p *kernel.Process) error {
		mon.LogEvent(p, 1, EvRefInc, 0, 1)
		if mon.Ring.Len() != 0 {
			t.Error("event entered ring while disabled")
		}
		mon.RingEnabled = true
		mon.LogEvent(p, 1, EvRefInc, 0, 2)
		if mon.Ring.Len() != 1 {
			t.Error("event missing from ring")
		}
		return nil
	})
}

func TestLogEventCostsScaleWithConfig(t *testing.T) {
	// The E6 mechanism: dispatcher alone is cheap; ring adds cost.
	cost := func(ringOn bool, ncb int) int64 {
		m, mon := newEnv()
		mon.RingEnabled = ringOn
		for i := 0; i < ncb; i++ {
			mon.Register(func(Event) {})
		}
		var sys int64
		runOn(t, m, func(p *kernel.Process) error {
			_, s0, _ := p.Times()
			for i := 0; i < 100; i++ {
				mon.LogEvent(p, 1, EvUser, 0, 0)
			}
			_, s1, _ := p.Times()
			sys = int64(s1 - s0)
			return nil
		})
		return sys
	}
	bare := cost(false, 0)
	withRing := cost(true, 0)
	withCb := cost(false, 2)
	if withRing <= bare || withCb <= bare {
		t.Fatalf("costs: bare=%d ring=%d cb=%d", bare, withRing, withCb)
	}
}

func TestEventEncodeDecodeRoundTrip(t *testing.T) {
	evs := []Event{
		{Obj: 0xDEADBEEF12345678, Type: EvLockAcquire, File: 3, Line: 1234, Time: 987654321},
		{Obj: 0, Type: EvUser, File: 0, Line: 0, Time: 0},
		{Obj: 1, Type: EvRefDestroy, File: 65535, Line: 32767, Time: 1},
	}
	for _, ev := range evs {
		var buf [EventBytes]byte
		encodeEvent(buf[:], ev)
		got := DecodeEvent(buf[:])
		if got != ev {
			t.Fatalf("round trip: %+v != %+v", got, ev)
		}
	}
}

func TestDevReadDrainsRing(t *testing.T) {
	m, mon := newEnv()
	mon.RingEnabled = true
	dev := &Dev{Mon: mon}
	runOn(t, m, func(p *kernel.Process) error {
		for i := 0; i < 5; i++ {
			mon.LogEvent(p, uint64(i), EvUser, 0, int32(i))
		}
		buf := make([]byte, 3*EventBytes)
		n, err := dev.DevRead(p, buf)
		if err != nil || n != 3*EventBytes {
			t.Errorf("read = %d,%v", n, err)
		}
		if ev := DecodeEvent(buf); ev.Obj != 0 {
			t.Errorf("first event = %+v", ev)
		}
		n, _ = dev.DevRead(p, buf)
		if n != 2*EventBytes {
			t.Errorf("second read = %d", n)
		}
		n, _ = dev.DevRead(p, buf)
		if n != 0 {
			t.Errorf("empty read = %d", n)
		}
		if _, err := dev.DevWrite(p, []byte{1}); err == nil {
			t.Error("write to read-only device succeeded")
		}
		return nil
	})
}

func TestReaderThroughSyscalls(t *testing.T) {
	// Full Figure-1 path: kernel events -> ring -> chardev -> user
	// logger via read syscalls.
	m := kernel.New(kernel.Config{})
	mon := New(m, 1024)
	mon.RingEnabled = true
	fs := memfs.New("root", vfs.NewIOModel(disk.New(disk.IDE7200()), 1024))
	ns := vfs.NewNamespace(fs)
	ns.RegisterDevice("/dev/kernevents", &Dev{Mon: mon})
	k := sys.NewKernel(m, ns)

	var delivered []Event
	m.Spawn("logger", func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		r, err := NewReader(pr, "/dev/kernevents", 64)
		if err != nil {
			return err
		}
		// Produce events from kernel context, then consume.
		fid := mon.FileID("test.c")
		p.EnterKernel()
		for i := 0; i < 10; i++ {
			mon.LogEvent(p, uint64(i), EvRefInc, fid, int32(i))
		}
		p.ExitKernel()
		for {
			ev, ok, err := r.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			delivered = append(delivered, ev)
		}
		return r.Close()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 10 {
		t.Fatalf("delivered %d events", len(delivered))
	}
	for i, ev := range delivered {
		if ev.Obj != uint64(i) || ev.Type != EvRefInc {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

// TestReaderBulkCopyUnderWrapAndOverflow interleaves bursts of kernel
// events with bulk reads on a tiny ring, so the ring wraps repeatedly
// and some bursts overflow it. The accounting must stay exact:
// delivered + dropped == logged, every delivered event arrives in
// order, and none is duplicated — drops lose events, never corrupt
// the stream.
func TestReaderBulkCopyUnderWrapAndOverflow(t *testing.T) {
	const ringCap = 8
	m := kernel.New(kernel.Config{})
	mon := New(m, ringCap)
	mon.RingEnabled = true
	fs := memfs.New("root", vfs.NewIOModel(disk.New(disk.IDE7200()), 1024))
	ns := vfs.NewNamespace(fs)
	ns.RegisterDevice("/dev/kernevents", &Dev{Mon: mon})
	k := sys.NewKernel(m, ns)

	// Bursts sized around the ring: some fit exactly, some wrap the
	// cursor, some overflow and must drop (burst - ringCap each).
	bursts := []int{3, 8, 5, 13, 1, 8, 20, 7}
	var delivered []Event
	m.Spawn("logger", func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		// Batch of 3 events per read: each burst takes several bulk
		// copies, so reads straddle the ring's wrap point.
		r, err := NewReader(pr, "/dev/kernevents", 3)
		if err != nil {
			return err
		}
		fid := mon.FileID("test.c")
		seq := uint64(0)
		p.EnterKernel()
		for _, n := range bursts {
			for i := 0; i < n; i++ {
				mon.LogEvent(p, seq, EvUser, fid, int32(seq))
				seq++
			}
			p.ExitKernel()
			for {
				ev, ok, err := r.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				delivered = append(delivered, ev)
			}
			p.EnterKernel()
		}
		p.ExitKernel()
		return r.Close()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	wantDrops := int64(0)
	for _, n := range bursts {
		if n > ringCap {
			wantDrops += int64(n - ringCap)
		}
	}
	drops := mon.Dropped
	if drops != wantDrops {
		t.Fatalf("drops = %d, want exactly %d", drops, wantDrops)
	}
	if got := int64(len(delivered)) + drops; got != mon.Logged {
		t.Fatalf("delivered %d + dropped %d = %d, want logged %d",
			len(delivered), drops, got, mon.Logged)
	}
	// Sequence numbers must be strictly increasing: a repeat would be
	// a duplicated delivery, a reversal a wrap-corrupted copy.
	last := int64(-1)
	for i, ev := range delivered {
		if int64(ev.Obj) <= last {
			t.Fatalf("event %d: obj %d after %d (duplicate or reordered delivery)", i, ev.Obj, last)
		}
		last = int64(ev.Obj)
		if ev.Line != int32(ev.Obj) {
			t.Fatalf("event %d: line %d does not match obj %d (payload corrupted)", i, ev.Line, ev.Obj)
		}
	}
}

func TestAttachSpinLock(t *testing.T) {
	m, mon := newEnv()
	var types []EventType
	mon.Register(func(ev Event) { types = append(types, ev.Type) })
	lock := &kernel.SpinLock{Name: "dcache_lock"}
	mon.AttachSpinLock(lock, "fs/dcache.c", 100)
	runOn(t, m, func(p *kernel.Process) error {
		p.EnterKernel()
		lock.Lock(p)
		lock.Unlock(p)
		p.ExitKernel()
		return nil
	})
	if len(types) != 2 || types[0] != EvLockAcquire || types[1] != EvLockRelease {
		t.Fatalf("types = %v", types)
	}
}

func TestRefMonitor(t *testing.T) {
	rm := NewRefMonitor()
	cb := rm.Callback
	cb(Event{Obj: 1, Type: EvRefInc})
	cb(Event{Obj: 1, Type: EvRefInc})
	cb(Event{Obj: 1, Type: EvRefDec})
	cb(Event{Obj: 1, Type: EvRefDec})
	cb(Event{Obj: 1, Type: EvRefDestroy})
	if len(rm.Violations()) != 0 {
		t.Fatalf("violations on balanced object: %v", rm.Violations())
	}
	cb(Event{Obj: 2, Type: EvRefDec})
	if len(rm.Violations()) != 1 {
		t.Fatal("negative refcount not flagged")
	}
	cb(Event{Obj: 3, Type: EvRefInc})
	cb(Event{Obj: 3, Type: EvRefDestroy})
	if len(rm.Violations()) != 2 {
		t.Fatal("destroy with live refs not flagged")
	}
	// Object 2 is stuck at -1: a leak candidate.
	if rm.Live() != 1 {
		t.Fatalf("live = %d", rm.Live())
	}
}

func TestLockMonitor(t *testing.T) {
	lm := NewLockMonitor()
	lm.Callback(Event{Obj: 1, Type: EvLockAcquire})
	lm.Callback(Event{Obj: 1, Type: EvLockRelease})
	if len(lm.Violations()) != 0 {
		t.Fatal("balanced lock flagged")
	}
	lm.Callback(Event{Obj: 2, Type: EvLockAcquire})
	lm.Callback(Event{Obj: 2, Type: EvLockAcquire})
	if len(lm.Violations()) != 1 {
		t.Fatal("double acquire not flagged")
	}
	lm.Callback(Event{Obj: 2, Type: EvLockRelease})
	lm.Callback(Event{Obj: 3, Type: EvLockRelease})
	if len(lm.Violations()) != 2 {
		t.Fatal("release of unheld not flagged")
	}
	lm.Callback(Event{Obj: 4, Type: EvLockAcquire})
	lm.Finish()
	if len(lm.Violations()) != 3 {
		t.Fatal("held at shutdown not flagged")
	}
}

func TestIRQMonitor(t *testing.T) {
	im := NewIRQMonitor()
	im.Callback(Event{Obj: 0, Type: EvIRQDisable})
	im.Callback(Event{Obj: 0, Type: EvIRQEnable})
	if len(im.Violations()) != 0 {
		t.Fatal("balanced irq flagged")
	}
	im.Callback(Event{Obj: 1, Type: EvIRQEnable})
	if len(im.Violations()) != 1 {
		t.Fatal("enable without disable not flagged")
	}
	im.Callback(Event{Obj: 2, Type: EvIRQDisable})
	im.Finish()
	if len(im.Violations()) != 2 {
		t.Fatal("left disabled not flagged")
	}
}

func TestEventTypeStrings(t *testing.T) {
	if EvLockAcquire.String() != "lock-acquire" || EvUser.String() != "user-event" {
		t.Fatal("names")
	}
}

func TestRingOverflowDropsNotBlocks(t *testing.T) {
	m := kernel.New(kernel.Config{})
	mon := New(m, 16)
	mon.RingEnabled = true
	runOn(t, m, func(p *kernel.Process) error {
		for i := 0; i < 100; i++ {
			mon.LogEvent(p, uint64(i), EvUser, 0, 0)
		}
		return nil
	})
	if mon.Ring.Len() != 16 {
		t.Fatalf("ring len = %d", mon.Ring.Len())
	}
	if mon.Dropped != 84 {
		t.Fatalf("drops = %d", mon.Dropped)
	}
}
