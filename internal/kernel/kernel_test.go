package kernel

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func newMachine() *Machine {
	return New(Config{})
}

func TestSingleProcessTimes(t *testing.T) {
	m := newMachine()
	p := m.Spawn("worker", func(p *Process) error {
		p.ChargeUser(1000)
		p.EnterKernel()
		p.Charge(500)
		p.ExitKernel()
		p.ChargeUser(250)
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	u, s, w := p.Times()
	if u != 1250 || s != 500 || w != 0 {
		t.Fatalf("times = %d/%d/%d", u, s, w)
	}
	if m.Elapsed() != 1750 {
		t.Fatalf("elapsed = %d", m.Elapsed())
	}
}

func TestProcessError(t *testing.T) {
	m := newMachine()
	boom := errors.New("boom")
	p := m.Spawn("fails", func(p *Process) error { return boom })
	err := m.Run()
	if !errors.Is(err, boom) || !errors.Is(p.Err(), boom) {
		t.Fatalf("err = %v / %v", err, p.Err())
	}
}

func TestFairShareDoublesElapsed(t *testing.T) {
	// The E6 mechanism: two CPU-bound processes on one CPU make each
	// other's elapsed time roughly double. This is where the paper's
	// 103% user-space-logger overhead comes from.
	const work = 20_000_000
	solo := newMachine()
	solo.Spawn("a", func(p *Process) error { p.ChargeUser(work); return nil })
	if err := solo.Run(); err != nil {
		t.Fatal(err)
	}
	soloElapsed := solo.Elapsed()

	duo := newMachine()
	duo.Spawn("a", func(p *Process) error { p.ChargeUser(work); return nil })
	duo.Spawn("b", func(p *Process) error { p.ChargeUser(work); return nil })
	if err := duo.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(duo.Elapsed()) / float64(soloElapsed)
	if ratio < 1.9 || ratio > 2.2 {
		t.Fatalf("two-process elapsed ratio = %.2f, want ~2.0", ratio)
	}
	if duo.CtxSwitches < 10 {
		t.Fatalf("context switches = %d, want many", duo.CtxSwitches)
	}
}

func TestRoundRobinInterleavesFairly(t *testing.T) {
	m := newMachine()
	var aDone, bDone sim.Cycles
	m.Spawn("a", func(p *Process) error {
		p.ChargeUser(10_000_000)
		aDone = m.Clock.Now()
		return nil
	})
	m.Spawn("b", func(p *Process) error {
		p.ChargeUser(10_000_000)
		bDone = m.Clock.Now()
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Equal demand: finishes should be within ~2 timeslices.
	diff := aDone - bDone
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*m.Costs.TimeSlice+2*m.Costs.CtxSwitch {
		t.Fatalf("unfair: a@%d b@%d", aDone, bDone)
	}
}

func TestBlockForAccountsWait(t *testing.T) {
	m := newMachine()
	p := m.Spawn("io", func(p *Process) error {
		p.ChargeUser(100)
		p.BlockFor(5000)
		p.ChargeUser(100)
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	u, s, w := p.Times()
	if u != 200 || s != 0 {
		t.Fatalf("u/s = %d/%d", u, s)
	}
	if w != 5000 {
		t.Fatalf("wait = %d", w)
	}
	if m.IdleCycles != 5000 {
		t.Fatalf("idle = %d", m.IdleCycles)
	}
}

func TestIOOverlapsWithCompute(t *testing.T) {
	// While one process waits on the disk, another runs: elapsed is
	// max, not sum.
	m := newMachine()
	m.Spawn("io", func(p *Process) error {
		p.BlockFor(10_000_000)
		return nil
	})
	m.Spawn("cpu", func(p *Process) error {
		p.ChargeUser(10_000_000)
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Elapsed() > 11_000_000 {
		t.Fatalf("elapsed = %d; I/O did not overlap compute", m.Elapsed())
	}
}

func TestMultipleBlockedWakeInOrder(t *testing.T) {
	m := newMachine()
	var order []string
	for i, d := range []sim.Cycles{3_000_000, 1_000_000, 2_000_000} {
		name := fmt.Sprintf("p%d", i)
		d := d
		m.Spawn(name, func(p *Process) error {
			p.BlockFor(d)
			order = append(order, p.Name)
			return nil
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[p1 p2 p0]" {
		t.Fatalf("wake order = %v", order)
	}
}

func TestPreemptHookRuns(t *testing.T) {
	m := newMachine()
	var hooks int
	m.Spawn("watched", func(p *Process) error {
		p.OnPreempt = func(*Process) error { hooks++; return nil }
		p.ChargeUser(m.Costs.TimeSlice * 5)
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if hooks < 4 {
		t.Fatalf("preempt hook ran %d times, want >= 4", hooks)
	}
}

func TestPreemptHookKills(t *testing.T) {
	// The Cosy watchdog shape: a runaway kernel-mode loop is
	// terminated at a preemption point.
	m := newMachine()
	limit := m.Costs.TimeSlice * 3
	p := m.Spawn("runaway", func(p *Process) error {
		p.OnPreempt = func(p *Process) error {
			if p.KernelStreak() > limit {
				return fmt.Errorf("kernel time %d exceeded limit %d", p.KernelStreak(), limit)
			}
			return nil
		}
		p.EnterKernel()
		for { // infinite kernel loop
			p.Charge(m.Costs.TimeSlice / 2)
		}
	})
	err := m.Run()
	if !errors.Is(err, ErrKilled) || !errors.Is(p.Err(), ErrKilled) {
		t.Fatalf("err = %v", err)
	}
	// The machine must survive and remain usable.
	m.Spawn("after", func(p *Process) error { p.ChargeUser(10); return nil })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelStreakResetsAtEntry(t *testing.T) {
	m := newMachine()
	m.Spawn("p", func(p *Process) error {
		p.EnterKernel()
		p.Charge(500)
		if p.KernelStreak() != 500 {
			t.Errorf("streak = %d", p.KernelStreak())
		}
		p.ExitKernel()
		p.EnterKernel()
		if p.KernelStreak() != 0 {
			t.Errorf("streak not reset: %d", p.KernelStreak())
		}
		p.ExitKernel()
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNestedKernelMode(t *testing.T) {
	m := newMachine()
	p := m.Spawn("p", func(p *Process) error {
		p.EnterKernel()
		p.EnterKernel()
		p.Charge(100)
		p.ExitKernel()
		if !p.InKernel() {
			t.Error("left kernel too early")
		}
		p.Charge(50)
		p.ExitKernel()
		if p.InKernel() {
			t.Error("still in kernel")
		}
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	_, s, _ := p.Times()
	if s != 150 {
		t.Fatalf("sys = %d", s)
	}
}

func TestExitKernelUnderflowPanics(t *testing.T) {
	m := newMachine()
	m.Spawn("p", func(p *Process) error {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		p.ExitKernel()
		return nil
	})
	_ = m.Run()
}

func TestSpawnDuringRun(t *testing.T) {
	m := newMachine()
	var childRan bool
	m.Spawn("parent", func(p *Process) error {
		m.Spawn("child", func(c *Process) error {
			childRan = true
			c.ChargeUser(10)
			return nil
		})
		p.ChargeUser(10)
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestSpinLock(t *testing.T) {
	m := newMachine()
	var events []bool
	l := &SpinLock{Name: "dcache_lock"}
	l.Probe = func(p *Process, acquire bool, lk *SpinLock) { events = append(events, acquire) }
	m.Spawn("p", func(p *Process) error {
		p.EnterKernel()
		l.Lock(p)
		l.Unlock(p)
		l.Lock(p)
		l.Unlock(p)
		p.ExitKernel()
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Acquisitions != 2 {
		t.Fatalf("acquisitions = %d", l.Acquisitions)
	}
	if fmt.Sprint(events) != "[true false true false]" {
		t.Fatalf("probe events = %v", events)
	}
}

func TestSpinLockMisuse(t *testing.T) {
	m := newMachine()
	m.Spawn("p", func(p *Process) error {
		l := &SpinLock{Name: "x"}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unlock of unheld did not panic")
				}
			}()
			l.Unlock(p)
		}()
		l.Lock(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("recursive lock did not panic")
				}
			}()
			l.Lock(p)
		}()
		return nil
	})
	_ = m.Run()
}

func TestDeadlockDetected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("deadlock not detected")
		}
	}()
	m := newMachine()
	// A process that yields forever cannot exist in this cooperative
	// model, so simulate a lost wakeup by spawning and never running.
	m.procs = append(m.procs, &Process{PID: 999, Name: "ghost", state: stateBlocked})
	m.Spawn("real", func(p *Process) error { return nil })
	_ = m.Run()
}

func TestUserAddressSpacesIsolated(t *testing.T) {
	m := newMachine()
	m.Spawn("a", func(p *Process) error {
		base, err := p.UAS.MapRegion(1, 3) // PermRW
		if err != nil {
			return err
		}
		return p.UAS.WriteBytes(base, []byte("private"))
	})
	m.Spawn("b", func(p *Process) error {
		// Same VA range is unmapped in this process's space.
		if err := p.UAS.ReadBytes(0x10000, make([]byte, 1)); err == nil {
			t.Error("process b read a's memory")
		}
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMemTotalsCountExitedProcesses checks that an exited process's
// translations and faults stay in MemTotals, and that a later
// process's add to them.
func TestMemTotalsCountExitedProcesses(t *testing.T) {
	m := newMachine()
	type totals struct{ hits, misses, faults, promos uint64 }
	read := func() (tt totals) {
		tt.hits, tt.misses, tt.faults, tt.promos = m.MemTotals()
		return tt
	}
	touch := func(p *Process, pages int) error {
		base, err := p.UAS.MapRegion(pages, mem.PermRW)
		if err != nil {
			return err
		}
		buf := make([]byte, 8)
		for i := 0; i < pages; i++ {
			va := base + mem.Addr(i*mem.PageSize)
			if err := p.UAS.WriteBytes(va, buf); err != nil {
				return err
			}
			if err := p.UAS.ReadBytes(va, buf); err != nil {
				return err
			}
		}
		if err := p.UAS.ReadBytes(0, buf); err == nil { // page 0 is never mapped
			return errors.New("read of page 0 did not fault")
		}
		return nil
	}

	var endOfA totals
	m.Spawn("a", func(p *Process) error {
		if err := touch(p, 4); err != nil {
			return err
		}
		endOfA = read()
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	afterA := read()
	if afterA != endOfA {
		t.Fatalf("totals after a exited = %+v, at the end of its body %+v", afterA, endOfA)
	}
	if afterA.hits == 0 || afterA.misses == 0 || afterA.faults == 0 {
		t.Fatalf("a's touches counted nothing: %+v", afterA)
	}

	var startOfB, endOfB totals
	m.Spawn("b", func(p *Process) error {
		startOfB = read()
		if err := touch(p, 2); err != nil {
			return err
		}
		endOfB = read()
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if afterB := read(); startOfB != afterA || afterB != endOfB ||
		afterB.hits <= afterA.hits || afterB.misses <= afterA.misses || afterB.faults <= afterA.faults {
		t.Fatalf("totals: after a %+v, b's body %+v to %+v, after b %+v", afterA, startOfB, endOfB, afterB)
	}
}

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	times := []sim.Cycles{50, 10, 30, 10, 20}
	for _, tt := range times {
		h.push(event{when: tt})
	}
	var got []sim.Cycles
	for h.Len() > 0 {
		got = append(got, h.pop().when)
	}
	want := []sim.Cycles{10, 10, 20, 30, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v", got)
		}
	}
}

func TestEventHeapFIFOTiebreak(t *testing.T) {
	var h eventHeap
	p1, p2 := &Process{PID: 1}, &Process{PID: 2}
	h.push(event{when: 5, proc: p1})
	h.push(event{when: 5, proc: p2})
	if h.pop().proc != p1 || h.pop().proc != p2 {
		t.Fatal("equal-time events not FIFO")
	}
}

func TestChargeSysCountsAsSystemInUserMode(t *testing.T) {
	m := newMachine()
	p := m.Spawn("p", func(p *Process) error {
		p.ChargeSys(333)
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	_, s, _ := p.Times()
	if s != 333 {
		t.Fatalf("sys = %d", s)
	}
}

// BenchmarkBlockLone is one process blocking with nothing else to run,
// the case BlockOn serves on the process's own goroutine.
func BenchmarkBlockLone(b *testing.B) {
	m := newMachine()
	m.Spawn("sleeper", func(p *Process) error {
		for i := 0; i < b.N; i++ {
			p.BlockFor(1000)
		}
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}
