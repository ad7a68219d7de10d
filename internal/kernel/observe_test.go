package kernel

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/kperf"
	"repro/internal/sim"
)

// seen is one announcement as an observer received it.
type seen struct {
	kind   string
	pid    int
	c      sim.Cycles
	sub    kperf.Subsys
	detail string
}

// seqObserver records every announcement in arrival order.
type seqObserver struct{ seq []seen }

func (o *seqObserver) add(e seen) { o.seq = append(o.seq, e) }

func (o *seqObserver) OnBlock(pid int, sub kperf.Subsys, at sim.Cycles) {
	o.add(seen{kind: "block", pid: pid, sub: sub, c: at})
}
func (o *seqObserver) OnReady(pid int, at sim.Cycles) { o.add(seen{kind: "ready", pid: pid, c: at}) }
func (o *seqObserver) OnRun(pid int, at sim.Cycles)   { o.add(seen{kind: "run", pid: pid, c: at}) }
func (o *seqObserver) Tick(now sim.Cycles)            { o.add(seen{kind: "tick", c: now}) }
func (o *seqObserver) Event(now sim.Cycles, kind, detail string) {
	o.add(seen{kind: "event", c: now, detail: kind + ":" + detail})
}
func (o *seqObserver) SyscallEnter(pid int, nr uint16) {
	o.add(seen{kind: "enter", pid: pid, c: sim.Cycles(nr)})
}
func (o *seqObserver) SyscallExit(pid int, nr uint16, in, out int) {
	o.add(seen{kind: "exit", pid: pid, c: sim.Cycles(nr), detail: fmt.Sprint(in, out)})
}
func (o *seqObserver) BeginOp(pid int, op string) { o.add(seen{kind: "begin", pid: pid, detail: op}) }
func (o *seqObserver) EndOp(pid int)              { o.add(seen{kind: "end", pid: pid}) }
func (o *seqObserver) ExecSpan(pid int, sub kperf.Subsys, start, end sim.Cycles) {
	o.add(seen{kind: "exec", pid: pid, sub: sub, c: end - start})
}

// TestObserverSeam drives two processes through every charging and
// scheduling path of a bare machine with two observers attached. The
// seam announces no charge, so the charges are checked where observers
// read them: each process's kperf cells must sum to its user+system
// time (a charge site that skips kperf breaks this) and the kernel
// SubAlloc cell must hold the tagged allocator charge. Both observers
// must see the same sequence, and every block must be followed by
// ready and then run for the same process.
func TestObserverSeam(t *testing.T) {
	m := New(Config{Perf: kperf.New(0, 0)})
	a, b := &seqObserver{}, &seqObserver{}
	m.Observe(a)
	m.Observe(b)
	pa := m.Spawn("a", func(p *Process) error {
		m.BeginOp(p.PID, "op")
		p.ChargeUser(1000)
		m.SyscallEnter(p.PID, 7)
		p.EnterKernel()
		p.Charge(500)
		m.ChargeTagged(kperf.SubAlloc)(40)
		start := m.Clock.Now()
		p.ChargeSys(300)
		m.ExecSpan(p.PID, kperf.SubProbe, start)
		p.ExitKernel()
		m.SyscallExit(p.PID, 7, 8, 16)
		p.BlockFor(10_000)
		p.Yield()
		p.ChargeUser(3 * m.Costs.TimeSlice) // preempted mid-charge
		m.EndOp(p.PID)
		return nil
	})
	pb := m.Spawn("b", func(p *Process) error {
		p.ChargeUser(2000)
		p.Yield()
		p.BlockFor(5000)
		p.ChargeSys(100)
		p.ChargeUser(2 * m.Costs.TimeSlice)
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	if !slices.Equal(a.seq, b.seq) {
		t.Fatalf("observers saw different sequences: %d vs %d announcements", len(a.seq), len(b.seq))
	}
	kinds := map[string]int{}
	flow := map[int][]string{}
	for _, e := range a.seq {
		kinds[e.kind]++
		switch e.kind {
		case "block", "ready", "run":
			flow[e.pid] = append(flow[e.pid], e.kind)
		}
	}
	if alloc := pa.Perf.ModeSubsysCycles()[int(kperf.ModeKernel)*kperf.NSubsys+int(kperf.SubAlloc)]; alloc != 40 {
		t.Errorf("kernel %v cell holds %d cycles, want the 40 charged there", kperf.SubAlloc, alloc)
	}
	for _, p := range []*Process{pa, pb} {
		var charged sim.Cycles
		for _, c := range p.Perf.ModeSubsysCycles() {
			charged += c
		}
		user, sys, _ := p.Times()
		if charged != user+sys {
			t.Errorf("%s: kperf cells sum to %d, user+sys is %d", p.Name, charged, user+sys)
		}
		f := flow[p.PID]
		for i, k := range f {
			if k == "block" && (i+2 >= len(f) || f[i+1] != "ready" || f[i+2] != "run") {
				t.Errorf("%s: block not followed by ready, run: %v", p.Name, f)
			}
		}
	}
	for _, k := range []string{"block", "ready", "run", "tick", "begin", "end", "enter", "exit", "exec"} {
		if kinds[k] == 0 {
			t.Errorf("no %q announcement", k)
		}
	}
	if last := a.seq[len(a.seq)-1]; last.kind != "event" || last.detail != EventRunEnd+":" {
		t.Errorf("last announcement is %+v, want the run_end event", last)
	}
}

// TestObservedChargeAllocFree pins Charge, ChargeSys and BlockFor at
// zero host allocations with two observers attached.
func TestObservedChargeAllocFree(t *testing.T) {
	m := newMachine()
	m.Observe(kperf.NopObserver{})
	m.Observe(kperf.NopObserver{})
	var allocs [3]float64
	m.Spawn("p", func(p *Process) error {
		allocs[0] = testing.AllocsPerRun(100, func() { p.Charge(10) })
		allocs[1] = testing.AllocsPerRun(100, func() { p.ChargeSys(10) })
		allocs[2] = testing.AllocsPerRun(100, func() { p.BlockFor(10) })
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != [3]float64{} {
		t.Errorf("allocs per Charge, ChargeSys, BlockFor = %v, want 0", allocs)
	}
}

// BenchmarkChargeObserved measures a charge, the machine's hottest
// path, with 0, 1 and 2 no-op observers attached. Charge announces
// nothing, so the three cases must read alike: one that grows with
// the observers means a fan-out came back to the charge path.
func BenchmarkChargeObserved(b *testing.B) {
	for _, n := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("observers=%d", n), func(b *testing.B) {
			m := newMachine()
			for i := 0; i < n; i++ {
				m.Observe(kperf.NopObserver{})
			}
			m.Spawn("p", func(p *Process) error {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Charge(1)
				}
				return nil
			})
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
