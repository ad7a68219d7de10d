package kernel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kflight"
	"repro/internal/kperf"
	"repro/internal/ktrace"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/workload"
)

// seamEvent is one observer-seam announcement as seamLog received it.
type seamEvent struct {
	kind   string
	pid    int
	a, b   sim.Cycles
	sub    kperf.Subsys
	detail string
}

// seamLog records every announcement in arrival order.
type seamLog struct{ seq []seamEvent }

func (l *seamLog) add(e seamEvent) { l.seq = append(l.seq, e) }

func (l *seamLog) OnBlock(pid int, sub kperf.Subsys, at sim.Cycles) {
	l.add(seamEvent{kind: "block", pid: pid, a: at, sub: sub})
}
func (l *seamLog) OnReady(pid int, at sim.Cycles) { l.add(seamEvent{kind: "ready", pid: pid, a: at}) }
func (l *seamLog) OnRun(pid int, at sim.Cycles)   { l.add(seamEvent{kind: "run", pid: pid, a: at}) }
func (l *seamLog) Tick(now sim.Cycles)            { l.add(seamEvent{kind: "tick", a: now}) }
func (l *seamLog) Event(now sim.Cycles, kind, detail string) {
	l.add(seamEvent{kind: "event", a: now, detail: kind + ":" + detail})
}
func (l *seamLog) SyscallEnter(pid int, nr uint16) {
	l.add(seamEvent{kind: "enter", pid: pid, a: sim.Cycles(nr)})
}
func (l *seamLog) SyscallExit(pid int, nr uint16, in, out int) {
	l.add(seamEvent{kind: "exit", pid: pid, a: sim.Cycles(in), b: sim.Cycles(out), detail: fmt.Sprint(nr)})
}
func (l *seamLog) BeginOp(pid int, op string) { l.add(seamEvent{kind: "begin", pid: pid, detail: op}) }
func (l *seamLog) EndOp(pid int)              { l.add(seamEvent{kind: "end", pid: pid}) }
func (l *seamLog) ExecSpan(pid int, sub kperf.Subsys, start, end sim.Cycles) {
	l.add(seamEvent{kind: "exec", pid: pid, sub: sub, a: start, b: end})
}

// sleepRun is everything a run leaves behind that a host-side change
// to the scheduler must not move.
type sleepRun struct {
	seam          []seamEvent
	chrome        []byte // kperf shard records
	flight        []byte
	ktrace        []byte
	times         [][3]sim.Cycles // per process, spawn order
	elapsed, idle sim.Cycles
	inline        int64
}

// runSleepers boots a machine with every observer on, spawns bodies in
// order, runs it with the lone-sleeper path on or off and collects the
// run's records.
func runSleepers(t *testing.T, inline bool, bodies ...func(pr *sys.Proc) error) sleepRun {
	t.Helper()
	s, err := core.New(core.Options{
		CacheBlocks: 64,
		Perf:        core.NewPerf(0),
		// Tiny epochs maximize sampling activity.
		Flight: &kflight.Config{EpochCycles: 1 << 16, Retain: 8},
		Trace:  &ktrace.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	kernel.SetInlineSleep(s.M, inline)
	s.EnableTrace()
	log := &seamLog{}
	s.M.Observe(log)
	var procs []*kernel.Process
	for i, body := range bodies {
		procs = append(procs, s.Spawn(fmt.Sprint("p", i), body))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r := sleepRun{seam: log.seq, elapsed: s.M.Elapsed(), idle: s.M.IdleCycles, inline: kernel.InlineSleeps(s.M)}
	for _, p := range procs {
		u, sy, w := p.Times()
		r.times = append(r.times, [3]sim.Cycles{u, sy, w})
	}
	var chrome, flight bytes.Buffer
	if err := s.Perf.WriteChromeTrace(&chrome, kperf.TraceFilter{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Flight.WriteJSON(&flight); err != nil {
		t.Fatal(err)
	}
	r.chrome, r.flight = chrome.Bytes(), flight.Bytes()
	if r.ktrace, err = json.Marshal(s.Ktrace.Summary()); err != nil {
		t.Fatal(err)
	}
	return r
}

// sameRun fails the test where the two runs' records differ.
func sameRun(t *testing.T, off, on sleepRun) {
	t.Helper()
	if len(off.seam) == 0 {
		t.Fatal("the observer seam saw nothing")
	}
	if !slices.Equal(off.seam, on.seam) {
		i := 0
		for i < min(len(off.seam), len(on.seam)) && off.seam[i] == on.seam[i] {
			i++
		}
		t.Errorf("seam sequences diverge at event %d of %d/%d", i, len(off.seam), len(on.seam))
	}
	if !bytes.Equal(off.chrome, on.chrome) {
		t.Error("Chrome trace bytes differ")
	}
	if !bytes.Equal(off.flight, on.flight) {
		t.Error("kflight record bytes differ")
	}
	if !bytes.Equal(off.ktrace, on.ktrace) {
		t.Errorf("ktrace summaries differ:\noff %s\non  %s", off.ktrace, on.ktrace)
	}
	if !slices.Equal(off.times, on.times) || off.elapsed != on.elapsed || off.idle != on.idle {
		t.Errorf("simulated time moved: off times %v elapsed %d idle %d, on times %v elapsed %d idle %d",
			off.times, off.elapsed, off.idle, on.times, on.elapsed, on.idle)
	}
}

// TestInlineSleepIdentity is the lone-sleeper path's differential
// test. PostMark over a 64-block cache blocks on writebacks alone, the
// path's case; with the path forced off every block hands the CPU to
// the scheduler goroutine instead. Both runs must leave identical
// records: the seam's event sequence, the kperf shards, the kflight
// record, the ktrace summary and every simulated time.
func TestInlineSleepIdentity(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		for _, ring := range []int{0, 64} {
			t.Run(fmt.Sprintf("seed%d/ring%d", seed, ring), func(t *testing.T) {
				cfg := workload.DefaultPostMark()
				cfg.InitialFiles, cfg.Transactions, cfg.Seed = 50, 200, seed
				body := func(pr *sys.Proc) error {
					var err error
					if ring > 0 {
						_, err = workload.PostMarkRing(pr, cfg, ring)
					} else {
						_, err = workload.PostMark(pr, cfg)
					}
					return err
				}
				off, on := runSleepers(t, false, body), runSleepers(t, true, body)
				if off.inline != 0 || on.inline == 0 {
					t.Fatalf("inline sleeps: %d with the path off, %d with it on", off.inline, on.inline)
				}
				sameRun(t, off, on)
			})
		}
	}
}

// TestInlineSleepDeclines covers blocks the path must leave to the
// scheduler goroutine: a sleeper with another process ready, and a
// sleeper whose wakeup shares its cycle with an earlier sleeper's.
// Every block in these runs declines, and the records still match.
func TestInlineSleepDeclines(t *testing.T) {
	cases := map[string]func() []func(pr *sys.Proc) error{
		"other ready": func() []func(pr *sys.Proc) error {
			return []func(pr *sys.Proc) error{
				func(pr *sys.Proc) error {
					for range 3 {
						pr.P.BlockFor(50_000)
					}
					return nil
				},
				// Busy for longer than the sleeper's three blocks, and
				// ready whenever the sleeper runs.
				func(pr *sys.Proc) error {
					pr.P.ChargeUser(4 * pr.P.M.Costs.TimeSlice)
					return nil
				},
			}
		},
		"shared wake cycle": func() []func(pr *sys.Proc) error {
			var wake sim.Cycles
			return []func(pr *sys.Proc) error{
				func(pr *sys.Proc) error {
					wake = pr.P.M.Clock.Now() + 50_000
					pr.P.BlockFor(50_000)
					return nil
				},
				func(pr *sys.Proc) error {
					pr.P.ChargeUser(1000)
					d := wake - pr.P.M.Clock.Now()
					if d <= 0 {
						return fmt.Errorf("started past the first sleeper's wakeup, %d cycles late", -d)
					}
					pr.P.BlockFor(d)
					return nil
				},
			}
		},
	}
	for name, bodies := range cases {
		t.Run(name, func(t *testing.T) {
			off, on := runSleepers(t, false, bodies()...), runSleepers(t, true, bodies()...)
			if on.inline != 0 {
				t.Fatalf("the path ran %d times, want it to decline every block", on.inline)
			}
			sameRun(t, off, on)
		})
	}
}
