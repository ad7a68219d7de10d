package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cosy/kext"
	"repro/internal/cosy/lib"
	"repro/internal/kgcc"
	"repro/internal/kperf"
	"repro/internal/kring"
	"repro/internal/sys"
)

// runInstrumented boots a kperf-enabled system with the dcache lock
// monitored, runs a small file workload, and returns the system.
func runInstrumented(t *testing.T) *System {
	t.Helper()
	s, err := New(Options{Perf: NewPerf(0)})
	if err != nil {
		t.Fatal(err)
	}
	s.InstrumentDcache()
	s.Mon.RingEnabled = true
	s.Spawn("work", func(pr *sys.Proc) error {
		// One buffer reused across iterations: repeat translations of
		// the same page exercise the TLB hit path.
		buf, err := pr.Mmap(512)
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			fd, err := pr.Creat("/f")
			if err != nil {
				return err
			}
			if _, err := pr.Write(fd, buf); err != nil {
				return err
			}
			if err := pr.Close(fd); err != nil {
				return err
			}
			if _, err := pr.Stat("/f"); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPerfRegistryFedBySubsystems checks the monitor, syscall layer,
// memory system, and I/O model all surface their counters as gauges
// in the kperf registry, and that the attribution identity holds for
// the run.
func TestPerfRegistryFedBySubsystems(t *testing.T) {
	s := runInstrumented(t)
	sn := s.Perf.Snapshot()

	if err := sn.CheckTotal(s.M.Elapsed()); err != nil {
		t.Error(err)
	}
	for _, g := range []string{
		"kmon.logged", "kmon.enqueued", "sys.calls.total",
		"sys.bytes.copyin", "mem.tlb.hits", "io.cache.hits",
	} {
		if sn.Gauges[g] <= 0 {
			t.Errorf("gauge %q = %d, want > 0", g, sn.Gauges[g])
		}
	}
	if sn.Gauges["kmon.logged"] != s.Mon.Logged {
		t.Errorf("kmon.logged gauge %d != monitor's count %d", sn.Gauges["kmon.logged"], s.Mon.Logged)
	}
	if sn.Gauges["sys.calls.total"] != s.K.TotalCalls() {
		t.Errorf("sys.calls.total gauge %d != kernel count %d", sn.Gauges["sys.calls.total"], s.K.TotalCalls())
	}
	if h, ok := sn.Histograms["sys.span.cycles"]; !ok || h.Count == 0 {
		t.Error("sys.span.cycles histogram empty — syscall spans not observed")
	}
	if sn.SubsystemCycles["kmon"] <= 0 {
		t.Error("no cycles attributed to the kmon subsystem despite dcache instrumentation")
	}
	if sn.TraceRecords == 0 {
		t.Error("tracer captured no records")
	}
}

// TestCallsTotalIsSumOfCalls drives each path that counts a boundary
// crossing (trap calls, a ring_enter draining several entries, a Cosy
// compound through the ring, a ku_call) and requires the kernel's
// running total to equal the per-call counts, in the kernel and in the
// snapshot's gauges.
func TestCallsTotalIsSumOfCalls(t *testing.T) {
	s, err := New(Options{Perf: NewPerf(0)})
	if err != nil {
		t.Fatal(err)
	}
	b := lib.New()
	fd := b.Sys(uint16(sys.NrCreat), b.Const(int64(b.String("/cosy"))))
	b.Sys(uint16(sys.NrClose), fd)
	compound, err := b.Build(fd)
	if err != nil {
		t.Fatal(err)
	}
	cosy := s.CosyEngine(kext.ModeDataSeg)
	s.Spawn("calls", func(pr *sys.Proc) error {
		pr.Getpid()
		fd, err := pr.Creat("/trap")
		if err != nil {
			return err
		}
		if err := pr.Close(fd); err != nil {
			return err
		}

		h, err := pr.RingSetup(8, 4096)
		if err != nil {
			return err
		}
		path := []byte("/ring")
		v, err := h.View(0, len(path))
		if err != nil {
			return err
		}
		if err := v.CopyOut(0, path); err != nil {
			return err
		}
		for _, e := range []kring.SQE{
			{Op: uint16(sys.NrCreat), DataOff: 0, DataLen: uint32(len(path))},
			{Op: uint16(sys.NrClose), Flags: kring.FlagFDRel, Args: [4]int64{1}},
			{Op: uint16(sys.NrStat), Args: [4]int64{128}, DataOff: 0, DataLen: uint32(len(path))},
		} {
			if err := h.Push(&e); err != nil {
				return err
			}
		}
		if n, err := h.Enter(); err != nil || n != 3 {
			return fmt.Errorf("ring_enter completed %d entries: %v", n, err)
		}

		if _, err := cosy.ExecRing(pr, compound); err != nil {
			return err
		}

		id, err := pr.KuLoad(sys.KuSpec{Source: "int twice(int x) { return 2 * x; }", Entry: "twice", Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}
		if v, err := pr.KuCall(id, 21); err != nil || v != 42 {
			return fmt.Errorf("ku_call = %d, %v; want 42", v, err)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Three entries and the compound's own ring entry, over two
	// ring_enter crossings.
	if s.K.RingOps != 3+1 || s.K.Calls[sys.NrRingEnter] != 2 || s.K.Calls[sys.NrKuCall] != 1 {
		t.Fatalf("a path went unexercised: ring ops %d, ring_enter %d, ku_call %d",
			s.K.RingOps, s.K.Calls[sys.NrRingEnter], s.K.Calls[sys.NrKuCall])
	}

	var sum int64
	for _, c := range s.K.Calls {
		sum += c
	}
	if s.K.CallsTotal != sum {
		t.Errorf("CallsTotal = %d, sum of Calls = %d", s.K.CallsTotal, sum)
	}
	sn := s.Perf.Snapshot()
	var gauges int64
	for nr := 0; nr < sys.Count(); nr++ {
		gauges += sn.Gauges["sys.calls."+sys.Nr(nr).String()]
	}
	if total := sn.Gauges["sys.calls.total"]; total != gauges || total != sum {
		t.Errorf("sys.calls.total gauge = %d, sum of sys.calls.<name> gauges = %d, of Calls = %d", total, gauges, sum)
	}
}

// countingObserver counts syscall exits delivered through the
// machine's observer seam.
type countingObserver struct {
	kperf.NopObserver
	calls int
}

func (o *countingObserver) SyscallExit(pid int, nr uint16, in, out int) { o.calls++ }

// TestHookFanOut checks that several observers attach to the observer
// seam at once, alongside the syscall recorder, and each sees every
// completed call.
func TestHookFanOut(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := s.EnableTrace()
	h1, h2 := &countingObserver{}, &countingObserver{}
	s.M.Observe(h1)
	s.M.Observe(h2)
	s.Spawn("calls", func(pr *sys.Proc) error {
		for i := 0; i < 5; i++ {
			pr.Getpid()
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if h1.calls == 0 || h1.calls != h2.calls {
		t.Errorf("fan-out uneven: h1=%d h2=%d", h1.calls, h2.calls)
	}
	if int64(h1.calls) != rec.TotalCalls() {
		t.Errorf("observer saw %d calls, recorder saw %d", h1.calls, rec.TotalCalls())
	}
}

// TestChromeTraceFromSystem checks the exporter produces valid JSON
// with the process names the machine assigned.
func TestChromeTraceFromSystem(t *testing.T) {
	s := runInstrumented(t)
	var buf bytes.Buffer
	if err := s.Perf.WriteChromeTrace(&buf, kperf.TraceFilter{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	if !strings.Contains(buf.String(), `"work-1"`) {
		t.Error("process name missing from trace metadata")
	}
}
