package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kperf"
	"repro/internal/sim"
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

// TestKlogEntriesCarrySpanIDs checks satellite 3's correlation: a
// syslog line emitted inside a syscall is stamped with that syscall's
// kperf trace-span id, and one emitted outside any syscall is not.
func TestKlogEntriesCarrySpanIDs(t *testing.T) {
	s, err := New(Options{Perf: NewPerf(0)})
	if err != nil {
		t.Fatal(err)
	}
	// An exit tap runs in kernel context before the return to user
	// space, while the getpid span is still open.
	s.K.AddExitTap(func(p *kernel.Process, nr sys.Nr, in, out int, dur sim.Cycles) {
		if nr == sys.NrGetpid {
			s.M.Log.Printf(2, "inside syscall")
		}
	})
	s.Spawn("logger", func(pr *sys.Proc) error {
		pr.Getpid()
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.M.Log.Printf(2, "outside syscall")

	entries := s.M.Log.Entries()
	var inside, outside uint64
	var foundIn, foundOut bool
	for _, e := range entries {
		switch e.Msg {
		case "inside syscall":
			inside, foundIn = e.Span, true
		case "outside syscall":
			outside, foundOut = e.Span, true
		}
	}
	if !foundIn || !foundOut {
		t.Fatalf("log entries missing: inside=%v outside=%v", foundIn, foundOut)
	}
	if inside == 0 {
		t.Error("entry emitted inside a syscall has no span id")
	}
	if outside != 0 {
		t.Errorf("entry emitted outside any syscall has span id %d, want 0", outside)
	}

	// The span id must correspond to a syscall span the tracer kept.
	found := false
	for _, shard := range s.Perf.Trace.Shards() {
		if uint64(shard.Records()) >= inside && inside > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("span id %d does not fall within any shard's recorded spans", inside)
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
