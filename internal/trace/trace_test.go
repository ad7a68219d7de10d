package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/sysgraph"
	"repro/internal/vfs"
	"repro/internal/vfs/memfs"
)

func feed(r *Recorder, clock *sim.Clock, pid int, nr sys.Nr, in, out int) {
	clock.Advance(1000)
	r.SyscallExit(pid, uint16(nr), in, out)
}

// TestRecorderObservesSyscalls attaches the recorder to a machine's
// observer seam: a creat/close/stat program is recorded in that order,
// and the only bytes copied out are stat's.
func TestRecorderObservesSyscalls(t *testing.T) {
	m := kernel.New(kernel.Config{})
	k := sys.NewKernel(m, vfs.NewNamespace(memfs.New("root", vfs.NewIOModel(disk.New(disk.IDE7200()), 1<<10))))
	r := NewRecorder(&m.Clock)
	m.Observe(r)
	m.Spawn("p", func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		fd, err := pr.Creat("/f")
		if err != nil {
			return err
		}
		if err := pr.Close(fd); err != nil {
			return err
		}
		_, err = pr.Stat("/f")
		return err
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var got []sys.Nr
	out := 0
	for _, e := range r.Events {
		got = append(got, e.Nr)
		out += e.Out
	}
	if want := []sys.Nr{sys.NrCreat, sys.NrClose, sys.NrStat}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recorded %v, want %v", got, want)
	}
	if out != vfs.StatSize {
		t.Fatalf("recorded %d bytes out, want %d", out, vfs.StatSize)
	}
}

func TestRecorderCounters(t *testing.T) {
	var clock sim.Clock
	r := NewRecorder(&clock)
	feed(r, &clock, 1, sys.NrOpen, 10, 0)
	feed(r, &clock, 1, sys.NrRead, 0, 4096)
	feed(r, &clock, 1, sys.NrClose, 0, 0)
	if r.TotalCalls() != 3 {
		t.Fatalf("calls = %d", r.TotalCalls())
	}
	if r.TotalBytes() != 4106 {
		t.Fatalf("bytes = %d", r.TotalBytes())
	}
	if r.Calls(sys.NrRead) != 1 {
		t.Fatalf("read calls = %d", r.Calls(sys.NrRead))
	}
	if r.Duration() != 2000 {
		t.Fatalf("duration = %d", r.Duration())
	}
	if len(r.Events) != 3 {
		t.Fatalf("events = %d", len(r.Events))
	}
}

func TestGraphBuiltFromTrace(t *testing.T) {
	var clock sim.Clock
	r := NewRecorder(&clock)
	for i := 0; i < 50; i++ {
		feed(r, &clock, 1, sys.NrOpen, 10, 0)
		feed(r, &clock, 1, sys.NrRead, 0, 100)
		feed(r, &clock, 1, sys.NrClose, 0, 0)
	}
	paths := r.TopPatterns(25, 3)
	found := false
	for _, p := range paths {
		if r.Graph.Name(p) == "open-read-close" {
			found = true
		}
	}
	if !found {
		t.Fatalf("open-read-close not mined from trace")
	}
}

func TestEstimateReaddirplus(t *testing.T) {
	var clock sim.Clock
	r := NewRecorder(&clock)
	costs := sim.DefaultCosts()
	const dirs, filesPer = 20, 30
	pathLen := 25
	for d := 0; d < dirs; d++ {
		feed(r, &clock, 1, sys.NrGetdents, 0, filesPer*40)
		for f := 0; f < filesPer; f++ {
			feed(r, &clock, 1, sys.NrStat, pathLen, 96)
		}
	}
	s := EstimateReaddirplus(r, costs)
	wantBefore := int64(dirs * (filesPer + 1))
	if s.CallsBefore != wantBefore {
		t.Fatalf("calls before = %d, want %d", s.CallsBefore, wantBefore)
	}
	if s.CallsAfter != int64(dirs) {
		t.Fatalf("calls after = %d, want %d", s.CallsAfter, dirs)
	}
	wantBytesSaved := int64(dirs * filesPer * (pathLen + 96))
	if s.BytesBefore-s.BytesAfter != wantBytesSaved {
		t.Fatalf("bytes saved = %d, want %d", s.BytesBefore-s.BytesAfter, wantBytesSaved)
	}
	if s.CyclesSaved <= 0 || s.SecondsPerHour <= 0 {
		t.Fatalf("savings = %+v", s)
	}
}

func TestEstimateReaddirplusRunBreaks(t *testing.T) {
	var clock sim.Clock
	r := NewRecorder(&clock)
	costs := sim.DefaultCosts()
	// stats not preceded by getdents must not collapse.
	for i := 0; i < 10; i++ {
		feed(r, &clock, 1, sys.NrStat, 20, 96)
	}
	s := EstimateReaddirplus(r, costs)
	if s.CallsBefore != s.CallsAfter {
		t.Fatalf("free-standing stats collapsed: %+v", s)
	}
	// An intervening call breaks the run.
	r2 := NewRecorder(&clock)
	feed(r2, &clock, 1, sys.NrGetdents, 0, 100)
	feed(r2, &clock, 1, sys.NrStat, 20, 96)
	feed(r2, &clock, 1, sys.NrOpen, 20, 0)
	feed(r2, &clock, 1, sys.NrStat, 20, 96)
	s2 := EstimateReaddirplus(r2, costs)
	if s2.CallsBefore-s2.CallsAfter != 1 {
		t.Fatalf("saved calls = %d, want 1", s2.CallsBefore-s2.CallsAfter)
	}
}

func TestEstimateReaddirplusPerPID(t *testing.T) {
	var clock sim.Clock
	r := NewRecorder(&clock)
	costs := sim.DefaultCosts()
	// PID 2's stat interleaved with PID 1's run must still count for
	// PID 1 and not for PID 2.
	feed(r, &clock, 1, sys.NrGetdents, 0, 100)
	feed(r, &clock, 2, sys.NrStat, 20, 96)
	feed(r, &clock, 1, sys.NrStat, 20, 96)
	s := EstimateReaddirplus(r, costs)
	if s.CallsBefore-s.CallsAfter != 1 {
		t.Fatalf("saved = %d, want 1", s.CallsBefore-s.CallsAfter)
	}
}

func TestEstimateOpenReadClose(t *testing.T) {
	var clock sim.Clock
	r := NewRecorder(&clock)
	costs := sim.DefaultCosts()
	for i := 0; i < 10; i++ {
		feed(r, &clock, 1, sys.NrOpen, 20, 0)
		feed(r, &clock, 1, sys.NrRead, 0, 4096)
		feed(r, &clock, 1, sys.NrClose, 0, 0)
	}
	s := EstimateOpenReadClose(r, costs)
	if s.CallsBefore != 30 || s.CallsAfter != 10 {
		t.Fatalf("calls %d -> %d", s.CallsBefore, s.CallsAfter)
	}
	if s.CyclesSaved != sim.Cycles(20)*(costs.Trap+costs.UserDispatch) {
		t.Fatalf("cycles = %d", s.CyclesSaved)
	}
}

func TestSavingsString(t *testing.T) {
	s := Savings{CallsBefore: 171975, CallsAfter: 17251, BytesBefore: 51807520, BytesAfter: 32250041, SecondsPerHour: 28.15}
	str := s.String()
	for _, want := range []string{"171975", "17251", "28.15"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}

func TestMultiPIDGraphIsolation(t *testing.T) {
	var clock sim.Clock
	r := NewRecorder(&clock)
	for pid := 1; pid <= 4; pid++ {
		feed(r, &clock, pid, sys.NrOpen, 5, 0)
		feed(r, &clock, pid, sys.NrRead, 0, 10)
	}
	got := r.Graph.Weight(sysgraph.Node(sys.NrOpen), sysgraph.Node(sys.NrRead))
	if got != 4 {
		t.Fatalf("open->read = %d, want 4", got)
	}
}
