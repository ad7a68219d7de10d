// Tests live in an external package so they can boot full systems
// through core, which itself imports kprobe.
package kprobe_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kprobe"
	"repro/internal/sim"
	"repro/internal/sys"
)

func boot(t *testing.T, opts core.Options) *core.System {
	t.Helper()
	s, err := core.New(opts)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return s
}

// aggSrc is the canonical latency-aggregation probe: a per-(pid,
// syscall) cycle histogram plus a per-(pid, syscall) call counter.
const aggSrc = `
int probe() {
	int k;
	k = ctx_pid() * 256 + ctx_nr();
	map_hist(0, k, ctx_cycles());
	map_add(1, k, 1);
	return 0;
}
`

var aggMaps = []kprobe.MapSpec{
	{Name: "lat", Kind: kprobe.MapHist},
	{Name: "calls", Kind: kprobe.MapHash},
}

// TestVerifierRejections is the acceptance checklist: an unbounded
// loop, an out-of-bounds map id, an out-of-range memory access, a
// pointer escape, and a call outside the helper ABI each fail to
// attach with a diagnostic naming the violation.
func TestVerifierRejections(t *testing.T) {
	cases := []struct {
		name string
		src  string
		maps []kprobe.MapSpec
		want string
	}{
		{
			name: "unbounded loop",
			src: `int probe() {
				int i; i = 0;
				while (i < 3) { i = i + 1; }
				return i;
			}`,
			want: "unbounded loop",
		},
		{
			name: "out-of-bounds map id",
			src:  `int probe() { map_add(4, 1, 1); return 0; }`,
			maps: []kprobe.MapSpec{{Name: "only", Kind: kprobe.MapHash}},
			want: "out-of-bounds map id 4",
		},
		{
			name: "out-of-range memory access",
			src: `int probe() {
				int a[2];
				a[5] = 1;
				return 0;
			}`,
			want: "out-of-range memory access",
		},
		{
			name: "pointer escape into helper",
			src: `int probe() {
				int x; x = 7;
				map_add(0, &x, 1);
				return 0;
			}`,
			maps: []kprobe.MapSpec{{Name: "m", Kind: kprobe.MapHash}},
			want: "pointer escape",
		},
		{
			name: "pointer escape via return",
			src: `int probe() {
				int x; x = 7;
				return &x;
			}`,
			want: "pointer escape",
		},
		{
			name: "call outside helper ABI",
			src: `int helper2() { return 1; }
			int probe() { return helper2(); }`,
			want: "outside the helper ABI",
		},
		{
			name: "map kind mismatch",
			src:  `int probe() { map_hist(0, 1, 2); return 0; }`,
			maps: []kprobe.MapSpec{{Name: "m", Kind: kprobe.MapHash}},
			want: "hist map",
		},
		{
			name: "entry with parameters",
			src:  `int probe(int x) { return x; }`,
			want: "no parameters",
		},
		{
			name: "non-constant map id",
			src: `int probe() {
				map_add(ctx_arg(), 1, 1);
				return 0;
			}`,
			maps: []kprobe.MapSpec{{Name: "m", Kind: kprobe.MapHash}},
			want: "compile-time constant",
		},
	}
	s := boot(t, core.Options{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id, _, err := s.Probes.Attach(kprobe.Spec{
				Tracepoint: kprobe.TpSyscallExit,
				Source:     tc.src,
				Maps:       tc.maps,
			})
			if err == nil {
				s.Probes.Detach(id)
				t.Fatalf("program attached (id %d); want rejection containing %q", id, tc.want)
			}
			var ve *kprobe.VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("got %T (%v); want *kprobe.VerifyError", err, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostic %q does not mention %q", err, tc.want)
			}
			if s.Probes.AttachedAt(kprobe.TpSyscallExit) {
				t.Fatal("rejected program left attached state behind")
			}
		})
	}
}

// TestVerifierAccepts checks that straight-line programs using the
// full helper ABI and in-bounds locals attach and fire cleanly.
func TestVerifierAccepts(t *testing.T) {
	s := boot(t, core.Options{})
	src := `
	int probe() {
		int a[4];
		int k;
		a[0] = ctx_pid();
		a[1] = ctx_nr();
		a[2] = ctx_arg();
		a[3] = ctx_cycles() + now() * 0;
		k = a[0] * 256 + a[1];
		if (a[2] > 0) {
			map_add(1, k, a[2]);
		}
		map_hist(0, k, a[3]);
		return 0;
	}`
	id, cost, err := s.Probes.Attach(kprobe.Spec{
		Tracepoint: kprobe.TpSyscallExit,
		Source:     src,
		Maps:       aggMaps,
	})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if cost <= 0 {
		t.Fatalf("attach cost %d; verification must cost cycles", cost)
	}
	if !s.Probes.AttachedAt(kprobe.TpSyscallExit) {
		t.Fatal("program not attached")
	}
	// Its frame accesses carry FullChecks instrumentation, and a fire
	// must pass every check.
	s.Probes.SyscallExit(1, 0, 0, 5, 100)
	if pg, _ := s.Probes.Prog(id); pg.Calls != 1 || pg.Err != nil {
		t.Fatalf("fired %d, err %v; want one clean fire", pg.Calls, pg.Err)
	}
	if err := s.Probes.Detach(id); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if s.Probes.AttachedAt(kprobe.TpSyscallExit) {
		t.Fatal("program still attached after detach")
	}
}

// TestDispatchZeroWhenEmpty pins the zero-cost invariant at the unit
// level: with nothing attached, every tracepoint dispatch returns
// exactly zero cycles — including after an attach/detach cycle.
func TestDispatchZeroWhenEmpty(t *testing.T) {
	m := kernel.New(kernel.Config{})
	mgr := kprobe.NewManager(m)
	if c := mgr.SyscallEnter(1, 0, 0); c != 0 {
		t.Fatalf("empty syscall_enter cost %d; want 0", c)
	}
	if c := mgr.SyscallExit(1, 0, 0, 0, 100); c != 0 {
		t.Fatalf("empty syscall_exit cost %d; want 0", c)
	}
	id, _, err := mgr.Attach(kprobe.Spec{Tracepoint: kprobe.TpSyscallExit, Source: aggSrc, Maps: aggMaps})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if c := mgr.SyscallExit(1, 2, 0, 0, 100); c <= 0 {
		t.Fatalf("attached syscall_exit cost %d; want > 0", c)
	}
	if err := mgr.Detach(id); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if c := mgr.SyscallExit(1, 2, 0, 0, 100); c != 0 {
		t.Fatalf("post-detach syscall_exit cost %d; want 0", c)
	}
}

// runAgg boots a system, attaches the aggregation probe at
// syscall_exit, runs n getpid calls, and reads the maps back through
// probe_read. It returns the raw snapshot bytes, the decoded maps, the
// process pid, and the machine's elapsed cycles.
func runAgg(t *testing.T, n int) ([]byte, []kprobe.MapSnapshot, int, sim.Cycles) {
	t.Helper()
	s := boot(t, core.Options{})
	var raw []byte
	var pid int
	p := s.Spawn("ctl", func(pr *sys.Proc) error {
		pid = pr.P.PID
		id, err := pr.ProbeAttach(kprobe.Spec{
			Tracepoint: kprobe.TpSyscallExit,
			Source:     aggSrc,
			Maps:       aggMaps,
		})
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			pr.Getpid()
		}
		buf, err := pr.Mmap(1 << 16)
		if err != nil {
			return err
		}
		nb, err := pr.ProbeRead(id, buf)
		if err != nil {
			return err
		}
		raw, err = pr.Peek(buf, nb)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if p.Err() != nil {
		t.Fatalf("process: %v", p.Err())
	}
	snaps, err := kprobe.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return raw, snaps, pid, s.M.Elapsed()
}

// TestAggregationEndToEnd drives real syscalls through the
// syscall_exit tracepoint and checks the in-kernel maps aggregate
// exactly: the counter map counts every getpid, and the histogram's
// per-key count/sum agree with the counter.
func TestAggregationEndToEnd(t *testing.T) {
	const n = 25
	_, snaps, pid, _ := runAgg(t, n)
	if len(snaps) != 2 {
		t.Fatalf("got %d maps; want 2", len(snaps))
	}
	hist, calls := snaps[0], snaps[1]
	if hist.Name != "lat" || hist.Kind != kprobe.MapHist {
		t.Fatalf("map 0 = %q kind %v; want lat/hist", hist.Name, hist.Kind)
	}
	if calls.Name != "calls" || calls.Kind != kprobe.MapHash {
		t.Fatalf("map 1 = %q kind %v; want calls/hash", calls.Name, calls.Kind)
	}

	keyGetpid := uint64(pid)*256 + uint64(sys.NrGetpid)
	keyAttach := uint64(pid)*256 + uint64(sys.NrProbeAttach)
	if got := calls.Hash[keyGetpid]; got != n {
		t.Fatalf("getpid count = %d; want %d (hash: %v)", got, n, calls.Hash)
	}
	// The attach syscall's own exit fires the freshly attached probe
	// exactly once; probe_read serializes before its own exit, so it
	// never sees itself.
	if got := calls.Hash[keyAttach]; got != 1 {
		t.Fatalf("probe_attach count = %d; want 1 (hash: %v)", got, calls.Hash)
	}
	keyRead := uint64(pid)*256 + uint64(sys.NrProbeRead)
	if got, ok := calls.Hash[keyRead]; ok {
		t.Fatalf("probe_read observed itself (%d); snapshot must precede exit", got)
	}

	e, ok := hist.Hist[keyGetpid]
	if !ok {
		t.Fatalf("no histogram entry for getpid key %d", keyGetpid)
	}
	if e.Count != n {
		t.Fatalf("hist count = %d; want %d", e.Count, n)
	}
	if e.Min <= 0 || e.Max < e.Min || e.Sum < e.Min*n {
		t.Fatalf("degenerate latency stats: min %d max %d sum %d", e.Min, e.Max, e.Sum)
	}
	var bucketTotal int64
	for _, c := range e.Buckets {
		bucketTotal += c
	}
	if bucketTotal != e.Count {
		t.Fatalf("bucket counts sum to %d; want %d", bucketTotal, e.Count)
	}
	if q := e.Quantile(0.99); q < e.Min {
		t.Fatalf("P99 %d below min %d", q, e.Min)
	}
}

// TestProbeDeterminism runs the identical probed workload twice in
// fresh systems: elapsed cycles and the probe_read byte stream must be
// bit-identical.
func TestProbeDeterminism(t *testing.T) {
	raw1, _, _, el1 := runAgg(t, 40)
	raw2, _, _, el2 := runAgg(t, 40)
	if el1 != el2 {
		t.Fatalf("elapsed differs across identical probed runs: %d vs %d", el1, el2)
	}
	if string(raw1) != string(raw2) {
		t.Fatalf("probe_read bytes differ across identical runs (%d vs %d bytes)", len(raw1), len(raw2))
	}
}

// TestAttachCacheHitSkipsVerification pins "verify once, attach
// everywhere": re-attaching byte-identical program content — at the
// same tracepoint or at a different one — hits the content-hash module
// cache and skips the per-instruction verification charge, while a
// different program misses.
func TestAttachCacheHitSkipsVerification(t *testing.T) {
	s := boot(t, core.Options{})
	spec := kprobe.Spec{Tracepoint: kprobe.TpSyscallExit, Source: aggSrc, Maps: aggMaps}
	_, cost1, err := s.Probes.Attach(spec)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if s.Probes.CacheHits != 0 {
		t.Fatalf("first attach hit the cache")
	}
	_, cost2, err := s.Probes.Attach(spec)
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if s.Probes.CacheHits != 1 {
		t.Fatalf("identical re-attach missed the cache (hits = %d)", s.Probes.CacheHits)
	}
	if cost2 >= cost1 {
		t.Fatalf("cache-hit attach cost %d not below miss cost %d", cost2, cost1)
	}
	// The cache key excludes the tracepoint: the same program at
	// another site is still a hit.
	other := spec
	other.Tracepoint = kprobe.TpSyscallEnter
	if _, cost3, err := s.Probes.Attach(other); err != nil {
		t.Fatalf("attach at second tracepoint: %v", err)
	} else if s.Probes.CacheHits != 2 || cost3 >= cost1 {
		t.Fatalf("cross-tracepoint attach: hits = %d, cost %d (miss cost %d)",
			s.Probes.CacheHits, cost3, cost1)
	}
	// Different program content misses.
	diff := spec
	diff.Source = strings.Replace(aggSrc, "* 256", "* 512", 1)
	if _, _, err := s.Probes.Attach(diff); err != nil {
		t.Fatalf("attach different program: %v", err)
	}
	if s.Probes.CacheHits != 2 {
		t.Fatalf("different program content hit the cache")
	}
}

// TestDetachRestoresZeroCost measures the same getpid batch before an
// attach and after the matching detach from inside one process: the
// two deltas must be exactly equal, i.e. a detached tracepoint costs
// zero again.
func TestDetachRestoresZeroCost(t *testing.T) {
	const n = 50
	s := boot(t, core.Options{})
	var before, during, after sim.Cycles
	p := s.Spawn("ctl", func(pr *sys.Proc) error {
		batch := func() sim.Cycles {
			t0 := pr.K.M.Clock.Now()
			for i := 0; i < n; i++ {
				pr.Getpid()
			}
			return pr.K.M.Clock.Now() - t0
		}
		before = batch()
		id, err := pr.ProbeAttach(kprobe.Spec{
			Tracepoint: kprobe.TpSyscallExit,
			Source:     aggSrc,
			Maps:       aggMaps,
		})
		if err != nil {
			return err
		}
		during = batch()
		if err := pr.ProbeDetach(id); err != nil {
			return err
		}
		after = batch()
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if p.Err() != nil {
		t.Fatalf("process: %v", p.Err())
	}
	if during <= before {
		t.Fatalf("probed batch (%d cycles) not more expensive than bare batch (%d)", during, before)
	}
	if after != before {
		t.Fatalf("post-detach batch costs %d cycles vs %d before attach; detached probes must cost zero", after, before)
	}
}

// TestProbeDetachCountsAsItself: a detach is its own system call, so
// one attach and one detach count once each.
func TestProbeDetachCountsAsItself(t *testing.T) {
	s := boot(t, core.Options{})
	p := s.Spawn("ctl", func(pr *sys.Proc) error {
		id, err := pr.ProbeAttach(kprobe.Spec{
			Tracepoint: kprobe.TpSyscallExit,
			Source:     aggSrc,
			Maps:       aggMaps,
		})
		if err != nil {
			return err
		}
		return pr.ProbeDetach(id)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if p.Err() != nil {
		t.Fatalf("process: %v", p.Err())
	}
	if a, d := s.K.Calls[sys.NrProbeAttach], s.K.Calls[sys.NrProbeDetach]; a != 1 || d != 1 {
		t.Fatalf("probe_attach counted %d times and probe_detach %d; want 1 and 1", a, d)
	}
}

// TestProbeAttribution checks the kperf side: probe execution shows up
// as a nonzero "probe" subsystem row and the attribution identity
// (cells + setup + idle == elapsed) still holds with probes attached.
func TestProbeAttribution(t *testing.T) {
	perf := core.NewPerf(0)
	s := boot(t, core.Options{Perf: perf})
	p := s.Spawn("ctl", func(pr *sys.Proc) error {
		id, err := pr.ProbeAttach(kprobe.Spec{
			Tracepoint: kprobe.TpSyscallExit,
			Source:     aggSrc,
			Maps:       aggMaps,
		})
		if err != nil {
			return err
		}
		for i := 0; i < 30; i++ {
			pr.Getpid()
		}
		return pr.ProbeDetach(id)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if p.Err() != nil {
		t.Fatalf("process: %v", p.Err())
	}
	sn := perf.Snapshot()
	if got := sn.SubsystemCycles["probe"]; got <= 0 {
		t.Fatalf("probe subsystem cycles = %d; want > 0 (have %v)", got, sn.SubsystemCycles)
	}
	if err := sn.CheckTotal(s.M.Elapsed()); err != nil {
		t.Fatalf("attribution identity broken with probes attached: %v", err)
	}
	if g := sn.Gauges["kprobe.fired"]; g <= 0 {
		t.Fatalf("kprobe.fired gauge = %d; want > 0", g)
	}
}

// TestRuntimeErrorKillsProbe exercises the defense-in-depth layer: a
// program the verifier cannot fault statically but that dies at
// runtime (division by a context value that is zero) is marked dead
// after its first dispatch and never fires again, without killing the
// triggering process.
func TestRuntimeErrorKillsProbe(t *testing.T) {
	s := boot(t, core.Options{})
	// ctx_arg() is the copyout byte count, 0 for getpid.
	src := `int probe() { return 10 / ctx_arg(); }`
	var fired int64
	var perr error
	p := s.Spawn("ctl", func(pr *sys.Proc) error {
		id, err := pr.ProbeAttach(kprobe.Spec{Tracepoint: kprobe.TpSyscallExit, Source: src})
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			pr.Getpid()
		}
		pg, ok := s.Probes.Prog(id)
		if !ok {
			t.Error("program vanished")
			return nil
		}
		fired, perr = pg.Calls, pg.Err
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if p.Err() != nil {
		t.Fatalf("triggering process died: %v", p.Err())
	}
	if perr == nil {
		t.Fatal("runtime error not recorded on program")
	}
	if fired != 1 {
		t.Fatalf("dead program fired %d times; want exactly 1", fired)
	}
}

// TestSnapshotRoundTrip feeds DecodeSnapshot corrupted inputs.
func TestSnapshotDecodeErrors(t *testing.T) {
	raw, _, _, _ := runAgg(t, 5)
	if _, err := kprobe.DecodeSnapshot(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated snapshot decoded")
	}
	if _, err := kprobe.DecodeSnapshot(append(append([]byte{}, raw...), 0)); err == nil {
		t.Fatal("snapshot with trailing bytes decoded")
	}
	if _, err := kprobe.DecodeSnapshot([]byte{1, 9, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown map kind decoded")
	}
}

// TestAttachEntryNotSkippedByCache pins the cache-key contract: the
// entry name is part of the key, so attaching the same source under a
// different entry re-verifies (and here fails) instead of hitting the
// cache and dying at first fire.
func TestAttachEntryNotSkippedByCache(t *testing.T) {
	s := boot(t, core.Options{})
	spec := kprobe.Spec{Tracepoint: kprobe.TpSyscallExit, Source: aggSrc, Maps: aggMaps}
	if _, _, err := s.Probes.Attach(spec); err != nil {
		t.Fatalf("attach: %v", err)
	}
	bad := spec
	bad.Entry = "nosuch"
	if _, _, err := s.Probes.Attach(bad); err == nil {
		t.Fatal("same source with a bogus entry attached via cache hit")
	} else if !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("rejection %q does not name the missing entry", err)
	}
	if s.Probes.CacheHits != 0 {
		t.Fatalf("bogus entry hit the cache (hits = %d)", s.Probes.CacheHits)
	}
}

// TestProbeForeignReadDetach pins per-process probe ids: probe_read
// and probe_detach of another process's probe fail as for an id never
// issued, and the owner still reads its maps afterwards.
func TestProbeForeignReadDetach(t *testing.T) {
	s := boot(t, core.Options{})
	var id int
	var bDone bool
	a := s.Spawn("a", func(pr *sys.Proc) error {
		var err error
		if id, err = pr.ProbeAttach(kprobe.Spec{Tracepoint: kprobe.TpSyscallExit, Source: aggSrc, Maps: aggMaps}); err != nil {
			return err
		}
		for !bDone {
			pr.P.BlockFor(s.M.Costs.TimeSlice)
		}
		buf, err := pr.Mmap(1 << 16)
		if err != nil {
			return err
		}
		if _, err := pr.ProbeRead(id, buf); err != nil {
			t.Errorf("owner's probe_read after foreign calls: %v", err)
		}
		return nil
	})
	b := s.Spawn("b", func(pr *sys.Proc) error {
		defer func() { bDone = true }()
		for id == 0 {
			pr.P.BlockFor(s.M.Costs.TimeSlice)
		}
		buf, err := pr.Mmap(1 << 16)
		if err != nil {
			return err
		}
		if _, err := pr.ProbeRead(id, buf); err == nil || !strings.Contains(err.Error(), "no program") {
			t.Errorf("foreign probe_read: err = %v; want \"no program\"", err)
		}
		if err := pr.ProbeDetach(id); err == nil || !strings.Contains(err.Error(), "no program") {
			t.Errorf("foreign probe_detach: err = %v; want \"no program\"", err)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []*kernel.Process{a, b} {
		if p.Err() != nil {
			t.Fatalf("process %s: %v", p.Name, p.Err())
		}
	}
}

// TestRejectedAttachChargesVerification: a rejected probe_attach pays
// for the verification it got, as a rejected ku_load does — the
// verifier analyzed the looping program before it refused it.
func TestRejectedAttachChargesVerification(t *testing.T) {
	s := boot(t, core.Options{})
	spec := kprobe.Spec{Tracepoint: kprobe.TpSyscallExit, Source: `int probe() {
		int i; i = 0;
		while (i < 3) { i = i + 1; }
		return i;
	}`}
	_, cost, err := s.Probes.Attach(spec)
	var ve *kprobe.VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("looping probe: err = %v; want a *kprobe.VerifyError", err)
	}
	if verify := s.M.Costs.ProbeVerifyInstr; cost <= 0 || cost%verify != 0 {
		t.Fatalf("rejected attach cost %d; want a positive multiple of ProbeVerifyInstr (%d)", cost, verify)
	}
	var sysDelta sim.Cycles
	p := s.Spawn("ctl", func(pr *sys.Proc) error {
		_, s0, _ := pr.P.Times()
		if _, err := pr.ProbeAttach(spec); err == nil {
			t.Error("looping probe attached")
		}
		_, s1, _ := pr.P.Times()
		sysDelta = s1 - s0
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if p.Err() != nil {
		t.Fatalf("process: %v", p.Err())
	}
	if sysDelta <= cost {
		t.Fatalf("sys time across the rejected probe_attach %d does not cover its verification %d", sysDelta, cost)
	}
}

// TestProbeAttachCopiesBytesIn: probe_attach's copyin counts the
// program source it carries across the boundary.
func TestProbeAttachCopiesBytesIn(t *testing.T) {
	s := boot(t, core.Options{})
	p := s.Spawn("ctl", func(pr *sys.Proc) error {
		before := s.K.BytesIn
		if _, err := pr.ProbeAttach(kprobe.Spec{Tracepoint: kprobe.TpSyscallExit, Source: aggSrc, Maps: aggMaps}); err != nil {
			return err
		}
		if got := s.K.BytesIn - before; got < int64(len(aggSrc)) {
			t.Errorf("probe_attach of %d bytes of source copied in %d bytes", len(aggSrc), got)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if p.Err() != nil {
		t.Fatalf("process: %v", p.Err())
	}
}
