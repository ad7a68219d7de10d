package ktrace_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kgcc"
	"repro/internal/klog"
	"repro/internal/ktrace"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/workload"
)

func newTraced(t *testing.T, opts core.Options) *core.System {
	t.Helper()
	opts.Perf = core.NewPerf(0)
	opts.Trace = &ktrace.Config{}
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRequestDecompositionIdentity is the tracer's acceptance test:
// under real contention — two processes fighting for the CPU and for a
// buffer cache small enough to force disk waits — every closed
// request's wall cycles must partition exactly into
// user/kernel/copy/ready/disk/sleep, and the contention must actually
// show up as nonzero ready and disk segments (otherwise the identity
// is vacuously true).
func TestRequestDecompositionIdentity(t *testing.T) {
	// 8 cache blocks: the two workers' files evict each other, so
	// reads miss and block on the disk.
	s := newTraced(t, core.Options{CacheBlocks: 8})

	worker := func(name string) func(pr *sys.Proc) error {
		return func(pr *sys.Proc) error {
			buf, err := pr.Mmap(8 << 10)
			if err != nil {
				return err
			}
			for i := 0; i < 30; i++ {
				pr.BeginOp("ident.req")
				err := func() error {
					path := fmt.Sprintf("/%s-%d", name, i%4)
					fd, err := pr.Creat(path)
					if err != nil {
						return err
					}
					if _, err := pr.Write(fd, sys.UserBuf{Addr: buf.Addr, Len: 8 << 10}); err != nil {
						return err
					}
					if err := pr.Fsync(fd); err != nil {
						return err
					}
					if err := pr.Close(fd); err != nil {
						return err
					}
					fd, err = pr.Open(path, sys.ORdonly)
					if err != nil {
						return err
					}
					if _, err := pr.Read(fd, buf); err != nil {
						return err
					}
					pr.P.ChargeUser(20_000)
					return pr.Close(fd)
				}()
				pr.EndOp()
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	// CPU hogs whose per-request compute exceeds the scheduler quantum:
	// they preempt each other mid-charge, so their requests accrue
	// run-queue (ready) time, and the disk workers contend with them.
	spinner := func(pr *sys.Proc) error {
		for i := 0; i < 8; i++ {
			pr.BeginOp("ident.req")
			pr.P.ChargeUser(2_500_000)
			pr.EndOp()
		}
		return nil
	}
	s.Spawn("wA", worker("wA"))
	s.Spawn("wB", worker("wB"))
	s.Spawn("spin1", spinner)
	s.Spawn("spin2", spinner)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	recs := s.Ktrace.Requests()
	if len(recs) != 76 {
		t.Fatalf("retained %d request records, want 76", len(recs))
	}
	var segTotals [ktrace.NSegs]int64
	for _, rec := range recs {
		var sum int64
		for i, v := range rec.Segs {
			sum += v
			segTotals[i] += v
		}
		if sum != rec.Wall() {
			t.Errorf("req %d op %q: segment sum %d != wall %d (segs %v)",
				rec.ID, rec.Op, sum, rec.Wall(), rec.Segs)
		}
	}
	if segTotals[ktrace.SegReady] == 0 {
		t.Error("no ready (run-queue) cycles despite two competing processes")
	}
	if segTotals[ktrace.SegDisk] == 0 {
		t.Error("no disk-wait cycles despite a thrashing cache")
	}
	if segTotals[ktrace.SegUser] == 0 || segTotals[ktrace.SegKernel] == 0 || segTotals[ktrace.SegCopy] == 0 {
		t.Errorf("expected nonzero user/kernel/copy segments, got %v", segTotals)
	}

	sum := s.Ktrace.Summary()
	if sum.IdentityViolations != 0 {
		t.Errorf("%d identity violations; first: %s", sum.IdentityViolations, sum.FirstViolation)
	}
	if sum.Open != 0 {
		t.Errorf("%d requests left open", sum.Open)
	}
	sli := sum.Op("ident.req")
	if sli == nil {
		t.Fatal("summary has no ident.req SLI")
	}
	if sli.Count != 76 {
		t.Errorf("SLI count = %d, want 76", sli.Count)
	}
	var wallSum int64
	for _, rec := range recs {
		wallSum += rec.Wall()
	}
	if sli.Sum != wallSum {
		t.Errorf("SLI sum %d != sum of request walls %d", sli.Sum, wallSum)
	}
	for i := 0; i < ktrace.NSegs; i++ {
		name := ktrace.Seg(i).String()
		if sli.Segs[name] != segTotals[i] {
			t.Errorf("SLI seg %q = %d, want %d (sum over records)", name, sli.Segs[name], segTotals[i])
		}
	}
	if sli.P50 <= 0 || sli.P99 < sli.P90 || sli.P90 < sli.P50 || sli.Max < sli.P99/2 {
		t.Errorf("implausible quantiles: p50 %d p90 %d p99 %d max %d", sli.P50, sli.P90, sli.P99, sli.Max)
	}
	if sli.TailCount == 0 || sli.TopSeg == "" {
		t.Errorf("no tail decomposition: count %d top %q", sli.TailCount, sli.TopSeg)
	}
}

// TestTraceOnOffBitIdentity: the same workload with and without the
// tracer must finish at the identical simulated cycle — the tracer
// observes, never charges. (benchall asserts the same across the whole
// suite, since ktrace rides the kperf switch.)
func TestTraceOnOffBitIdentity(t *testing.T) {
	run := func(traced bool) sim.Cycles {
		opts := core.Options{Perf: core.NewPerf(0)}
		if traced {
			opts.Trace = &ktrace.Config{}
		}
		s, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.DefaultPostMark()
		cfg.InitialFiles, cfg.Transactions = 50, 200
		s.Spawn("postmark", func(pr *sys.Proc) error {
			_, err := workload.PostMark(pr, cfg)
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if traced {
			if n := s.Ktrace.Summary().Requests; n != 200 {
				t.Fatalf("traced run closed %d requests, want 200; the comparison is vacuous", n)
			}
		}
		return s.M.Elapsed()
	}
	off := run(false)
	on := run(true)
	if off != on {
		t.Errorf("simulated cycles moved under tracing: off %d, on %d (Δ%d)", off, on, on-off)
	}
}

// TestSpanNesting checks the causal span graph: syscalls dispatched
// under a request become its children, a nested BeginOp becomes a
// child op span, a ku_call inside a request nests under it, and a
// ku_call outside any request opens a request of its own.
func TestSpanNesting(t *testing.T) {
	s := newTraced(t, core.Options{})
	const src = `
	int think(int n, int m) {
		return n + m;
	}`
	s.Spawn("nest", func(pr *sys.Proc) error {
		id, err := pr.KuLoad(sys.KuSpec{Source: src, Entry: "think", Checks: kgcc.DefaultOptions()})
		if err != nil {
			return err
		}
		// Standalone ku_call: its own request.
		if _, err := pr.KuCall(id, 1, 2); err != nil {
			return err
		}
		// One explicit request with a syscall, a nested op, and a
		// nested ku_call.
		pr.BeginOp("outer")
		pr.Getpid()
		pr.BeginOp("inner")
		pr.EndOp()
		if _, err := pr.KuCall(id, 3, 4); err != nil {
			return err
		}
		pr.EndOp()
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	sum := s.Ktrace.Summary()
	if ku := sum.Op(sys.OpKuCall); ku == nil || ku.Count != 1 {
		t.Errorf("standalone ku_call: SLI %+v, want one request", ku)
	}
	outer := sum.Op("outer")
	if outer == nil || outer.Count != 1 {
		t.Fatalf("outer: SLI %+v, want one request", outer)
	}

	var reqID uint64
	for _, sp := range s.Ktrace.Spans() {
		if sp.Kind == ktrace.SpanRequest && sp.Op == "outer" {
			reqID = sp.ID
		}
	}
	if reqID == 0 {
		t.Fatal("no request span for outer")
	}
	var sawSyscall, sawInner, sawKu bool
	for _, sp := range s.Ktrace.Spans() {
		if sp.Req != reqID {
			continue
		}
		switch {
		case sp.Kind == ktrace.SpanSyscall && sp.Arg == uint32(sys.NrGetpid):
			sawSyscall = true
			if sp.Parent != reqID {
				t.Errorf("getpid span parent = %d, want request %d", sp.Parent, reqID)
			}
		case sp.Kind == ktrace.SpanOp && sp.Op == "inner":
			sawInner = true
			if sp.Parent != reqID {
				t.Errorf("inner span parent = %d, want request %d", sp.Parent, reqID)
			}
		case sp.Kind == ktrace.SpanOp && sp.Op == sys.OpKuCall:
			sawKu = true
			if sp.Parent != reqID {
				t.Errorf("ku_call span parent = %d, want request %d", sp.Parent, reqID)
			}
		}
	}
	if !sawSyscall || !sawInner || !sawKu {
		t.Errorf("missing child spans under request: syscall %v, inner op %v, ku_call %v",
			sawSyscall, sawInner, sawKu)
	}

	// Flow-span export: the request originates its flow, children join.
	flows := s.Ktrace.FlowSpans(reqID)
	starts := 0
	for _, f := range flows {
		if f.Flow != reqID {
			t.Errorf("flow span %q carries flow %d, want %d", f.Name, f.Flow, reqID)
		}
		if f.FlowStart {
			starts++
		}
	}
	if starts != 1 {
		t.Errorf("%d flow-start spans for request %d, want exactly 1", starts, reqID)
	}
}

// TestKlogRequestStamping: log lines written while a request is open
// carry its trace id, so kprof can filter the kernel log by request.
func TestKlogRequestStamping(t *testing.T) {
	s := newTraced(t, core.Options{})
	s.Spawn("logger", func(pr *sys.Proc) error {
		s.M.Log.Printf(klog.Info, "outside any request")
		pr.BeginOp("logged.req")
		pr.Getpid()
		s.M.Log.Printf(klog.Info, "inside the request")
		pr.EndOp()
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var reqID uint64
	for _, sp := range s.Ktrace.Spans() {
		if sp.Kind == ktrace.SpanRequest && sp.Op == "logged.req" {
			reqID = sp.ID
		}
	}
	if reqID == 0 {
		t.Fatal("no request span recorded")
	}
	var inside, outside *klog.Entry
	for i, e := range s.M.Log.Entries() {
		switch e.Msg {
		case "inside the request":
			inside = &s.M.Log.Entries()[i]
		case "outside any request":
			outside = &s.M.Log.Entries()[i]
		}
	}
	if inside == nil || outside == nil {
		t.Fatalf("log entries missing (inside %v, outside %v)", inside != nil, outside != nil)
	}
	if inside.Req != reqID {
		t.Errorf("in-request entry stamped req %d, want %d", inside.Req, reqID)
	}
	if outside.Req != 0 {
		t.Errorf("out-of-request entry stamped req %d, want 0", outside.Req)
	}
}
