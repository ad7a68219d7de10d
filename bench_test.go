// Package repro's root benchmark harness: one sub-benchmark per paper
// table/figure (BenchmarkExperiments/E<n>, see DESIGN.md's experiment
// index), the ablations, and substrate micro-benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark prints the paper-vs-measured table on its
// first iteration; cmd/kucode renders the same tables on demand.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cosy/cc"
	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/kflight"
	"repro/internal/kgcc"
	"repro/internal/kprobe"
	"repro/internal/ktrace"
	"repro/internal/mem"
	"repro/internal/minic"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/splay"
	"repro/internal/sys"
	"repro/internal/workload"
)

func benchTable(b *testing.B, fn func() (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tbl)
			if !tbl.AllPass() {
				b.Errorf("%s has rows outside the acceptance band", tbl.ID)
			}
		}
	}
}

// BenchmarkExperiments regenerates every paper table and figure, one
// sub-benchmark per bench.Suite entry (BenchmarkExperiments/E1 …
// BenchmarkExperiments/E12).
func BenchmarkExperiments(b *testing.B) {
	for _, tr := range bench.Suite(false, false) {
		b.Run(tr.Name, func(b *testing.B) { benchTable(b, tr.Run) })
	}
}

// Ablation benchmarks (design choices called out in DESIGN.md §5).

func BenchmarkAblationCosySegModes(b *testing.B) { benchTable(b, bench.AblationCosySegModes) }

func BenchmarkAblationKGCCElim(b *testing.B) { benchTable(b, bench.AblationKGCCElim) }

func BenchmarkAblationKefencePlacement(b *testing.B) {
	benchTable(b, bench.AblationKefencePlacement)
}

func BenchmarkAblationKmonBlocking(b *testing.B) { benchTable(b, bench.AblationKmonBlocking) }

func BenchmarkAblationSplayLocality(b *testing.B) { benchTable(b, bench.AblationSplayLocality) }

// --- substrate micro-benchmarks ---
//
// The translation/copy/dispatch bodies live in internal/bench
// (micro.go).

// BenchmarkSyscallPath measures the simulated getpid round trip in
// real time (the harness's own overhead per syscall).
func BenchmarkSyscallPath(b *testing.B) { bench.BenchSyscallRoundTrip(b) }

// BenchmarkTranslateHit measures repeat translations of one hot page
// (translation-cache hit path).
func BenchmarkTranslateHit(b *testing.B) { bench.BenchTranslateHit(b) }

// BenchmarkTranslateMiss strides over more pages than the translation
// cache or simulated TLB hold.
func BenchmarkTranslateMiss(b *testing.B) { bench.BenchTranslateMiss(b) }

// BenchmarkWriteBytes measures the bulk-copy path with syscall-sized
// (512B) chunks.
func BenchmarkWriteBytes(b *testing.B) { bench.BenchBulkCopy(b, 512) }

// BenchmarkWriteBytesPage measures page-sized bulk copies.
func BenchmarkWriteBytesPage(b *testing.B) { bench.BenchBulkCopy(b, 4096) }

// BenchmarkReadU64 measures the word path the Cosy VM and KGCC
// interpreter lean on.
func BenchmarkReadU64(b *testing.B) { bench.BenchReadU64(b) }

// BenchmarkSchedulerDispatch measures a yield-dispatch-yield cycle
// between two processes (run-queue hot path).
func BenchmarkSchedulerDispatch(b *testing.B) { bench.BenchSchedulerDispatch(b) }

// BenchmarkCompoundExec measures Cosy compound execution throughput.
func BenchmarkCompoundExec(b *testing.B) {
	s, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := s.CosyEngine(kext.ModeDataSeg)
	src := `
int f(void) {
	COSY_START;
	int s = 0;
	for (int i = 0; i < 100; i++) { s += i; }
	cosy_return(s);
	COSY_END;
	return 0;
}`
	raw, err := compileMarked(src)
	if err != nil {
		b.Fatal(err)
	}
	s.Spawn("bench", func(pr *sys.Proc) error {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExecRing(pr, raw); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRingDrain measures the kring drain per dispatched entry.
// Each iteration is one SeqScanAnycall over a 1,024-record table: one
// ring_enter in which an anycall stages a [read, anycall] block per
// record, 2,050 entries in all. It reports host ns and heap objects
// per ring-dispatched entry (the K.RingOps delta).
func BenchmarkRingDrain(b *testing.B) {
	s, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultDB()
	cfg.Records = 1024
	s.Spawn("bench", func(pr *sys.Proc) error {
		if err := workload.DBSetup(pr, cfg); err != nil {
			return err
		}
		ext, err := pr.KuLoad(sys.KuSpec{
			Source: workload.PumpSource, Entry: workload.PumpEntry, Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}
		if _, err := workload.SeqScanAnycall(pr, cfg, ext); err != nil {
			return err
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs, ops := ms.Mallocs, pr.K.RingOps
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := workload.SeqScanAnycall(pr, cfg, ext); err != nil {
				return err
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		entries := float64(pr.K.RingOps - ops)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/entries, "ns/entry")
		b.ReportMetric(float64(ms.Mallocs-mallocs)/entries, "objs/entry")
		return nil
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func compileMarked(src string) ([]byte, error) {
	c, err := cc.CompileMarked(src, "f")
	if err != nil {
		return nil, err
	}
	return lang.Encode(c), nil
}

// BenchmarkSplayMap measures object-map lookups under locality.
func BenchmarkSplayMap(b *testing.B) {
	var tr splay.Tree[int]
	r := sim.NewRand(1)
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = r.Uint64() % (1 << 30)
		tr.Insert(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Find(keys[(i/64)%len(keys)])
	}
}

// BenchmarkLockFreeRing measures the event ring's push/pop pair.
func BenchmarkLockFreeRing(b *testing.B) {
	buf := ring.New[int64](1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.TryPush(int64(i))
		buf.TryPop()
	}
}

// BenchmarkMinicInterp measures the mini-C interpreter.
func BenchmarkMinicInterp(b *testing.B) {
	unit, err := minic.CompileSource(`
int work(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s += i * 3 - (i & 7); }
	return s;
}`)
	if err != nil {
		b.Fatal(err)
	}
	costs := sim.DefaultCosts()
	as := mem.NewAddressSpace("bench", mem.NewPhys(0), &costs)
	ip, err := minic.NewInterp(as, unit)
	if err != nil {
		b.Fatal(err)
	}
	ip.MaxSteps = 1 << 62
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.Call("work", 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKGCCCheckedInterp measures the same kernel with full BCC
// checks, for the instrumentation slowdown in real time.
func BenchmarkKGCCCheckedInterp(b *testing.B) {
	unit, err := minic.CompileSource(`
int work(int n) {
	int a[64];
	int s = 0;
	for (int i = 0; i < 64; i++) { a[i] = i * n; }
	for (int i = 0; i < 64; i++) { s += a[i]; }
	return s;
}`)
	if err != nil {
		b.Fatal(err)
	}
	kgcc.InstrumentUnit(unit, kgcc.FullChecks())
	costs := sim.DefaultCosts()
	as := mem.NewAddressSpace("bench", mem.NewPhys(0), &costs)
	ip, err := minic.NewInterp(as, unit)
	if err != nil {
		b.Fatal(err)
	}
	ip.MaxSteps = 1 << 62
	m := kgcc.NewMap(&costs, nil)
	kgcc.Attach(ip, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.Call("work", 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinicEngines compares the tree-walking interpreter with
// the bytecode VM on both in-kernel execution shapes (probe fire and
// ku_call) at several program sizes. The VM rows should show the
// flat-bytecode dispatch win growing with program length, at zero
// allocations per call.
func BenchmarkMinicEngines(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		n := n
		b.Run(fmt.Sprintf("probe/n=%d/interp", n), func(b *testing.B) { bench.BenchMinicProbeInterp(b, n) })
		b.Run(fmt.Sprintf("probe/n=%d/vm", n), func(b *testing.B) { bench.BenchMinicProbeVM(b, n) })
		b.Run(fmt.Sprintf("call/n=%d/interp", n), func(b *testing.B) { bench.BenchMinicCallInterp(b, n) })
		b.Run(fmt.Sprintf("call/n=%d/vm", n), func(b *testing.B) { bench.BenchMinicCallVM(b, n) })
	}
}

// BenchmarkProbeFireE9 measures the host cost of one probe fire of
// E9's exact aggregation program through the Manager dispatch path:
// tracepoint lookup, VM entry, three context helpers, one histogram
// observe, and one hash-map add. This is the paper-relevant hot loop
// the bytecode VM exists for; it must run with zero heap allocations
// per fire.
func BenchmarkProbeFireE9(b *testing.B) {
	s, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	const probeSrc = `
	int probe() {
		int k;
		k = ctx_pid() * 256 + ctx_nr();
		map_hist(0, k, ctx_cycles());
		map_add(1, k, 1);
		return 0;
	}`
	if _, _, err := s.Probes.Attach(kprobe.Spec{
		Tracepoint: kprobe.TpSyscallExit,
		Source:     probeSrc,
		Maps: []kprobe.MapSpec{
			{Name: "lat", Kind: kprobe.MapHist},
			{Name: "calls", Kind: kprobe.MapHash},
		},
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Probes.SyscallExit(1, 3, 64, 0, 1234)
	}
}

// BenchmarkKuCallE10 measures one E10 filt() invocation through the
// ku_call path with full KGCC checks.
func BenchmarkKuCallE10(b *testing.B) { benchKuCall(b, kgcc.FullChecks()) }

// BenchmarkKuCallE10Elided is the same call with kcheck proof-based
// elision (E10's third config), where the interpretation loop itself
// dominates the remaining cost.
func BenchmarkKuCallE10Elided(b *testing.B) { benchKuCall(b, kgcc.KcheckOptions()) }

func benchKuCall(b *testing.B, opts kgcc.Options) {
	const src = `
	int filt(int seed, int rounds) {
		int tab[64];
		int pkt[32];
		int i;
		int r;
		int sum = seed & 63;
		for (i = 0; i < 64; i++) { tab[i] = 0; }
		for (r = 0; r < rounds; r++) {
			for (i = 0; i < 32; i++) { pkt[i] = (seed + r * 31 + i * 7) & 255; }
			for (i = 0; i < 32; i++) { sum = sum + pkt[i]; }
			tab[sum & 63] = tab[sum & 63] + 1;
		}
		int *acc = malloc(64);
		for (i = 0; i < 8; i++) { acc[i] = tab[i * 8]; }
		sum = 0;
		for (i = 0; i < 8; i++) { sum = sum + acc[i]; }
		free(acc);
		return sum;
	}`
	s, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s.Spawn("bench", func(pr *sys.Proc) error {
		id, err := pr.KuLoad(sys.KuSpec{Source: src, Entry: "filt", Checks: opts})
		if err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pr.KuCall(id, int64(i&63)*13, 40); err != nil {
				return err
			}
		}
		return nil
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPostMark measures a small PostMark run end to end.
func BenchmarkPostMark(b *testing.B) { benchPostMark(b, false) }

// BenchmarkPostMarkObserved is BenchmarkPostMark with kperf, kflight
// and ktrace on, as perfbench's postmark workload runs: the difference
// between the two is what the observer seam and its subscribers cost
// the host, boot included.
func BenchmarkPostMarkObserved(b *testing.B) { benchPostMark(b, true) }

func benchPostMark(b *testing.B, observed bool) {
	cfg := workload.DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 50, 200
	for i := 0; i < b.N; i++ {
		var opts core.Options
		if observed {
			opts = core.Options{Perf: core.NewPerf(0), Flight: &kflight.Config{}, Trace: &ktrace.Config{}}
		}
		s, err := core.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		s.Spawn("pm", func(pr *sys.Proc) error {
			_, err := workload.PostMark(pr, cfg)
			return err
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
