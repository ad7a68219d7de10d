package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cosy/kext"
	"repro/internal/kgcc"
	"repro/internal/ktrace"
	"repro/internal/sys"
	"repro/internal/workload"
)

// E12 is the kring data-plane experiment: how many boundary crossings
// and boundary-copied bytes does batched ring submission remove, and
// what does that do to elapsed cycles and request tails?
//
// PostMark runs under plain syscalls, Cosy compound consolidation,
// kucode think offload, and the ring at batch sizes 1..4096; the
// database sequential scan runs plain, as one Cosy compound, as
// 64-deep ring batches, and as an anycall-pumped ring (the whole scan
// in one-ish crossing, the extension re-staging read SQEs in the
// kernel). Crossings are K.TotalCalls() (ring-dispatched entries
// deliberately don't count — that is the claim under test), copied
// bytes are the boundary copyin+copyout totals (ring payloads ride
// the shared pages and show up in K.RingBytes instead).
//
// Acceptance: ring results bit-identical to the unbatched path, >=10x
// fewer crossings and measurably fewer copied bytes at batch >= 64,
// crossings monotone nonincreasing in batch size.
func E12(perf bool) (*Table, error) {
	t := &Table{ID: "E12", Title: "zero-copy ring data plane (crossings, copied bytes, cycles vs batch size)"}

	pmCfg := workload.DefaultPostMark()
	pmCfg.InitialFiles = 60
	pmCfg.Transactions = 1500
	pmCfg.MaxSize = 4 << 10
	dbCfg := workload.DefaultDB()
	dbCfg.Records = 2000

	// legStats is everything one configuration reports.
	type legStats struct {
		ph      Phase
		calls   int64 // boundary crossings
		copied  int64 // bytes across the boundary
		ringOps int64
		ringBy  int64
		pm      workload.PostMarkStats
		scanned int64
		// scanCalls is the crossings of the scan alone, excluding the
		// DBSetup record writes every dbscan leg pays identically.
		scanCalls int64
		sum       *ktrace.Summary
	}

	leg := func(attach func(s *core.System), setup func(pr *sys.Proc) error,
		work func(pr *sys.Proc, ls *legStats) error) (legStats, error) {
		var ls legStats
		ph, s, err := RunPhase(perfOpts(core.Options{}, perf), attach, setup, func(pr *sys.Proc) error {
			return work(pr, &ls)
		})
		if err != nil {
			return ls, err
		}
		ls.ph = ph
		ls.calls = s.K.TotalCalls()
		ls.copied = s.K.BytesIn + s.K.BytesOut
		ls.ringOps = s.K.RingOps
		ls.ringBy = s.K.RingBytes
		if s.Ktrace != nil {
			ls.sum = s.Ktrace.Summary()
		}
		t.Observe(ph)
		t.ObservePerf(s)
		return ls, nil
	}

	// PostMark legs.
	pmPlain, err := leg(nil, nil, func(pr *sys.Proc, ls *legStats) error {
		var err error
		ls.pm, err = workload.RunPostMark(pr, pmCfg, workload.NewTrap())
		return err
	})
	if err != nil {
		return nil, err
	}
	var eng *kext.Engine
	pmCosy, err := leg(func(s *core.System) { eng = s.CosyEngine(kext.ModeDataSeg) }, nil,
		func(pr *sys.Proc, ls *legStats) error {
			var err error
			ls.pm, err = workload.RunPostMark(pr, pmCfg, workload.NewCosy(eng))
			return err
		})
	if err != nil {
		return nil, err
	}
	kuCfg := pmCfg
	pmKu, err := leg(nil, nil, func(pr *sys.Proc, ls *legStats) error {
		kuID, err := pr.KuLoad(sys.KuSpec{Source: `
		int think(int t, int salt) {
			int i;
			int s = salt;
			for (i = 0; i < 24; i++) { s = s + ((t + i) & 7); }
			return s;
		}`, Entry: "think", Checks: kgcc.DefaultOptions()})
		if err != nil {
			return err
		}
		txn := 0
		cfg := kuCfg
		cfg.Think = func(pr *sys.Proc) error {
			txn++
			_, err := pr.KuCall(kuID, int64(txn), 3)
			return err
		}
		ls.pm, err = workload.RunPostMark(pr, cfg, workload.NewTrap())
		return err
	})
	if err != nil {
		return nil, err
	}

	batches := []int{1, 8, 64, 512, 4096}
	pmRing := make(map[int]legStats, len(batches))
	for _, b := range batches {
		b := b
		ls, err := leg(nil, nil, func(pr *sys.Proc, ls *legStats) error {
			var err error
			ls.pm, err = workload.RunPostMark(pr, pmCfg, workload.NewRing(b))
			return err
		})
		if err != nil {
			return nil, err
		}
		pmRing[b] = ls
		t.Note("postmark ring b=%d: %d crossings, %d copied bytes, %d ring ops, %d ring bytes, %v elapsed",
			b, ls.calls, ls.copied, ls.ringOps, ls.ringBy, ls.ph.Elapsed)
	}
	t.Note("postmark plain: %d crossings, %d copied bytes, %v elapsed; cosy: %d crossings, %v; kucode: %d crossings, %v",
		pmPlain.calls, pmPlain.copied, pmPlain.ph.Elapsed,
		pmCosy.calls, pmCosy.ph.Elapsed, pmKu.calls, pmKu.ph.Elapsed)

	// Database sequential scan legs.
	dbSetup := func(pr *sys.Proc) error { return workload.DBSetup(pr, dbCfg) }
	dbPlain, err := leg(nil, dbSetup, func(pr *sys.Proc, ls *legStats) error {
		base := pr.K.TotalCalls()
		var err error
		ls.scanned, err = workload.SeqScanUser(pr, dbCfg)
		ls.scanCalls = pr.K.TotalCalls() - base
		return err
	})
	if err != nil {
		return nil, err
	}
	var dbEng *kext.Engine
	dbCosy, err := leg(func(s *core.System) { dbEng = s.CosyEngine(kext.ModeDataSeg) }, dbSetup,
		func(pr *sys.Proc, ls *legStats) error {
			base := pr.K.TotalCalls()
			var err error
			ls.scanned, err = workload.SeqScanCosy(pr, dbEng, dbCfg)
			ls.scanCalls = pr.K.TotalCalls() - base
			return err
		})
	if err != nil {
		return nil, err
	}
	dbRing, err := leg(nil, dbSetup, func(pr *sys.Proc, ls *legStats) error {
		base := pr.K.TotalCalls()
		var err error
		ls.scanned, err = workload.SeqScanRing(pr, dbCfg, 64)
		ls.scanCalls = pr.K.TotalCalls() - base
		return err
	})
	if err != nil {
		return nil, err
	}
	dbAny, err := leg(nil, dbSetup, func(pr *sys.Proc, ls *legStats) error {
		ext, err := pr.KuLoad(sys.KuSpec{
			Source: workload.PumpSource, Entry: workload.PumpEntry, Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}
		base := pr.K.TotalCalls()
		ls.scanned, err = workload.SeqScanAnycall(pr, dbCfg, ext)
		ls.scanCalls = pr.K.TotalCalls() - base
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Note("dbscan seq scan-only crossings: plain %d %v; cosy %d %v; ring64 %d %v; anycall %d %v",
		dbPlain.scanCalls, dbPlain.ph.Elapsed, dbCosy.scanCalls, dbCosy.ph.Elapsed,
		dbRing.scanCalls, dbRing.ph.Elapsed, dbAny.scanCalls, dbAny.ph.Elapsed)

	// Acceptance rows.
	identical := true
	for _, b := range batches {
		if pmRing[b].pm != pmPlain.pm {
			identical = false
			t.Note("postmark ring b=%d stats %+v != plain %+v", b, pmRing[b].pm, pmPlain.pm)
		}
	}
	t.Add("postmark results, ring vs plain", "bit-identical stats at every batch size",
		fmt.Sprintf("%d batch sizes checked", len(batches)), identical)

	r64 := pmRing[64]
	xings := float64(pmPlain.calls) / float64(r64.calls)
	t.Add("postmark crossings, ring b=64 vs plain", ">=10x fewer",
		fmt.Sprintf("%d -> %d (%.1fx)", pmPlain.calls, r64.calls, xings), xings >= 10)
	t.Add("postmark copied bytes, ring b=64 vs plain", "payloads leave the boundary",
		fmt.Sprintf("%d -> %d boundary bytes (%d rode shared pages)", pmPlain.copied, r64.copied, r64.ringBy),
		r64.copied*2 < pmPlain.copied)
	mono := true
	for i := 1; i < len(batches); i++ {
		if pmRing[batches[i]].calls > pmRing[batches[i-1]].calls {
			mono = false
		}
	}
	t.Add("postmark crossings vs batch size", "monotone nonincreasing",
		fmt.Sprintf("b=1: %d ... b=4096: %d", pmRing[1].calls, pmRing[4096].calls), mono)
	imp := improvement(pmPlain.ph.Elapsed, r64.ph.Elapsed)
	t.Add("postmark elapsed, ring b=64 vs plain", "batching saves time",
		fmt.Sprintf("%v -> %v (%s saved)", pmPlain.ph.Elapsed, r64.ph.Elapsed, pct(imp)), imp > 0)

	want := int64(dbCfg.Records) * int64(dbCfg.RecSize)
	t.Add("dbscan seq results", "all variants read the full table",
		fmt.Sprintf("plain/cosy/ring/anycall %d/%d/%d/%d of %d bytes",
			dbPlain.scanned, dbCosy.scanned, dbRing.scanned, dbAny.scanned, want),
		dbPlain.scanned == want && dbCosy.scanned == want && dbRing.scanned == want && dbAny.scanned == want)
	t.Add("dbscan scan crossings, ring b=64 vs plain", ">=10x fewer",
		fmt.Sprintf("%d -> %d", dbPlain.scanCalls, dbRing.scanCalls),
		float64(dbPlain.scanCalls) >= 10*float64(dbRing.scanCalls))
	t.Add("dbscan scan crossings, anycall vs ring b=64", "in-kernel restaging beats user batching",
		fmt.Sprintf("%d -> %d", dbRing.scanCalls, dbAny.scanCalls), dbAny.scanCalls < dbRing.scanCalls)

	if pmPlain.sum == nil {
		t.Note("run with instrumentation (perf) for the ring p99 rows")
		return t, nil
	}
	dbP := dbPlain.sum.Op(workload.OpSeqScanBatch)
	dbR := dbRing.sum.Op(workload.OpSeqScanRing)
	if dbP == nil || dbR == nil {
		return nil, fmt.Errorf("bench: E12: missing scan SLI (plain %v, ring %v)", dbP != nil, dbR != nil)
	}
	// Both ops cover 64 records per request, so the tails compare
	// directly: the ring batch pays one crossing where the plain batch
	// pays 64.
	t.Add("dbscan 64-record batch p99, ring vs plain", "tail shrinks",
		fmt.Sprintf("%d -> %d cycles", dbP.P99, dbR.P99), dbR.P99 < dbP.P99)
	if rb := pmRing[64].sum.Op(workload.OpPostmarkBatch); rb != nil {
		t.Note("postmark ring b=64 batch latency: p50 %d p99 %d cycles over %d batches", rb.P50, rb.P99, rb.Count)
	}
	viol := pmPlain.sum.IdentityViolations + dbPlain.sum.IdentityViolations +
		dbRing.sum.IdentityViolations + dbAny.sum.IdentityViolations
	open := pmPlain.sum.Open + dbPlain.sum.Open + dbRing.sum.Open + dbAny.sum.Open
	t.Add("decomposition identity", "0 violations, 0 requests left open",
		fmt.Sprintf("%d violations, %d open", viol, open), viol == 0 && open == 0)
	return t, nil
}
