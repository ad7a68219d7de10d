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

// E11 is the observability experiment: a p99 critical-path breakdown
// of PostMark transactions and database random-scan batches under the
// plain syscall interface, Cosy compound consolidation, and a kucode
// extension. Every request's wall time is decomposed by the tracer
// into an exact user/kernel/copy/ready/disk partition, so the table
// can say not just that consolidation cuts tail latency but which
// segment of the critical path it removes (the boundary-copy and
// dispatch share), and that kucode today moves only the compute
// segment into the kernel while the boundary share stays put —
// the motivating gap for compound-aware extensions.
//
// Without instrumentation the experiment still runs every leg (the
// simulated cycle trajectory must be identical either way — that is
// the tracer's zero-cost gate) and reports the cycle-level rows only.
func E11(perf bool) (*Table, error) {
	t := &Table{ID: "E11", Title: "critical-path p99 latency attribution (plain vs Cosy vs kucode)"}

	pmCfg := workload.DefaultPostMark()
	pmCfg.InitialFiles = 120
	pmCfg.Transactions = 500
	pmCfg.MaxSize = 4 << 10
	dbCfg := workload.DefaultDB()
	dbCfg.Records = 2000
	dbCfg.Lookups = 960

	// The kucode think extension: the per-transaction user compute of
	// PostMark routed through a loaded extension, so the think segment
	// of the critical path runs in kernel mode (SubKu) instead of user
	// mode. File I/O stays on the plain syscall path — minic has no
	// file builtins — which is exactly the honest finding: kucode
	// moves compute, not boundary crossings.
	const thinkSrc = `
	int think(int t, int salt) {
		int i;
		int s = salt;
		for (i = 0; i < 24; i++) { s = s + ((t + i) & 7); }
		return s;
	}`

	// leg runs one configuration and captures its trace summary before
	// the table merge (the merged summary conflates the same op name
	// across legs; acceptance needs them separate).
	leg := func(attach func(s *core.System), setup, work func(pr *sys.Proc) error) (Phase, *ktrace.Summary, error) {
		ph, s, err := RunPhase(perfOpts(core.Options{}, perf), attach, setup, work)
		if err != nil {
			return ph, nil, err
		}
		var sum *ktrace.Summary
		if s.Ktrace != nil {
			sum = s.Ktrace.Summary()
		}
		t.Observe(ph)
		t.ObservePerf(s)
		return ph, sum, nil
	}

	// PostMark: plain, Cosy-consolidated transactions, kucode think.
	pmPlain, pmPlainSum, err := leg(nil, nil, func(pr *sys.Proc) error {
		_, err := workload.RunPostMark(pr, pmCfg, workload.NewTrap())
		return err
	})
	if err != nil {
		return nil, err
	}
	var eng *kext.Engine
	pmCosy, pmCosySum, err := leg(
		func(s *core.System) { eng = s.CosyEngine(kext.ModeDataSeg) },
		nil, func(pr *sys.Proc) error {
			_, err := workload.RunPostMark(pr, pmCfg, workload.NewCosy(eng))
			return err
		})
	if err != nil {
		return nil, err
	}
	kuCfg := pmCfg
	var kuID int
	_, pmKuSum, err := leg(nil,
		func(pr *sys.Proc) error {
			var err error
			kuID, err = pr.KuLoad(sys.KuSpec{Source: thinkSrc, Entry: "think", Checks: kgcc.DefaultOptions()})
			return err
		},
		func(pr *sys.Proc) error {
			txn := 0
			kuCfg.Think = func(pr *sys.Proc) error {
				txn++
				_, err := pr.KuCall(kuID, int64(txn), 3)
				return err
			}
			_, err := workload.RunPostMark(pr, kuCfg, workload.NewTrap())
			return err
		})
	if err != nil {
		return nil, err
	}

	// Database random scan: plain per-lookup syscalls vs per-batch
	// compounds.
	dbSetup := func(pr *sys.Proc) error { return workload.DBSetup(pr, dbCfg) }
	dbPlain, dbPlainSum, err := leg(nil, dbSetup, func(pr *sys.Proc) error {
		_, err := workload.RandScanUser(pr, dbCfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var dbEng *kext.Engine
	dbCosy, dbCosySum, err := leg(
		func(s *core.System) { dbEng = s.CosyEngine(kext.ModeDataSeg) },
		dbSetup, func(pr *sys.Proc) error {
			_, err := workload.RandScanCosyBatched(pr, dbEng, dbCfg)
			return err
		})
	if err != nil {
		return nil, err
	}

	// Cycle-level rows: valid with or without instrumentation.
	pmImp := improvement(pmPlain.Elapsed, pmCosy.Elapsed)
	t.Add("postmark elapsed, cosy vs plain", "consolidation saves time",
		fmt.Sprintf("%v -> %v (%s saved)", pmPlain.Elapsed, pmCosy.Elapsed, pct(pmImp)), pmImp > 0)
	dbImp := improvement(dbPlain.Elapsed, dbCosy.Elapsed)
	t.Add("dbscan rand elapsed, cosy vs plain", "consolidation saves time",
		fmt.Sprintf("%v -> %v (%s saved)", dbPlain.Elapsed, dbCosy.Elapsed, pct(dbImp)), dbImp > 0)

	if pmPlainSum == nil {
		t.Note("run with instrumentation (perf) for the latency SLI and critical-path rows")
		return t, nil
	}

	pmP := pmPlainSum.Op(workload.OpPostmarkTxn)
	pmC := pmCosySum.Op(workload.OpPostmarkTxn)
	pmK := pmKuSum.Op(workload.OpPostmarkTxn)
	dbP := dbPlainSum.Op(workload.OpRandScanBatch)
	dbC := dbCosySum.Op(workload.OpRandScanBatch)
	if pmP == nil || pmC == nil || pmK == nil || dbP == nil || dbC == nil {
		return nil, fmt.Errorf("bench: E11: missing op SLI (postmark %v/%v/%v, dbscan %v/%v)",
			pmP != nil, pmC != nil, pmK != nil, dbP != nil, dbC != nil)
	}

	t.Add("postmark txn p99, cosy vs plain", "tail shrinks",
		fmt.Sprintf("%d -> %d cycles", pmP.P99, pmC.P99), pmC.P99 < pmP.P99)
	t.Add("dbscan batch p99, cosy vs plain", "tail shrinks",
		fmt.Sprintf("%d -> %d cycles", dbP.P99, dbC.P99), dbC.P99 < dbP.P99)

	pmPCopy, pmCCopy := segShare(pmP, "copy"), segShare(pmC, "copy")
	t.Add("postmark boundary-copy share, cosy vs plain", "copy share drops",
		fmt.Sprintf("%s -> %s of critical path", pct(pmPCopy), pct(pmCCopy)), pmCCopy < pmPCopy)

	pmPUser, pmKUser := segShare(pmP, "user"), segShare(pmK, "user")
	t.Add("postmark user-segment share, kucode vs plain", "think time moves into kernel",
		fmt.Sprintf("%s -> %s of critical path", pct(pmPUser), pct(pmKUser)), pmKUser < pmPUser)
	pmKCopy := segShare(pmK, "copy")
	t.Add("postmark boundary-copy share, kucode vs plain", "unchanged (kucode moves compute only)",
		fmt.Sprintf("%s -> %s of critical path", pct(pmPCopy), pct(pmKCopy)),
		!(pmKCopy < pmPCopy*0.9))

	viol := pmPlainSum.IdentityViolations + pmCosySum.IdentityViolations +
		pmKuSum.IdentityViolations + dbPlainSum.IdentityViolations + dbCosySum.IdentityViolations
	open := pmPlainSum.Open + pmCosySum.Open + pmKuSum.Open + dbPlainSum.Open + dbCosySum.Open
	t.Add("decomposition identity", "0 violations, 0 requests left open",
		fmt.Sprintf("%d violations, %d open", viol, open), viol == 0 && open == 0)

	t.Note("postmark txn critical path, plain: %s; cosy: %s; ku: %s",
		segLine(pmP), segLine(pmC), segLine(pmK))
	t.Note("dbscan batch critical path, plain: %s; cosy: %s", segLine(dbP), segLine(dbC))
	t.Note("p99-tail top segment: postmark plain %q -> cosy %q; dbscan plain %q -> cosy %q",
		pmP.TopSeg, pmC.TopSeg, dbP.TopSeg, dbC.TopSeg)
	return t, nil
}

// segShare is one segment's fraction of an operation's summed
// critical-path decomposition.
func segShare(o *ktrace.OpSLI, seg string) float64 {
	var tot int64
	for _, v := range o.Segs {
		tot += v
	}
	if tot == 0 {
		return 0
	}
	return float64(o.Segs[seg]) / float64(tot)
}

// segLine renders an op's segment decomposition compactly, largest
// first omitting zeros.
func segLine(o *ktrace.OpSLI) string {
	var tot int64
	for _, v := range o.Segs {
		tot += v
	}
	if tot == 0 {
		return "empty"
	}
	order := []string{"user", "kernel", "copy", "ready", "disk", "sleep"}
	s := ""
	for _, k := range order {
		if v := o.Segs[k]; v > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s %s", k, pct(float64(v)/float64(tot)))
		}
	}
	return s
}
