package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/cosy/kext"
	"repro/internal/kflight"
	"repro/internal/kgcc"
	"repro/internal/kprobe"
	"repro/internal/ktrace"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/workload"
)

// sizes fixes how much simulated work one round does. A round is one
// booted machine running one workload once; its simulated results
// depend only on the sizes and the seed.
type sizes struct {
	pmFiles, pmTxns    int // postmark pool and transaction count
	dbRecords          int // dbscan-ext table rows (256 bytes each)
	dbLookups          int // random lookups per scan
	dbPasses           int // measured passes per round
	ablTxns            int // postmark transactions per ablation sample
	ablReps            int // samples per ablation configuration
	probeRecords       int // table rows of the kprobe cost pair
	probeLookups       int // lookups of the kprobe cost pair
	pmRounds, dbRounds int // timed rounds per run of postmark and dbscan-ext
}

// fullSizes are the sizes the benchmark command runs; the round
// counts fill about 20 host seconds on the host in targets.json.
var fullSizes = sizes{
	pmFiles: 300, pmTxns: 20000,
	dbRecords: 4096, dbLookups: 1500, dbPasses: 36,
	ablTxns: 5000, ablReps: 5,
	probeRecords: 512, probeLookups: 20000,
	pmRounds: 14, dbRounds: 24,
}

const (
	// pmCacheBlocks is a 256 KB buffer cache, smaller than PostMark's
	// initial pool, so writebacks block the process on every seed. With
	// a cache near the pool's size, whether the pool's random walk
	// outgrows it swings simulated time by 100x from seed to seed.
	pmCacheBlocks = 64
	// ringBatch is the submission batch of PostMark through the ring.
	ringBatch = 64
)

// probeSrc is E9's latency-histogram probe: per (pid, syscall) it
// bins the span duration and counts the calls.
const probeSrc = `
int probe() {
	int k;
	k = ctx_pid() * 256 + ctx_nr();
	map_hist(0, k, ctx_cycles());
	map_add(1, k, 1);
	return 0;
}`

var probeMaps = []kprobe.MapSpec{
	{Name: "lat", Kind: kprobe.MapHist},
	{Name: "calls", Kind: kprobe.MapHash},
}

// observers selects the host-side observers a machine boots with.
type observers struct{ perf, flight, trace, recorder bool }

var allObservers = observers{perf: true, flight: true, trace: true}

func boot(obs observers, cacheBlocks int) (*core.System, error) {
	opts := core.Options{CacheBlocks: cacheBlocks}
	if obs.perf {
		opts.Perf = core.NewPerf(0)
	}
	if obs.flight {
		opts.Flight = &kflight.Config{}
	}
	if obs.trace {
		opts.Trace = &ktrace.Config{}
	}
	s, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	if obs.recorder {
		s.EnableTrace()
	}
	return s, nil
}

// counters are the public layer counters read at the edges of the
// measured phase. Every field is simulated state, so two runs of the
// same round must produce identical deltas.
type counters struct {
	crossings, ringOps, ringBytes, ringOverflows, copyBytes int64
	cacheHits, cacheMisses, writebacks, throttles           int64
	dcacheHits, dcacheMisses                                int64
	diskReads, diskWrites, diskSeeks                        int64
	ctxSwitches                                             int64
	idle                                                    sim.Cycles
	tlbHits, tlbMisses, faults                              uint64
	kuCalls, kuChecks                                       int64
}

func readCounters(s *core.System, kuID int) counters {
	d := s.IO.Dev.Stats()
	hits, misses, faults, _ := s.M.MemTotals()
	c := counters{
		crossings: s.K.TotalCalls(), ringOps: s.K.RingOps, ringBytes: s.K.RingBytes,
		ringOverflows: s.K.RingOverflows, copyBytes: s.K.BytesIn + s.K.BytesOut,
		cacheHits: s.IO.Hits, cacheMisses: s.IO.Misses, writebacks: s.IO.Writebacks, throttles: s.IO.Throttles,
		dcacheHits: s.NS.Dc.Hits, dcacheMisses: s.NS.Dc.Misses,
		diskReads: d.Reads, diskWrites: d.Writes, diskSeeks: d.Seeks,
		ctxSwitches: s.M.CtxSwitches, idle: s.M.IdleCycles,
		tlbHits: hits, tlbMisses: misses, faults: faults,
	}
	if e, ok := s.K.KuExt(kuID); ok {
		c.kuCalls, c.kuChecks = e.Calls, e.ChecksRun()
	}
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		crossings: a.crossings - b.crossings, ringOps: a.ringOps - b.ringOps, ringBytes: a.ringBytes - b.ringBytes,
		ringOverflows: a.ringOverflows - b.ringOverflows, copyBytes: a.copyBytes - b.copyBytes,
		cacheHits: a.cacheHits - b.cacheHits, cacheMisses: a.cacheMisses - b.cacheMisses,
		writebacks: a.writebacks - b.writebacks, throttles: a.throttles - b.throttles,
		dcacheHits: a.dcacheHits - b.dcacheHits, dcacheMisses: a.dcacheMisses - b.dcacheMisses,
		diskReads: a.diskReads - b.diskReads, diskWrites: a.diskWrites - b.diskWrites, diskSeeks: a.diskSeeks - b.diskSeeks,
		ctxSwitches: a.ctxSwitches - b.ctxSwitches, idle: a.idle - b.idle,
		tlbHits: a.tlbHits - b.tlbHits, tlbMisses: a.tlbMisses - b.tlbMisses, faults: a.faults - b.faults,
		kuCalls: a.kuCalls - b.kuCalls, kuChecks: a.kuChecks - b.kuChecks,
	}
}

// cpuNow is the CPU time the process has used, on every thread, in
// user and system mode (CLOCK_PROCESS_CPUTIME_ID). Host figures are
// CPU time, not wall time: the host is shared, and time another tenant
// holds the core is not charged to the process.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}

// point is the state at one edge of the measured phase.
type point struct {
	cpu   time.Duration
	wall  time.Time
	clock sim.Cycles
	sys   sim.Cycles
	c     counters
	ms    runtime.MemStats
}

// markStart reads the simulated state first and the host clocks last,
// markEnd the reverse, so neither read lands inside the timed span.
func markStart(s *core.System, pr *sys.Proc, kuID int) point {
	var pt point
	pt.clock = s.M.Clock.Now()
	_, pt.sys, _ = pr.P.Times()
	pt.c = readCounters(s, kuID)
	runtime.ReadMemStats(&pt.ms)
	pt.wall = time.Now()
	pt.cpu = cpuNow()
	return pt
}

func markEnd(s *core.System, pr *sys.Proc, kuID int) point {
	var pt point
	pt.cpu = cpuNow()
	pt.wall = time.Now()
	runtime.ReadMemStats(&pt.ms)
	pt.clock = s.M.Clock.Now()
	_, pt.sys, _ = pr.P.Times()
	pt.c = readCounters(s, kuID)
	return pt
}

// outcome is everything a round's simulated run produced. Two runs of
// the same round, traced or not, must yield equal outcomes.
type outcome struct {
	simElapsed, simSys sim.Cycles
	c                  counters
	pm                 workload.PostMarkStats
	seqBytes           int64 // summed over passes
	trapTotal          int64
	cosyTotal          int64
	fires              int64
}

// round is one booted machine's measurement. setup and measured are
// CPU time; wall is the measured phase's wall time, for the log.
type round struct {
	setup, measured, wall time.Duration
	ops                   int64 // crossings + ring-dispatched entries
	allocBytes            uint64
	mallocs               uint64
	gcCycles              uint32
	gcPause               time.Duration
	attempted             int
	failed                int
	out                   outcome
	// errs lists the correctness checks this round failed; wholeFail
	// marks a failure no single operation can be blamed for.
	errs      []string
	wholeFail bool
}

func (r *round) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *round) failAll(format string, args ...any) {
	r.fail(format, args...)
	r.wholeFail = true
}

// measure fills the host and simulated figures of the measured phase;
// cpu0 is the CPU time at the round's core.New.
func (r *round) measure(cpu0 time.Duration, start, end point) {
	r.setup = start.cpu - cpu0
	r.measured = end.cpu - start.cpu
	r.wall = end.wall.Sub(start.wall)
	d := end.c.sub(start.c)
	r.ops = d.crossings + d.ringOps
	r.allocBytes = end.ms.TotalAlloc - start.ms.TotalAlloc
	r.mallocs = end.ms.Mallocs - start.ms.Mallocs
	r.gcCycles = end.ms.NumGC - start.ms.NumGC
	r.gcPause = time.Duration(end.ms.PauseTotalNs - start.ms.PauseTotalNs)
	r.out.simElapsed = end.clock - start.clock
	r.out.simSys = end.sys - start.sys
	r.out.c = d
}

func pmConfig(seed uint64, txns, files int) workload.PostMarkConfig {
	cfg := workload.DefaultPostMark()
	cfg.InitialFiles = files
	cfg.Transactions = txns
	cfg.Seed = seed
	return cfg
}

// postmarkRound boots a machine and runs one PostMark through the trap
// path or the ring. The measured phase starts at the first
// transaction's Think callback, which charges the same UserThink
// cycles PostMark charges without one, and ends when PostMark returns.
func postmarkRound(cfg workload.PostMarkConfig, obs observers, ring bool, tr *tracer) (round, error) {
	var r round
	cpu0 := cpuNow()
	sp := tr.begin("core.New")
	s, err := boot(obs, pmCacheBlocks)
	if err != nil {
		return r, err
	}
	tr.note("core.new_ms", ms(tr.end(sp)))

	var start, end point
	var pmStart time.Time
	think := cfg.UserThink
	txns := 0
	cfg.Think = func(pr *sys.Proc) error {
		if txns == 0 {
			start = markStart(s, pr, 0)
			tr.note("workload.pool.s", start.wall.Sub(pmStart).Seconds())
		}
		txns++
		tr.txn()
		pr.P.ChargeUser(think)
		return nil
	}
	s.Spawn("postmark", func(pr *sys.Proc) error {
		var err error
		pmStart = time.Now()
		sp := tr.begin("workload.PostMark")
		if ring {
			r.out.pm, err = workload.PostMarkRing(pr, cfg, ringBatch)
		} else {
			r.out.pm, err = workload.PostMark(pr, cfg)
		}
		end = markEnd(s, pr, 0)
		tr.txnSpans(sp, end.wall)
		tr.end(sp)
		return err
	})
	if err := s.Run(); err != nil {
		return r, err
	}
	if txns == 0 {
		return r, fmt.Errorf("postmark: no transaction ran")
	}
	r.measure(cpu0, start, end)
	r.attempted = cfg.Transactions
	if s.Perf != nil {
		if err := s.Perf.Snapshot().CheckTotal(s.M.Elapsed()); err != nil {
			r.failAll("%v", err)
		}
	}
	return r, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func dbConfig(seed uint64, records, lookups int) workload.DBConfig {
	cfg := workload.DefaultDB()
	cfg.Records = records
	cfg.Lookups = lookups
	cfg.Seed = seed
	return cfg
}

// dbBatches is the number of traced lookup batches of one random scan.
func dbBatches(cfg workload.DBConfig) int {
	return (cfg.Lookups + workload.RandBatch - 1) / workload.RandBatch
}

// dbTable is the dbscan-ext table size for a seed: rows + seed mod 256.
// The seed picks the row count as well as which rows the random scans
// touch. Every row is cache-resident, so which rows a scan touches
// costs nothing extra: with a fixed row count, sim_elapsed_ms and
// sim_sys_ms would read exactly the same for every seed, and a figure
// that never changes cannot show that a run measured anything.
func dbTable(seed uint64, rows int) int { return rows + int(seed%256) }

// dbscanRound boots a machine with observers off, writes the table,
// loads the anycall pump and attaches E9's probe (set-up), then runs
// the measured passes: each is an anycall sequential scan, a trap
// random scan and a Cosy random scan, with the seed varied per pass.
func dbscanRound(seed uint64, records, lookups, passes int, tr *tracer) (round, error) {
	var r round
	cpu0 := cpuNow()
	sp := tr.begin("core.New")
	s, err := boot(observers{}, 0)
	if err != nil {
		return r, err
	}
	eng := s.CosyEngine(kext.ModeDataSeg)
	tr.note("core.new_ms", ms(tr.end(sp)))
	cfg := dbConfig(seed, records, lookups)
	want := int64(cfg.Records) * int64(cfg.RecSize)
	lookupBytes := int64(cfg.Lookups) * int64(cfg.RecSize)

	var start, end point
	s.Spawn("dbscan", func(pr *sys.Proc) error {
		var ms0, ms1 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		sp := tr.begin("workload.DBSetup")
		if err := workload.DBSetup(pr, cfg); err != nil {
			return err
		}
		tr.note("workload.db_setup.s", tr.end(sp).Seconds())
		if tr != nil {
			runtime.ReadMemStats(&ms1)
			tr.note("workload.db_setup.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		}

		sp = tr.begin("sys.KuLoad")
		ext, err := pr.KuLoad(sys.KuSpec{Source: workload.PumpSource, Entry: workload.PumpEntry, Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}
		tr.note("kucode.load_ms", ms(tr.end(sp)))

		beforeAttach := s.K.TotalCalls()
		sp = tr.begin("sys.ProbeAttach")
		probe, err := pr.ProbeAttach(kprobe.Spec{Tracepoint: kprobe.TpSyscallExit, Source: probeSrc, Maps: probeMaps})
		if err != nil {
			return err
		}
		tr.note("kprobe.attach_ms", ms(tr.end(sp)))

		start = markStart(s, pr, ext)
		for pass := 0; pass < passes; pass++ {
			c := cfg
			c.Seed = seed + uint64(pass)
			sp := tr.begin("workload.SeqScanAnycall")
			n, err := workload.SeqScanAnycall(pr, c, ext)
			if err != nil {
				return err
			}
			tr.note("workload.seq_anycall.ns_per_record", float64(tr.end(sp))/float64(cfg.Records))
			if n != want {
				r.fail("pass %d: anycall scan read %d of %d bytes", pass, n, want)
				r.failed++
			}
			r.out.seqBytes += n

			sp = tr.begin("workload.RandScanUser")
			trap, err := workload.RandScanUser(pr, c)
			if err != nil {
				return err
			}
			tr.note("workload.rand_trap.ns_per_lookup", float64(tr.end(sp))/float64(cfg.Lookups))
			sp = tr.begin("workload.RandScanCosyBatched")
			cosy, err := workload.RandScanCosyBatched(pr, eng, c)
			if err != nil {
				return err
			}
			tr.note("workload.rand_cosy.ns_per_lookup", float64(tr.end(sp))/float64(cfg.Lookups))
			if trap != cosy || trap != lookupBytes {
				r.fail("pass %d: trap lookups %d bytes, cosy %d, want %d", pass, trap, cosy, lookupBytes)
				r.failed += 2 * dbBatches(c)
			}
			r.out.trapTotal += trap
			r.out.cosyTotal += cosy
			r.attempted += 1 + 2*dbBatches(c)
		}
		end = markEnd(s, pr, ext)

		fires, err := probeFires(pr, probe)
		if err != nil {
			return err
		}
		r.out.fires = fires
		// The probe saw every crossing from its own attach up to, not
		// including, the probe_read still in flight.
		if saw := s.K.TotalCalls() - 1 - beforeAttach; fires != saw {
			r.failAll("kprobe fired %d times for %d crossings", fires, saw)
		}
		if e, ok := s.K.KuExt(ext); !ok {
			r.failAll("kucode pump %d is not loaded", ext)
		} else if e.Err != nil {
			r.failAll("kucode pump died: %v", e.Err)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		return r, err
	}
	r.measure(cpu0, start, end)
	return r, nil
}

// probeFires reads E9's probe maps back and sums the per-call counts.
func probeFires(pr *sys.Proc, id int) (int64, error) {
	buf, err := pr.Mmap(1 << 20)
	if err != nil {
		return 0, err
	}
	n, err := pr.ProbeRead(id, buf)
	if err != nil {
		return 0, err
	}
	raw, err := pr.Peek(buf, n)
	if err != nil {
		return 0, err
	}
	snaps, err := kprobe.DecodeSnapshot(raw)
	if err != nil {
		return 0, err
	}
	var fires int64
	for _, v := range snaps[1].Hash {
		fires += v
	}
	return fires, nil
}
