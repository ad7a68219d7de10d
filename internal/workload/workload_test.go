package workload

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cosy/kext"
	"repro/internal/cosy/lang"
	"repro/internal/sys"
	"repro/internal/vfs"
)

func newSys(t *testing.T, opts core.Options) *core.System {
	t.Helper()
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPostMarkRuns(t *testing.T) {
	s := newSys(t, core.Options{})
	cfg := DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 50, 200
	var st PostMarkStats
	s.Spawn("postmark", func(pr *sys.Proc) error {
		var err error
		st, err = PostMark(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Created < cfg.InitialFiles || st.Read == 0 || st.Appended == 0 || st.Deleted == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Everything cleaned up.
	s2 := s
	_ = s2
	if st.Created != st.Deleted {
		t.Fatalf("created %d != deleted %d (cleanup phase)", st.Created, st.Deleted)
	}
}

func TestPostMarkDeterministic(t *testing.T) {
	run := func() PostMarkStats {
		s := newSys(t, core.Options{})
		cfg := DefaultPostMark()
		cfg.InitialFiles, cfg.Transactions = 30, 100
		var st PostMarkStats
		s.Spawn("pm", func(pr *sys.Proc) error {
			var err error
			st, err = PostMark(pr, cfg)
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestPostMarkNames pins PostMark's file names to fmt's "%s/f%06d",
// below and past six digits.
func TestPostMarkNames(t *testing.T) {
	for _, id := range []int{0, 7, 999_999, 1_000_000} {
		if got, want := postmarkName("/pm", id), fmt.Sprintf("%s/f%06d", "/pm", id); got != want {
			t.Errorf("postmarkName(%d) = %q, want %q", id, got, want)
		}
	}
}

func TestPostMarkOnBtfs(t *testing.T) {
	s := newSys(t, core.Options{FS: core.FSBtfs})
	cfg := DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 30, 100
	s.Spawn("pm", func(pr *sys.Proc) error {
		_, err := PostMark(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Btfs.TotalMemOps == 0 {
		t.Fatal("btfs saw no module memory ops")
	}
}

func TestCompileWorkload(t *testing.T) {
	s := newSys(t, core.Options{Wrap: core.WrapKmalloc})
	cfg := DefaultCompile()
	cfg.Sources = 20
	var st CompileStats
	p := s.Spawn("make", func(pr *sys.Proc) error {
		if err := CompileSetup(pr, cfg); err != nil {
			return err
		}
		var err error
		st, err = Compile(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Compiled != cfg.Sources {
		t.Fatalf("compiled %d of %d", st.Compiled, cfg.Sources)
	}
	// Compiles are CPU-bound: nearly all time is on the CPU (user
	// compile work plus toolchain kernel time), not waiting on disk.
	u, sysT, w := p.Times()
	if w*3 > u+sysT {
		t.Fatalf("compile workload I/O-bound: wait %d vs cpu %d", w, u+sysT)
	}
	if u == 0 {
		t.Fatal("no user compile work recorded")
	}
	// wrapfs private data was allocated for the touched objects.
	if s.Wrap.PrivateAllocs == 0 || s.Wrap.NameAllocs == 0 {
		t.Fatalf("wrapfs allocations: private=%d name=%d", s.Wrap.PrivateAllocs, s.Wrap.NameAllocs)
	}
}

func TestInteractiveTraceShape(t *testing.T) {
	s := newSys(t, core.Options{})
	rec := s.EnableTrace()
	cfg := DefaultInteractive()
	cfg.Dirs, cfg.FilesPerDir, cfg.ListOps, cfg.ViewOps = 8, 16, 60, 30
	s.Spawn("user", func(pr *sys.Proc) error {
		if err := InteractiveSetup(pr, cfg); err != nil {
			return err
		}
		_, err := Interactive(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The dominant consolidation candidate must be getdents-stat.
	if rec.Calls(sys.NrStat) == 0 || rec.Calls(sys.NrGetdents) == 0 {
		t.Fatal("no readdir-stat traffic")
	}
	paths := rec.TopPatterns(uint64(cfg.ListOps/4), 5)
	found := false
	for _, p := range paths {
		name := rec.Graph.Name(p)
		if strings.Contains(name, "getdents") && strings.Contains(name, "stat") {
			found = true
		}
	}
	if !found {
		names := make([]string, len(paths))
		for i, p := range paths {
			names[i] = rec.Graph.Name(p)
		}
		t.Fatalf("expected a getdents..stat pattern; mined %v", names)
	}
}

func TestInteractivePlusEquivalent(t *testing.T) {
	cfg := DefaultInteractive()
	cfg.Dirs, cfg.FilesPerDir, cfg.ListOps, cfg.ViewOps = 6, 12, 40, 20

	run := func(plus bool) (InteractiveStats, int64) {
		s := newSys(t, core.Options{})
		var st InteractiveStats
		p := s.Spawn("user", func(pr *sys.Proc) error {
			if err := InteractiveSetup(pr, cfg); err != nil {
				return err
			}
			var err error
			if plus {
				st, err = InteractivePlus(pr, cfg)
			} else {
				st, err = Interactive(pr, cfg)
			}
			return err
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		u, sy, _ := p.Times()
		return st, int64(u + sy)
	}
	oldSt, oldCost := run(false)
	newSt, newCost := run(true)
	if oldSt.StatCalls != newSt.StatCalls || oldSt.Lists != newSt.Lists {
		t.Fatalf("different work: %+v vs %+v", oldSt, newSt)
	}
	if newCost >= oldCost {
		t.Fatalf("readdirplus session not cheaper: %d vs %d", newCost, oldCost)
	}
}

func TestDirSweepBothWaysAgree(t *testing.T) {
	s := newSys(t, core.Options{})
	cfg := DefaultDirSweep(100)
	s.Spawn("sweep", func(pr *sys.Proc) error {
		if err := DirSweepSetup(pr, cfg); err != nil {
			return err
		}
		a, err := ReaddirStat(pr, cfg)
		if err != nil {
			return err
		}
		b, err := ReaddirPlusSweep(pr, cfg)
		if err != nil {
			return err
		}
		want := ExpectedSweepBytes(cfg)
		if a != want || b != want {
			t.Errorf("sweep totals %d/%d, want %d", a, b, want)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDBScansAgree(t *testing.T) {
	s := newSys(t, core.Options{})
	cfg := DefaultDB()
	cfg.Records, cfg.Lookups = 500, 100
	e := s.CosyEngine(kext.ModeDataSeg)
	s.Spawn("db", func(pr *sys.Proc) error {
		if err := DBSetup(pr, cfg); err != nil {
			return err
		}
		seqU, err := SeqScanUser(pr, cfg)
		if err != nil {
			return err
		}
		seqC, err := SeqScanCosy(pr, e, cfg)
		if err != nil {
			return err
		}
		if seqU != dbSize(cfg) || seqC != dbSize(cfg) {
			t.Errorf("seq scans: user=%d cosy=%d want %d", seqU, seqC, dbSize(cfg))
		}
		randU, err := RandScanUser(pr, cfg)
		if err != nil {
			return err
		}
		randC, err := RandScanCosy(pr, e, cfg)
		if err != nil {
			return err
		}
		want := int64(cfg.Lookups * cfg.RecSize)
		if randU != want || randC != want {
			t.Errorf("rand scans: user=%d cosy=%d want %d", randU, randC, want)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCosyScansFaster(t *testing.T) {
	cfg := DefaultDB()
	cfg.Records, cfg.Lookups = 1000, 300

	measure := func(fn func(pr *sys.Proc, e *kext.Engine) error) int64 {
		s := newSys(t, core.Options{})
		e := s.CosyEngine(kext.ModeDataSeg)
		var cost int64
		p := s.Spawn("db", func(pr *sys.Proc) error {
			if err := DBSetup(pr, cfg); err != nil {
				return err
			}
			u0, s0, _ := pr.P.Times()
			if err := fn(pr, e); err != nil {
				return err
			}
			u1, s1, _ := pr.P.Times()
			cost = int64(u1 - u0 + s1 - s0)
			return nil
		})
		_ = p
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return cost
	}
	seqUser := measure(func(pr *sys.Proc, e *kext.Engine) error {
		_, err := SeqScanUser(pr, cfg)
		return err
	})
	seqCosy := measure(func(pr *sys.Proc, e *kext.Engine) error {
		_, err := SeqScanCosy(pr, e, cfg)
		return err
	})
	if seqCosy >= seqUser {
		t.Fatalf("cosy seq scan not faster: %d vs %d", seqCosy, seqUser)
	}
	randUser := measure(func(pr *sys.Proc, e *kext.Engine) error {
		_, err := RandScanUser(pr, cfg)
		return err
	})
	randCosy := measure(func(pr *sys.Proc, e *kext.Engine) error {
		_, err := RandScanCosy(pr, e, cfg)
		return err
	})
	if randCosy >= randUser {
		t.Fatalf("cosy rand scan not faster: %d vs %d", randCosy, randUser)
	}
}

// TestRandScanBatchesRebind requires every compound the batched
// random scan submits, assembled once per batch length and rebound, to
// be byte for byte a fresh assembly for the batch's generator state
// and lookup count, with and without a shorter last batch.
func TestRandScanBatchesRebind(t *testing.T) {
	for _, lookups := range []int{RandBatch - 1, RandBatch, 3*RandBatch + 5, 1500} {
		cfg := DefaultDB()
		cfg.Lookups = lookups
		x, done, batches := lcgSeed(cfg), 0, 0
		err := randScanBatches(cfg, func(raw []byte) error {
			count := min(RandBatch, lookups-done)
			want, err := randScanBatchCompound(cfg, x, count)
			if err != nil {
				return err
			}
			if !bytes.Equal(raw, want) {
				return fmt.Errorf("batch %d: %d bytes differ from a fresh compound's %d", batches, len(raw), len(want))
			}
			for j := 0; j < count; j++ {
				x = (1103515245*x + 12345) % (1 << 31)
			}
			done += count
			batches++
			return nil
		})
		if err != nil {
			t.Errorf("%d lookups: %v", lookups, err)
		} else if done != lookups || batches != (lookups+RandBatch-1)/RandBatch {
			t.Errorf("%d lookups: %d batches covered %d", lookups, batches, done)
		}
	}
}

// TestRandScanCosyBatchedAllocsFlat pins the host cost of the batched
// random scan at zero heap objects once its table shape has been
// scanned: the plan keeps the assembled compounds and the encode
// buffer, and the Cosy engine hands each compound's open the path
// string it read last, so 4 and 40 batches allocate nothing, and
// neither does a prebuilt compound's submission.
func TestRandScanCosyBatchedAllocsFlat(t *testing.T) {
	s := newSys(t, core.Options{})
	e := s.CosyEngine(kext.ModeDataSeg)
	cfg := DefaultDB()
	cfg.Records = 64
	var submit, rebuild float64
	var scans [2]float64
	s.Spawn("db", func(pr *sys.Proc) error {
		if err := DBSetup(pr, cfg); err != nil {
			return err
		}
		raw, err := randScanBatchCompound(cfg, lcgSeed(cfg), RandBatch)
		if err != nil {
			return err
		}
		var runErr error
		submit = testing.AllocsPerRun(10, func() {
			if _, err := e.ExecRing(pr, raw); err != nil {
				runErr = err
			}
		})
		if poolDropsPlans {
			rebuild = 1 + testing.AllocsPerRun(10, func() {
				comp, _, err := randScanCompound(cfg, lcgSeed(cfg), RandBatch)
				if err == nil {
					_ = lang.AppendEncode(nil, comp)
				} else {
					runErr = err
				}
			})
		}
		for i, batches := range []int{4, 40} {
			c := cfg
			c.Lookups = batches * RandBatch
			scans[i] = testing.AllocsPerRun(10, func() {
				n, err := RandScanCosyBatched(pr, e, c)
				if err == nil && n != int64(c.Lookups*c.RecSize) {
					err = fmt.Errorf("%d lookups read %d bytes", c.Lookups, n)
				}
				if err != nil {
					runErr = err
				}
			})
		}
		return runErr
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("a prebuilt batch compound allocates %.0f objects; a batched scan %.0f at 4 batches and %.0f at 40",
		submit, scans[0], scans[1])
	if submit != 0 {
		t.Errorf("a prebuilt batch compound allocates %.0f objects, want 0", submit)
	}
	for i, batches := range []int{4, 40} {
		if scans[i] > rebuild {
			t.Errorf("a batched scan of %d batches allocates %.0f objects, want at most %.0f", batches, scans[i], rebuild)
		}
	}
}

// poolDropsPlans is set under the race detector, whose sync.Pool drops
// a quarter of what it is given: a scan may then find no plan for its
// shape and build one, one assembly, one encode buffer and the plan.
var poolDropsPlans bool

// TestRandScanPlansConcurrent scans from two goroutines at once, each
// on a machine of its own, with tables of the same shape and of
// different shapes: the scans share randScanPlans, and every scan's
// total and every batch's bytes must equal those of a serial run.
func TestRandScanPlansConcurrent(t *testing.T) {
	type result struct {
		totals  []int64
		batches []byte
	}
	// scan runs cfg's random scan three times on a fresh machine, once
	// per seed, recording RandScanCosyBatched's totals and, through a
	// second pass that submits the same batches, their bytes.
	scan := func(cfg DBConfig) (result, error) {
		var res result
		s, err := core.New(core.Options{})
		if err != nil {
			return res, err
		}
		e := s.CosyEngine(kext.ModeDataSeg)
		s.Spawn("db", func(pr *sys.Proc) error {
			if err := DBSetup(pr, cfg); err != nil {
				return err
			}
			for seed := uint64(0); seed < 3; seed++ {
				c := cfg
				c.Seed += seed
				n, err := RandScanCosyBatched(pr, e, c)
				if err != nil {
					return err
				}
				res.totals = append(res.totals, n)
				err = randScanBatches(c, func(raw []byte) error {
					res.batches = append(res.batches, raw...)
					_, err := e.ExecRing(pr, raw)
					return err
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		return res, s.Run()
	}
	base := DefaultDB()
	base.Records, base.Lookups = 96, 3*RandBatch+5
	sameShape := base
	sameShape.Seed, sameShape.Lookups = 101, 2*RandBatch+9
	otherShape := base
	otherShape.Path, otherShape.Records, otherShape.RecSize = "/other.tbl", 70, 300
	for _, pair := range []struct {
		name string
		cfgs [2]DBConfig
	}{
		{"same shape", [2]DBConfig{base, sameShape}},
		{"different shapes", [2]DBConfig{base, otherShape}},
	} {
		var serial, parallel [2]result
		for i, cfg := range pair.cfgs {
			var err error
			if serial[i], err = scan(cfg); err != nil {
				t.Fatalf("%s: serial scan %d: %v", pair.name, i, err)
			}
		}
		var wg sync.WaitGroup
		for i, cfg := range pair.cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if parallel[i], err = scan(cfg); err != nil {
					t.Errorf("%s: concurrent scan %d: %v", pair.name, i, err)
				}
			}()
		}
		wg.Wait()
		for i := range pair.cfgs {
			if fmt.Sprint(parallel[i].totals) != fmt.Sprint(serial[i].totals) {
				t.Errorf("%s: scan %d totals %v concurrently, %v serially", pair.name, i, parallel[i].totals, serial[i].totals)
			}
			if !bytes.Equal(parallel[i].batches, serial[i].batches) {
				t.Errorf("%s: scan %d submitted %d batch bytes concurrently that differ from the serial %d",
					pair.name, i, len(parallel[i].batches), len(serial[i].batches))
			}
		}
	}
}

// TestDBSetupWritesRamp reads the table back through the syscall
// interface: byte i of record r must be byte(r+i), for records past
// the ramp's 256-byte period and a record size that is not a power of
// two.
func TestDBSetupWritesRamp(t *testing.T) {
	for _, recSize := range []int{256, 300} {
		cfg := DefaultDB()
		cfg.Records, cfg.RecSize = 300, recSize
		s := newSys(t, core.Options{})
		s.Spawn("db", func(pr *sys.Proc) error {
			if err := DBSetup(pr, cfg); err != nil {
				return err
			}
			fd, err := pr.Open(cfg.Path, sys.ORdonly)
			if err != nil {
				return err
			}
			buf, err := pr.Mmap(cfg.RecSize)
			if err != nil {
				return err
			}
			for r := 0; r < cfg.Records; r++ {
				n, err := pr.Read(fd, buf)
				if err != nil {
					return err
				}
				rec, err := pr.Peek(buf, n)
				if err != nil {
					return err
				}
				if n != cfg.RecSize {
					return fmt.Errorf("record %d: read %d bytes, want %d", r, n, cfg.RecSize)
				}
				for i, b := range rec {
					if b != byte(r+i) {
						return fmt.Errorf("record %d byte %d is %d, want %d", r, i, b, byte(r+i))
					}
				}
			}
			if n, err := pr.Read(fd, buf); err != nil || n != 0 {
				return fmt.Errorf("read past the last record: %d bytes, %v", n, err)
			}
			return pr.Close(fd)
		})
		if err := s.Run(); err != nil {
			t.Errorf("record size %d: %v", recSize, err)
		}
	}
}

func TestLoggerConsumesEvents(t *testing.T) {
	s := newSys(t, core.Options{})
	s.Mon.RingEnabled = true
	s.InstrumentDcache()
	var done atomic.Bool

	cfg := DefaultPostMark()
	cfg.InitialFiles, cfg.Transactions = 20, 60
	s.Spawn("postmark", func(pr *sys.Proc) error {
		_, err := PostMark(pr, cfg)
		done.Store(true)
		return err
	})

	lcfg := DefaultLogger()
	lcfg.WriteLog = true
	lcfg.LogPath = "/events.log"
	var lst LoggerStats
	s.Spawn("logger", func(pr *sys.Proc) error {
		var err error
		lst, err = Logger(pr, lcfg, done.Load)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if lst.Events == 0 {
		t.Fatal("logger saw no events")
	}
	if lst.BytesLogged == 0 {
		t.Fatal("logger wrote nothing")
	}
	if s.Mon.Logged == 0 {
		t.Fatal("monitor logged nothing")
	}
}

func TestKefenceWrapfsCleanWorkload(t *testing.T) {
	s := newSys(t, core.Options{Wrap: core.WrapKefence})
	cfg := DefaultCompile()
	cfg.Sources = 10
	s.Spawn("make", func(pr *sys.Proc) error {
		if err := CompileSetup(pr, cfg); err != nil {
			return err
		}
		_, err := Compile(pr, cfg)
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.Kef.Reports()) != 0 {
		t.Fatalf("kefence flagged clean module: %v", s.Kef.Reports()[0])
	}
	st := s.Kef.Stats()
	if st.TotalAllocs == 0 {
		t.Fatal("no guarded allocations happened")
	}
	if st.MeanAllocSize() > 120 {
		t.Fatalf("mean alloc %.0f bytes; paper reports ~80", st.MeanAllocSize())
	}
}

func TestWorkloadErrorsPropagate(t *testing.T) {
	s := newSys(t, core.Options{})
	s.Spawn("bad", func(pr *sys.Proc) error {
		cfg := DefaultDB()
		cfg.Path = "/no/such/dir/db"
		_, err := SeqScanUser(pr, cfg)
		if !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
