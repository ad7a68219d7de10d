package bench

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/kmon"
	"repro/internal/kperf"
	"repro/internal/kprobe"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/workload"
)

// E9 is this project's extension experiment (the paper's thesis
// applied to observability itself): build the same per-syscall latency
// histogram for PostMark two ways and compare what crosses the
// user/kernel boundary.
//
//   - streaming: every syscall exit emits a kmon event into the ring;
//     a user-space consumer polls the character device, copies events
//     out, and aggregates them in user space — one copy per event,
//     one crossing per poll (the §3.3 logger architecture).
//   - kprobe: a verified probe program attached at the syscall_exit
//     tracepoint aggregates into in-kernel maps; user space issues
//     exactly one probe_read at the end and copies only the summary.
//
// Both observers are exact (no sampling, no drops) and the probed
// run stays cycle-deterministic; the probe's own execution cost is
// real, charged to the triggering process, and attributed to the
// "probe" kperf subsystem.
func E9(perf bool) (*Table, error) {
	t := &Table{ID: "E9", Title: "in-kernel aggregation (kprobe) vs event streaming (kmon)"}
	cfg := workload.DefaultPostMark()
	cfg.InitialFiles = 200
	cfg.Transactions = 800

	// probeSrc aggregates latency per (pid, syscall): the in-kernel
	// analogue of what the streaming consumer computes in user space.
	const probeSrc = `
	int probe() {
		int k;
		k = ctx_pid() * 256 + ctx_nr();
		map_hist(0, k, ctx_cycles());
		map_add(1, k, 1);
		return 0;
	}`
	probeMaps := []kprobe.MapSpec{
		{Name: "lat", Kind: kprobe.MapHist},
		{Name: "calls", Kind: kprobe.MapHash},
	}

	newSys := func() (*core.System, error) {
		return core.New(perfOpts(core.Options{CacheBlocks: 1024}, perf))
	}
	runPM := func(s *core.System, done *atomic.Bool, ph *Phase, calls *int64) {
		s.Spawn("postmark", func(pr *sys.Proc) error {
			defer done.Store(true)
			u0, s0, w0 := pr.P.Times()
			t0 := s.M.Clock.Now()
			if _, err := workload.PostMark(pr, cfg); err != nil {
				return err
			}
			u1, s1, w1 := pr.P.Times()
			*ph = Phase{User: u1 - u0, Sys: s1 - s0, Wait: w1 - w0, Elapsed: s.M.Clock.Now() - t0}
			*calls = s.K.TotalCalls()
			return nil
		})
	}

	// Control: PostMark unobserved.
	var ctrl Phase
	{
		s, err := newSys()
		if err != nil {
			return nil, err
		}
		var done atomic.Bool
		var calls int64
		runPM(s, &done, &ctrl, &calls)
		if err := s.Run(); err != nil {
			return nil, err
		}
		t.ObservePerf(s)
	}

	// Streaming: an exit tap bridges every PostMark syscall into the
	// kmon ring (obj = duration, line = syscall nr); the consumer
	// spins on the device, copying events out and binning them in
	// user space.
	var stream Phase
	var streamPolls, streamEvents, streamLogged, streamDrops int64
	streamHist := make(map[int64]*kperf.Histogram)
	{
		s, err := newSys()
		if err != nil {
			return nil, err
		}
		var done atomic.Bool
		var pmCalls int64
		runPM(s, &done, &stream, &pmCalls)
		pmPID := 1 // first spawn
		s.Mon.RingEnabled = true
		file := s.Mon.FileID("kernel/syscall.c")
		s.K.AddExitTap(func(p *kernel.Process, nr sys.Nr, in, out int, dur sim.Cycles) {
			if p.PID == pmPID {
				s.Mon.LogEvent(p, uint64(dur), kmon.EvUser, file, int32(nr))
			}
		})
		s.Spawn("consumer", func(pr *sys.Proc) error {
			r, err := kmon.NewReader(pr, "/dev/kernevents", 256)
			if err != nil {
				return err
			}
			for {
				ev, ok, err := r.Next()
				if err != nil {
					return err
				}
				if ok {
					h := streamHist[int64(ev.Line)]
					if h == nil {
						h = &kperf.Histogram{}
						streamHist[int64(ev.Line)] = h
					}
					h.Observe(sim.Cycles(ev.Obj))
					continue
				}
				if done.Load() {
					break
				}
			}
			streamPolls, streamEvents = r.Polls, r.EventsRead
			return r.Close()
		})
		if err := s.Run(); err != nil {
			return nil, err
		}
		streamLogged = s.Mon.Logged
		streamDrops = s.Mon.Dropped
		t.ObservePerf(s)
	}

	// Kprobe: attach the aggregation program before PostMark's first
	// syscall, sleep through the run, then pull the summary back with
	// a single probe_read.
	var probed Phase
	var probeCalls, probeCrossings, probeBytes int64
	var probeSum int64
	var probeMgr *kprobe.Manager
	{
		s, err := newSys()
		if err != nil {
			return nil, err
		}
		probeMgr = s.Probes
		var done atomic.Bool
		ctl := s.Spawn("ktap", func(pr *sys.Proc) error {
			id, err := pr.ProbeAttach(kprobe.Spec{
				Tracepoint: kprobe.TpSyscallExit,
				Source:     probeSrc,
				Maps:       probeMaps,
			})
			if err != nil {
				return err
			}
			for !done.Load() {
				pr.P.BlockFor(s.M.Costs.TimeSlice)
			}
			buf, err := pr.Mmap(1 << 20)
			if err != nil {
				return err
			}
			n, err := pr.ProbeRead(id, buf)
			if err != nil {
				return err
			}
			probeBytes = int64(n)
			raw, err := pr.Peek(buf, n)
			if err != nil {
				return err
			}
			snaps, err := kprobe.DecodeSnapshot(raw)
			if err != nil {
				return err
			}
			for _, v := range snaps[1].Hash {
				probeSum += v
			}
			// Everything the kernel counted so far except the
			// in-flight probe_read (entered, not yet exited) must be
			// in the summary.
			probeCalls = s.K.TotalCalls() - 1
			return nil
		})
		runPM(s, &done, &probed, new(int64))
		if err := s.Run(); err != nil {
			return nil, err
		}
		if err := ctl.Err(); err != nil {
			return nil, err
		}
		probeCrossings = s.K.Calls[sys.NrProbeAttach] + s.K.Calls[sys.NrProbeRead]
		t.ObservePerf(s)
	}

	for _, ph := range []Phase{ctrl, stream, probed} {
		t.Observe(ph)
	}

	streamBytes := streamEvents * kmon.EventBytes
	crossRatio := float64(streamPolls) / float64(probeCrossings)
	t.Add("boundary crossings to observe", "probe_read >=10x fewer",
		fmt.Sprintf("%d polls vs %d probe syscalls (%.0fx)", streamPolls, probeCrossings, crossRatio),
		crossRatio >= 10)

	byteRatio := float64(streamBytes) / float64(probeBytes)
	t.Add("bytes copied to user space", "summary >=5x smaller",
		fmt.Sprintf("%d event bytes vs %d summary bytes (%.0fx)", streamBytes, probeBytes, byteRatio),
		byteRatio >= 5)

	var streamBinned int64
	for _, h := range streamHist {
		streamBinned += h.Snapshot().Count
	}
	t.Add("streaming exactness", "delivered + dropped == logged",
		fmt.Sprintf("%d + %d vs %d logged, %d binned", streamEvents, streamDrops, streamLogged, streamBinned),
		streamEvents+streamDrops == streamLogged && streamBinned == streamEvents)

	t.Add("in-kernel aggregation exactness", "map counts == syscalls observed",
		fmt.Sprintf("%d aggregated vs %d syscalls", probeSum, probeCalls),
		probeSum == probeCalls && probeSum > 0)

	ovProbe := overhead(ctrl.Elapsed, probed.Elapsed)
	t.Add("probe overhead on PostMark", "<25%", pct(ovProbe), inBand(ovProbe, 0.0, 0.25))

	ovStream := overhead(ctrl.Elapsed, stream.Elapsed)
	t.Add("streaming observer overhead", "E6-like (polling consumer)", pct(ovStream),
		ovStream > ovProbe)

	t.Add("probe programs fired", "once per syscall exit",
		fmt.Sprintf("%d fired, %d skipped", probeMgr.Fired, probeMgr.Skipped),
		probeMgr.Fired > 0 && probeMgr.Skipped == 0)

	t.Note("the probe run charges %d cycles of in-kernel probe execution (kperf subsystem \"probe\"); "+
		"streaming pays in boundary crossings and user-space CPU instead", int64(probeMgr.Cycles))
	return t, nil
}
