package sys

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/kgcc"
	"repro/internal/kperf"
	"repro/internal/kring"
	"repro/internal/ktrace"
	"repro/internal/vfs"
	"repro/internal/vfs/memfs"
)

// NOTE: these helpers run inside the spawned process goroutine, where
// t.Fatal would Goexit without unblocking the scheduler — so they
// return errors and the test goroutine reports them.

// stage copies data into the ring's data area at off (user-side, via
// the shared mapping — no boundary crossing).
func stage(h *RingHandle, off int, data []byte) error {
	v, err := h.View(off, len(data))
	if err != nil {
		return err
	}
	return v.CopyOut(0, data)
}

// reap pops exactly n completions.
func reap(h *RingHandle, n int) ([]kring.CQE, error) {
	out := make([]kring.CQE, 0, n)
	for i := 0; i < n; i++ {
		cqe, _, err := h.Pop()
		if err != nil {
			return nil, fmt.Errorf("pop %d/%d: %w", i, n, err)
		}
		out = append(out, cqe)
	}
	return out, nil
}

// pushAll submits every SQE or fails.
func pushAll(h *RingHandle, es ...kring.SQE) error {
	for i := range es {
		if err := h.Push(&es[i]); err != nil {
			return fmt.Errorf("push %d: %w", i, err)
		}
	}
	return nil
}

func TestRingSetupGeometry(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		for _, bad := range []int{0, 3, kring.MaxEntries * 2} {
			if _, err := pr.RingSetup(bad, 0); !errors.Is(err, vfs.ErrInval) {
				t.Errorf("RingSetup(entries=%d): %v", bad, err)
			}
		}
		if _, err := pr.RingSetup(8, maxRingData+1); !errors.Is(err, vfs.ErrInval) {
			t.Error("oversized data area accepted")
		}
		if _, err := pr.RingEnter(99); !errors.Is(err, ErrBadFD) {
			t.Error("ring_enter on unknown ring succeeded")
		}
		h, err := pr.RingSetup(8, 4096)
		if err != nil {
			return err
		}
		if h.Entries() != 8 || h.DataLen() < 4096 {
			t.Errorf("geometry: %d entries, %d data", h.Entries(), h.DataLen())
		}
		if err := h.Close(); err != nil {
			return err
		}
		if _, err := pr.RingEnter(h.ID()); !errors.Is(err, ErrBadFD) {
			t.Error("ring_enter after close succeeded")
		}
		if k.Calls[NrRingSetup] != 5 || k.Calls[NrRingClose] != 1 {
			t.Errorf("ring syscall counts: setup %d close %d", k.Calls[NrRingSetup], k.Calls[NrRingClose])
		}
		return nil
	})
}

// TestRingBatchFDRel drives a whole create-write-read cycle through
// ring batches: creat, write (FDRel), close (FDRel), then
// open/read/close with relative descriptors — two crossings total —
// and verifies the file contents and counters.
func TestRingBatchFDRel(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		h, err := pr.RingSetup(8, 4096)
		if err != nil {
			return err
		}
		path := "/ring.txt"
		payload := []byte("one crossing, many calls")
		if err := stage(h, 0, []byte(path)); err != nil {
			return err
		}
		if err := stage(h, 64, payload); err != nil {
			return err
		}
		if err := pushAll(h,
			kring.SQE{Op: uint16(NrCreat), DataOff: 0, DataLen: uint32(len(path)), UserTag: 1},
			kring.SQE{Op: uint16(NrWrite), Flags: kring.FlagFDRel, Args: [4]int64{1}, DataOff: 64, DataLen: uint32(len(payload)), UserTag: 2},
			kring.SQE{Op: uint16(NrClose), Flags: kring.FlagFDRel, Args: [4]int64{2}, UserTag: 3},
		); err != nil {
			return err
		}
		calls := k.TotalCalls()
		n, err := h.Enter()
		if err != nil {
			return err
		}
		if n != 3 {
			return fmt.Errorf("drain completed %d entries", n)
		}
		if got := k.TotalCalls() - calls; got != 1 {
			t.Errorf("batch of 3 cost %d crossings", got)
		}
		cqes, err := reap(h, 3)
		if err != nil {
			return err
		}
		for i, c := range cqes {
			if c.Err != 0 {
				return fmt.Errorf("cqe %d: errno %d", i, c.Err)
			}
			if c.UserTag != uint64(i+1) {
				t.Errorf("cqe %d: tag %d", i, c.UserTag)
			}
		}
		if cqes[1].Res != int64(len(payload)) || cqes[1].Copied != uint32(len(payload)) {
			t.Errorf("write cqe: %+v", cqes[1])
		}

		// Read it back in a second batch.
		if err := pushAll(h,
			kring.SQE{Op: uint16(NrOpen), DataOff: 0, DataLen: uint32(len(path)), UserTag: 4},
			kring.SQE{Op: uint16(NrRead), Flags: kring.FlagFDRel, Args: [4]int64{1}, DataOff: 1024, DataLen: uint32(len(payload)), UserTag: 5},
			kring.SQE{Op: uint16(NrClose), Flags: kring.FlagFDRel, Args: [4]int64{2}, UserTag: 6},
		); err != nil {
			return err
		}
		if n, err := h.Enter(); err != nil || n != 3 {
			return fmt.Errorf("read batch: %d, %v", n, err)
		}
		cqes, err = reap(h, 3)
		if err != nil {
			return err
		}
		if cqes[1].Res != int64(len(payload)) {
			return fmt.Errorf("read cqe: %+v", cqes[1])
		}
		rv, err := h.View(1024, len(payload))
		if err != nil {
			return err
		}
		got := make([]byte, len(payload))
		if err := rv.CopyIn(0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("zero-copy read back %q", got)
		}
		if pr.OpenFDs() != 0 {
			t.Errorf("%d descriptors leaked", pr.OpenFDs())
		}
		if k.RingOps != 6 {
			t.Errorf("RingOps = %d", k.RingOps)
		}
		if k.RingBytes == 0 {
			t.Error("RingBytes = 0")
		}
		return h.Close()
	})
}

// ringOutcome is everything the classic/ring comparison checks.
type ringOutcome struct {
	size  int64
	data  []byte
	stats [2]vfs.Attr
}

// TestRingResultsMatchClassic runs the same operation sequence through
// the classic trap path and through a ring batch on two fresh
// machines, and requires identical file system outcomes.
func TestRingResultsMatchClassic(t *testing.T) {
	msg := []byte("identical bits")

	var classic ringOutcome
	{
		m, k := env()
		run(t, m, k, func(pr *Proc) error {
			fd, err := pr.Creat("/a")
			if err != nil {
				return err
			}
			ub, err := pr.Mmap(64)
			if err != nil {
				return err
			}
			if err := pr.Poke(ub, msg); err != nil {
				return err
			}
			ub.Len = len(msg)
			if _, err := pr.Write(fd, ub); err != nil {
				return err
			}
			if err := pr.Close(fd); err != nil {
				return err
			}
			if classic.stats[0], err = pr.Stat("/a"); err != nil {
				return err
			}
			if err := pr.Rename("/a", "/b"); err != nil {
				return err
			}
			if classic.stats[1], err = pr.Stat("/b"); err != nil {
				return err
			}
			fd, err = pr.Open("/b", ORdonly)
			if err != nil {
				return err
			}
			rb, err := pr.Mmap(64)
			if err != nil {
				return err
			}
			rb.Len = len(msg)
			n, err := pr.Read(fd, rb)
			if err != nil {
				return err
			}
			classic.data, _ = pr.Peek(rb, n)
			classic.size = int64(n)
			return pr.Close(fd)
		})
	}

	var ringed ringOutcome
	{
		m, k := env()
		run(t, m, k, func(pr *Proc) error {
			h, err := pr.RingSetup(16, 4096)
			if err != nil {
				return err
			}
			if err := stage(h, 0, []byte("/a")); err != nil {
				return err
			}
			if err := stage(h, 8, []byte("/b")); err != nil {
				return err
			}
			if err := stage(h, 64, msg); err != nil {
				return err
			}
			// creat, write, close, stat /a -> attr@128, rename /a->/b,
			// stat /b -> attr@256, open, read -> 512, close.
			if err := pushAll(h,
				kring.SQE{Op: uint16(NrCreat), DataOff: 0, DataLen: 2},
				kring.SQE{Op: uint16(NrWrite), Flags: kring.FlagFDRel, Args: [4]int64{1}, DataOff: 64, DataLen: uint32(len(msg))},
				kring.SQE{Op: uint16(NrClose), Flags: kring.FlagFDRel, Args: [4]int64{2}},
				kring.SQE{Op: uint16(NrStat), Args: [4]int64{128}, DataOff: 0, DataLen: 2},
				kring.SQE{Op: uint16(NrRename), Args: [4]int64{8, 2}, DataOff: 0, DataLen: 2},
				kring.SQE{Op: uint16(NrStat), Args: [4]int64{256}, DataOff: 8, DataLen: 2},
				kring.SQE{Op: uint16(NrOpen), DataOff: 8, DataLen: 2},
				kring.SQE{Op: uint16(NrRead), Flags: kring.FlagFDRel, Args: [4]int64{1}, DataOff: 512, DataLen: uint32(len(msg))},
				kring.SQE{Op: uint16(NrClose), Flags: kring.FlagFDRel, Args: [4]int64{2}},
			); err != nil {
				return err
			}
			n, err := h.Enter()
			if err != nil {
				return err
			}
			if n != 9 {
				return fmt.Errorf("completed %d/9", n)
			}
			cqes, err := reap(h, 9)
			if err != nil {
				return err
			}
			for i, c := range cqes {
				if c.Err != 0 {
					return fmt.Errorf("entry %d: errno %d", i, c.Err)
				}
			}
			ringed.size = cqes[7].Res
			dv, err := h.View(512, int(ringed.size))
			if err != nil {
				return err
			}
			ringed.data = make([]byte, ringed.size)
			if err := dv.CopyIn(0, ringed.data); err != nil {
				return err
			}
			for si, off := range []int{128, 256} {
				av, err := h.View(off, vfs.StatSize)
				if err != nil {
					return err
				}
				sb := make([]byte, vfs.StatSize)
				if err := av.CopyIn(0, sb); err != nil {
					return err
				}
				ringed.stats[si] = vfs.DecodeAttr(sb)
			}
			return h.Close()
		})
	}

	if classic.size != ringed.size || !bytes.Equal(classic.data, ringed.data) {
		t.Errorf("data: classic %q, ring %q", classic.data, ringed.data)
	}
	// Mtime is a virtual-cycle timestamp: the two paths reach the write
	// at different simulated times by design, so it is excluded.
	for i := range classic.stats {
		classic.stats[i].Mtime = 0
		ringed.stats[i].Mtime = 0
	}
	if classic.stats != ringed.stats {
		t.Errorf("stats: classic %+v, ring %+v", classic.stats, ringed.stats)
	}
}

// TestRingErrnoFidelity checks both halves of the error contract: the
// CQE carries the errno code, Pop carries the original Go error.
func TestRingErrnoFidelity(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		h, err := pr.RingSetup(8, 256)
		if err != nil {
			return err
		}
		if err := stage(h, 0, []byte("/ghost")); err != nil {
			return err
		}
		if err := pushAll(h,
			kring.SQE{Op: uint16(NrOpen), DataOff: 0, DataLen: 6, UserTag: 7},
			kring.SQE{Op: uint16(NrGetdents), UserTag: 8},
			kring.SQE{Op: uint16(NrClose), Flags: kring.FlagFDRel, Args: [4]int64{50}, UserTag: 9},
		); err != nil {
			return err
		}
		if _, err := h.Enter(); err != nil {
			return err
		}
		cqe, herr, err := h.Pop()
		if err != nil {
			return err
		}
		if cqe.Err != errnoNoEnt || !errors.Is(herr, vfs.ErrNotExist) {
			t.Errorf("open /ghost: errno %d, herr %v", cqe.Err, herr)
		}
		// getdents is classic-only: ENOSYS on the ring.
		cqe, herr, err = h.Pop()
		if err != nil {
			return err
		}
		if cqe.Err != errnoNoSys || !errors.Is(herr, errNoSys) {
			t.Errorf("getdents: errno %d, herr %v", cqe.Err, herr)
		}
		// FDRel backref outside this drain's completions.
		cqe, herr, err = h.Pop()
		if err != nil {
			return err
		}
		if cqe.Err != errnoInval || !errors.Is(herr, vfs.ErrInval) {
			t.Errorf("bad FDRel: errno %d, herr %v", cqe.Err, herr)
		}

		// Two crossings without reaping, failures at known positions:
		// every Pop's error must be its own CQE's.
		ghost := kring.SQE{Op: uint16(NrOpen), DataOff: 0, DataLen: 6}
		for _, batch := range [][]kring.SQE{
			{{Op: uint16(NrGetpid)}, ghost, {Op: uint16(NrGetpid)}, {Op: uint16(NrClose), Args: [4]int64{99}}},
			{{Op: uint16(NrClose), Args: [4]int64{77}}, {Op: uint16(NrGetpid)}, ghost, {Op: uint16(NrGetpid)}},
		} {
			if err := pushAll(h, batch...); err != nil {
				return err
			}
			if n, err := h.Enter(); err != nil || n != 4 {
				return fmt.Errorf("unreaped batch: %d, %v", n, err)
			}
		}
		for i, want := range []uint32{0, errnoNoEnt, 0, errnoBadF, errnoBadF, 0, errnoNoEnt, 0} {
			cqe, herr, err := h.Pop()
			if err != nil {
				return err
			}
			if cqe.Err != want || errnoOf(herr) != want {
				t.Errorf("unreaped completion %d: errno %d, herr %v, want errno %d", i, cqe.Err, herr, want)
			}
		}

		// A 4-entry ring (8 CQ slots) wrapped ten times with every third
		// entry failing, reaped one batch behind so the CQ is full at
		// every reap.
		h4, err := pr.RingSetup(4, 0)
		if err != nil {
			return err
		}
		pushed, reaped := 0, 0
		reapBatch := func() error {
			for i := 0; i < 4; i++ {
				cqe, herr, err := h4.Pop()
				if err != nil {
					return err
				}
				var want uint32
				if reaped%3 == 2 {
					want = errnoBadF
				}
				if cqe.UserTag != uint64(reaped) || cqe.Err != want || errnoOf(herr) != want {
					t.Errorf("entry %d: tag %d, errno %d, herr %v, want errno %d", reaped, cqe.UserTag, cqe.Err, herr, want)
				}
				reaped++
			}
			return nil
		}
		for round := 0; round < 10; round++ {
			for i := 0; i < 4; i++ {
				e := kring.SQE{Op: uint16(NrGetpid), UserTag: uint64(pushed)}
				if pushed%3 == 2 {
					e = kring.SQE{Op: uint16(NrClose), Args: [4]int64{99}, UserTag: uint64(pushed)}
				}
				if err := h4.Push(&e); err != nil {
					return err
				}
				pushed++
			}
			if n, err := h4.Enter(); err != nil || n != 4 {
				return fmt.Errorf("round %d: %d, %v", round, n, err)
			}
			if round > 0 {
				if err := reapBatch(); err != nil {
					return err
				}
			}
		}
		return reapBatch()
	})
	_ = k
}

// TestRingSqWrapThroughSyscalls drives many batches through a tiny
// ring so the shared cursors wrap several times under real dispatch.
func TestRingSqWrapThroughSyscalls(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		h, err := pr.RingSetup(4, 0)
		if err != nil {
			return err
		}
		for round := 0; round < 10; round++ {
			for i := 0; i < 4; i++ {
				if err := h.Push(&kring.SQE{Op: uint16(NrGetpid), UserTag: uint64(round*4 + i)}); err != nil {
					return err
				}
			}
			if n, err := h.Enter(); err != nil || n != 4 {
				return fmt.Errorf("round %d: %d, %v", round, n, err)
			}
			cqes, err := reap(h, 4)
			if err != nil {
				return err
			}
			for _, c := range cqes {
				if c.Err != 0 || c.Res != int64(pr.P.PID) {
					return fmt.Errorf("getpid cqe %+v", c)
				}
			}
		}
		if k.RingOps != 40 {
			t.Errorf("RingOps = %d", k.RingOps)
		}
		if k.Calls[NrRingEnter] != 10 {
			t.Errorf("ring_enter crossings = %d", k.Calls[NrRingEnter])
		}
		return nil
	})
}

// TestRingBackpressure fills the CQ without reaping and proves the
// drain stops (leaving SQEs queued) rather than dropping completions.
func TestRingBackpressure(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		h, err := pr.RingSetup(4, 0)
		if err != nil {
			return err
		}
		fill := func() error {
			for i := 0; i < 4; i++ {
				if err := h.Push(&kring.SQE{Op: uint16(NrGetpid)}); err != nil {
					return err
				}
			}
			return nil
		}
		// CQ capacity is 2*entries = 8: two un-reaped batches fill it.
		for b := 0; b < 2; b++ {
			if err := fill(); err != nil {
				return err
			}
			if n, err := h.Enter(); err != nil || n != 4 {
				return fmt.Errorf("batch %d: %d, %v", b, n, err)
			}
		}
		if err := fill(); err != nil {
			return err
		}
		if n, err := h.Enter(); err != nil || n != 0 {
			return fmt.Errorf("backpressured drain completed %d, %v", n, err)
		}
		if sq, _ := h.rs.ur.SqLen(); sq != 4 {
			return fmt.Errorf("SQ after backpressure: %d entries", sq)
		}
		if ov := h.Overflows(); ov != 0 {
			return fmt.Errorf("backpressure counted as overflow (%d)", ov)
		}
		// Reaping frees CQ space; the queued entries then complete.
		if _, err := reap(h, 8); err != nil {
			return err
		}
		if n, err := h.Enter(); err != nil || n != 4 {
			return fmt.Errorf("post-reap drain: %d, %v", n, err)
		}
		_, err = reap(h, 4)
		return err
	})
	_ = k
}

// TestRingAnycallSkipAndAbort exercises the skip and abort verdicts:
// the extension sees the previous completion and steers the batch.
func TestRingAnycallSkipAndAbort(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		// Skip (arg) entries when the previous result is positive;
		// abort outright when arg is negative.
		skipper, err := pr.KuLoad(KuSpec{Source: `
		int steer(int pos, int prev, int err, int arg) {
			if (arg < 0) { return 0 - 1; }
			if (prev > 0) { return (arg * 8) + 1; }
			return 0;
		}`, Entry: "steer", Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}

		h, err := pr.RingSetup(8, 512)
		if err != nil {
			return err
		}
		// getpid; anycall(skip 2); two skipped closes; getpid.
		if err := pushAll(h,
			kring.SQE{Op: uint16(NrGetpid), UserTag: 1},
			kring.SQE{Op: kring.OpAnycall, Ext: uint32(skipper), Args: [4]int64{2}, UserTag: 2},
			kring.SQE{Op: uint16(NrClose), Args: [4]int64{77}, UserTag: 3},
			kring.SQE{Op: uint16(NrClose), Args: [4]int64{78}, UserTag: 4},
			kring.SQE{Op: uint16(NrGetpid), UserTag: 5},
		); err != nil {
			return err
		}
		if n, err := h.Enter(); err != nil || n != 5 {
			return fmt.Errorf("skip drain: %d, %v", n, err)
		}
		cqes, err := reap(h, 5)
		if err != nil {
			return err
		}
		if cqes[1].Err != 0 || cqes[1].Res != 2*8+1 {
			t.Errorf("anycall cqe %+v", cqes[1])
		}
		if cqes[2].Err != errnoCanceled || cqes[3].Err != errnoCanceled {
			t.Errorf("skipped entries: errno %d, %d", cqes[2].Err, cqes[3].Err)
		}
		if cqes[4].Err != 0 || cqes[4].Res != int64(pr.P.PID) {
			t.Errorf("post-skip getpid %+v", cqes[4])
		}

		// Abort: everything after the anycall is canceled.
		if err := pushAll(h,
			kring.SQE{Op: uint16(NrGetpid), UserTag: 10},
			kring.SQE{Op: kring.OpAnycall, Ext: uint32(skipper), Args: [4]int64{-1}, UserTag: 11},
			kring.SQE{Op: uint16(NrGetpid), UserTag: 12},
			kring.SQE{Op: uint16(NrGetpid), UserTag: 13},
		); err != nil {
			return err
		}
		if n, err := h.Enter(); err != nil || n != 4 {
			return fmt.Errorf("abort drain: %d, %v", n, err)
		}
		cqes, err = reap(h, 4)
		if err != nil {
			return err
		}
		if cqes[1].Res != -1 || cqes[1].Err != 0 {
			t.Errorf("abort verdict cqe %+v", cqes[1])
		}
		if cqes[2].Err != errnoCanceled || cqes[3].Err != errnoCanceled {
			t.Errorf("aborted tail: errno %d, %d", cqes[2].Err, cqes[3].Err)
		}

		// An anycall naming a missing extension fails only its entry.
		if err := pushAll(h,
			kring.SQE{Op: kring.OpAnycall, Ext: 4040, UserTag: 20},
			kring.SQE{Op: uint16(NrGetpid), UserTag: 21},
		); err != nil {
			return err
		}
		if n, err := h.Enter(); err != nil || n != 2 {
			return fmt.Errorf("missing-ext drain: %d, %v", n, err)
		}
		cqes, err = reap(h, 2)
		if err != nil {
			return err
		}
		if cqes[0].Err != errnoIO {
			t.Errorf("missing ext cqe %+v", cqes[0])
		}
		if cqes[1].Err != 0 {
			t.Errorf("entry after failed anycall: %+v", cqes[1])
		}

		// An abort while two staged entries are pending cancels them in
		// queue order, then the SQ: a staged block [anycall(abort),
		// getpid, getpid] runs ahead of the last SQ entry.
		stager, err := pr.KuLoad(KuSpec{Source: `
		int emit(int pos, int prev, int err, int arg) {
			if (prev > 0) { return (arg * 8) + 2; }
			return 0;
		}`, Entry: "emit", Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}
		blk := make([]byte, 8+3*kring.SQESize)
		blk[0] = 3
		for i, e := range []kring.SQE{
			{Op: kring.OpAnycall, Ext: uint32(skipper), Args: [4]int64{-1}, UserTag: 30},
			{Op: uint16(NrGetpid), UserTag: 31},
			{Op: uint16(NrGetpid), UserTag: 32},
		} {
			kring.EncodeSQE(blk[8+i*kring.SQESize:], &e)
		}
		if err := stage(h, 0, blk); err != nil {
			return err
		}
		if err := pushAll(h,
			kring.SQE{Op: uint16(NrGetpid), UserTag: 21},
			kring.SQE{Op: kring.OpAnycall, Ext: uint32(stager), Args: [4]int64{0}, UserTag: 22},
			kring.SQE{Op: uint16(NrGetpid), UserTag: 23},
		); err != nil {
			return err
		}
		if n, err := h.Enter(); err != nil || n != 6 {
			return fmt.Errorf("staged-abort drain: %d, %v", n, err)
		}
		cqes, err = reap(h, 6)
		if err != nil {
			return err
		}
		for i, want := range []struct {
			tag   uint64
			errno uint32
		}{{21, 0}, {22, 0}, {30, 0}, {31, errnoCanceled}, {32, errnoCanceled}, {23, errnoCanceled}} {
			if cqes[i].UserTag != want.tag || cqes[i].Err != want.errno {
				t.Errorf("staged-abort completion %d: %+v, want tag %d errno %d", i, cqes[i], want.tag, want.errno)
			}
		}
		return nil
	})
	_ = k
}

// TestRingAnycallStaging has the extension emit a staged block of
// follow-on SQEs that run ahead of the rest of the queue — the
// "issue more calls without leaving the kernel" contract.
func TestRingAnycallStaging(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		// Verdict kind 2 with operand = data offset of the staged
		// block (which the user pre-wrote at offset 256).
		stager, err := pr.KuLoad(KuSpec{Source: `
		int emit(int pos, int prev, int err, int arg) {
			if (prev > 0) { return (arg * 8) + 2; }
			return 0;
		}`, Entry: "emit", Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}

		h, err := pr.RingSetup(8, 1024)
		if err != nil {
			return err
		}
		// Staged block: [count=2][getpid][getpid].
		blk := make([]byte, 8+2*kring.SQESize)
		blk[0] = 2
		kring.EncodeSQE(blk[8:8+kring.SQESize], &kring.SQE{Op: uint16(NrGetpid), UserTag: 100})
		kring.EncodeSQE(blk[8+kring.SQESize:], &kring.SQE{Op: uint16(NrGetpid), UserTag: 101})
		if err := stage(h, 256, blk); err != nil {
			return err
		}
		if err := pushAll(h,
			kring.SQE{Op: uint16(NrGetpid), UserTag: 1},
			kring.SQE{Op: kring.OpAnycall, Ext: uint32(stager), Args: [4]int64{256}, UserTag: 2},
			kring.SQE{Op: uint16(NrGetpid), UserTag: 3},
		); err != nil {
			return err
		}
		n, err := h.Enter()
		if err != nil {
			return err
		}
		if n != 5 {
			return fmt.Errorf("drain completed %d entries, want 5 (3 pushed + 2 staged)", n)
		}
		cqes, err := reap(h, 5)
		if err != nil {
			return err
		}
		wantTags := []uint64{1, 2, 100, 101, 3} // staged block runs ahead of the SQ
		for i, c := range cqes {
			if c.UserTag != wantTags[i] {
				return fmt.Errorf("completion order: got tag %d at %d, want %d (%+v)", c.UserTag, i, wantTags[i], cqes)
			}
			if c.Err != 0 {
				return fmt.Errorf("cqe %d errno %d", i, c.Err)
			}
		}
		if k.RingOps != 5 {
			t.Errorf("RingOps = %d", k.RingOps)
		}

		// A staged block's anycall stages a second block while the
		// first block's later entry is pending: the second block runs
		// first, then the rest of the first, then the SQ.
		outer := make([]byte, 8+3*kring.SQESize)
		outer[0] = 3
		for i, e := range []kring.SQE{
			{Op: uint16(NrGetpid), UserTag: 110},
			{Op: kring.OpAnycall, Ext: uint32(stager), Args: [4]int64{768}, UserTag: 111},
			{Op: uint16(NrGetpid), UserTag: 112},
		} {
			kring.EncodeSQE(outer[8+i*kring.SQESize:], &e)
		}
		inner := make([]byte, 8+2*kring.SQESize)
		inner[0] = 2
		kring.EncodeSQE(inner[8:], &kring.SQE{Op: uint16(NrGetpid), UserTag: 120})
		kring.EncodeSQE(inner[8+kring.SQESize:], &kring.SQE{Op: uint16(NrGetpid), UserTag: 121})
		if err := stage(h, 512, outer); err != nil {
			return err
		}
		if err := stage(h, 768, inner); err != nil {
			return err
		}
		if err := pushAll(h,
			kring.SQE{Op: uint16(NrGetpid), UserTag: 4},
			kring.SQE{Op: kring.OpAnycall, Ext: uint32(stager), Args: [4]int64{512}, UserTag: 5},
			kring.SQE{Op: uint16(NrGetpid), UserTag: 6},
		); err != nil {
			return err
		}
		if n, err := h.Enter(); err != nil || n != 8 {
			return fmt.Errorf("nested staging drain: %d, %v", n, err)
		}
		cqes, err = reap(h, 8)
		if err != nil {
			return err
		}
		for i, want := range []uint64{4, 5, 110, 111, 120, 121, 112, 6} {
			if cqes[i].UserTag != want || cqes[i].Err != 0 {
				return fmt.Errorf("nested staging order: completion %d is %+v, want tag %d (%+v)", i, cqes[i], want, cqes)
			}
		}

		// A hostile staged block (absurd count) fails the anycall only.
		blk2 := make([]byte, 8)
		blk2[0] = 0xFF
		blk2[1] = 0xFF
		if err := stage(h, 960, blk2); err != nil {
			return err
		}
		if err := pushAll(h,
			kring.SQE{Op: uint16(NrGetpid), UserTag: 8},
			kring.SQE{Op: kring.OpAnycall, Ext: uint32(stager), Args: [4]int64{960}, UserTag: 9},
			kring.SQE{Op: uint16(NrGetpid), UserTag: 10},
		); err != nil {
			return err
		}
		if n, err := h.Enter(); err != nil || n != 3 {
			return fmt.Errorf("hostile-block drain: %d, %v", n, err)
		}
		cqes, err = reap(h, 3)
		if err != nil {
			return err
		}
		if cqes[1].Err != errnoInval {
			t.Errorf("hostile staged block: cqe %+v", cqes[1])
		}
		if cqes[0].Err != 0 || cqes[2].Err != 0 {
			t.Errorf("neighbors of failed anycall: %+v %+v", cqes[0], cqes[2])
		}
		return nil
	})
}

// TestRingOnOffBitIdentity is the observability gate extended to the
// ring subsystem: an identical ring workload, traced as one request,
// must burn identical simulated cycles with kperf+ktrace attached and
// detached, and the tracer must see the whole request.
func TestRingOnOffBitIdentity(t *testing.T) {
	workload := func(observed bool) (int64, []uint64) {
		var set *kperf.Set
		if observed {
			set = kperf.New(Count(), 0)
		}
		m := kernel.New(kernel.Config{Perf: set})
		fs := memfs.New("root", vfs.NewIOModel(disk.New(disk.IDE7200()), 1<<16))
		k := NewKernel(m, vfs.NewNamespace(fs))
		var tr *ktrace.Tracer
		if observed {
			tr = ktrace.NewTracer(&m.Clock, m.Perf)
			m.Observe(tr)
		}
		var tags []uint64
		m.Spawn("ringwork", func(p *kernel.Process) error {
			pr := NewProc(k, p)
			pr.BeginOp("ring.work")
			defer pr.EndOp()
			h, err := pr.RingSetup(16, 4096)
			if err != nil {
				return err
			}
			path := "/f"
			if err := stage(h, 0, []byte(path)); err != nil {
				return err
			}
			msg := bytes.Repeat([]byte("x"), 700)
			if err := stage(h, 64, msg); err != nil {
				return err
			}
			for i := 0; i < 20; i++ {
				if err := pushAll(h,
					kring.SQE{Op: uint16(NrCreat), DataOff: 0, DataLen: uint32(len(path)), UserTag: uint64(i)*10 + 1},
					kring.SQE{Op: uint16(NrWrite), Flags: kring.FlagFDRel, Args: [4]int64{1}, DataOff: 64, DataLen: uint32(len(msg)), UserTag: uint64(i)*10 + 2},
					kring.SQE{Op: uint16(NrFstat), Flags: kring.FlagFDRel, Args: [4]int64{2, 2048}, UserTag: uint64(i)*10 + 3},
					kring.SQE{Op: uint16(NrClose), Flags: kring.FlagFDRel, Args: [4]int64{3}, UserTag: uint64(i)*10 + 4},
				); err != nil {
					return err
				}
				if _, err := h.Enter(); err != nil {
					return err
				}
				for j := 0; j < 4; j++ {
					cqe, _, err := h.Pop()
					if err != nil {
						return err
					}
					tags = append(tags, cqe.UserTag, uint64(cqe.Err), uint64(cqe.Res))
				}
			}
			return h.Close()
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if observed {
			if sum := tr.Summary(); sum.Requests != 1 || sum.Open != 0 || sum.IdentityViolations != 0 {
				t.Errorf("tracer saw %d requests (%d open), %d identity violations, want 1, 0, 0: %s",
					sum.Requests, sum.Open, sum.IdentityViolations, sum.FirstViolation)
			}
		}
		return int64(m.Clock.Now()), tags
	}
	offCycles, offTags := workload(false)
	onCycles, onTags := workload(true)
	if offCycles != onCycles {
		t.Errorf("ring workload cycles differ: observers off %d, on %d", offCycles, onCycles)
	}
	if len(offTags) != len(onTags) {
		t.Fatalf("completion streams differ in length: %d vs %d", len(offTags), len(onTags))
	}
	for i := range offTags {
		if offTags[i] != onTags[i] {
			t.Fatalf("completion stream diverges at %d: %d vs %d", i, offTags[i], onTags[i])
		}
	}
}

// TestRingDrainDeterminism runs the same batch twice on fresh
// machines and requires cycle-exact agreement — the drain loop must
// not leak host nondeterminism (map order, allocator state) into the
// simulation.
func TestRingDrainDeterminism(t *testing.T) {
	once := func() int64 {
		m, k := env()
		run(t, m, k, func(pr *Proc) error {
			h, err := pr.RingSetup(8, 1024)
			if err != nil {
				return err
			}
			if err := stage(h, 0, []byte("/d")); err != nil {
				return err
			}
			for i := 0; i < 8; i++ {
				e := kring.SQE{Op: uint16(NrGetpid), UserTag: uint64(i)}
				if i%3 == 0 {
					e.Op = uint16(NrCreat)
					e.DataLen = 2
				}
				if err := h.Push(&e); err != nil {
					return err
				}
			}
			if _, err := h.Enter(); err != nil {
				return err
			}
			if _, err := reap(h, 8); err != nil {
				return err
			}
			return h.Close()
		})
		return int64(m.Clock.Now())
	}
	a, b := once(), once()
	if a != b {
		t.Errorf("drain cycles differ across runs: %d vs %d", a, b)
	}
}

// TestRingDrainAllocsFlat pins the drain's host cost: one ring_enter
// of 1,024 entries (getpids, reads of a cached file pumped by anycalls
// that stage a [read, anycall] block per record, and one failing open)
// allocates 4 heap objects after a warm-up crossing, all the failing
// open's: its path string and its formatted error (a boxed argument,
// the text, the wrapper). The watchdog is bound once per drain
// context; a closure per crossing costs one more. The process's first
// crossing also makes its drain context, completion log, error mirror
// and pending queue once, and may allocate 20 beside the host pages it
// gives the ring's frames: a log grown by append instead of sized once
// costs 11 more. A frame gets its page at its first touch, so the
// first crossing backs the completion-queue pages the user's pushes
// left untouched; those count apart (Phys.Backed), whether a page
// came fresh or from the page pool. Both figures are the least of
// three rounds, each a fresh process's first crossing and one warm
// crossing, since the count is the whole program's and another
// goroutine may allocate during one; no warm crossing may back a page.
func TestRingDrainAllocsFlat(t *testing.T) {
	const (
		recSize = 64
		records = 256
		tmplOff = recSize       // the pump's [read, anycall] block
		pathOff = tmplOff + 256 // "/ghost"
	)
	const rounds = 3
	first, allocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var firstBacked, backed uint64
	round := func(pr *Proc) error {
		phys := pr.P.UAS.Phys()
		fd, err := pr.Creat("/table")
		if err != nil {
			return err
		}
		ub, err := pr.Mmap(records * recSize)
		if err != nil {
			return err
		}
		if _, err := pr.Write(fd, ub); err != nil {
			return err
		}
		pump, err := pr.KuLoad(KuSpec{Source: `
		int pump(int pos, int prev, int err, int blk) {
			if (prev > 0) { return (blk * 8) + 2; }
			return 0;
		}`, Entry: "pump", Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}
		h, err := pr.RingSetup(512, pathOff+64)
		if err != nil {
			return err
		}
		read := kring.SQE{Op: uint16(NrRead), Args: [4]int64{int64(fd)}, DataLen: recSize}
		anycall := kring.SQE{Op: kring.OpAnycall, Ext: uint32(pump), Args: [4]int64{tmplOff}}
		blk := make([]byte, 8+2*kring.SQESize)
		blk[0] = 2
		kring.EncodeSQE(blk[8:], &read)
		kring.EncodeSQE(blk[8+kring.SQESize:], &anycall)
		if err := stage(h, tmplOff, blk); err != nil {
			return err
		}
		if err := stage(h, pathOff, []byte("/ghost")); err != nil {
			return err
		}
		// lseek, then the pump: 257 reads and 257 anycalls; the failing
		// open; getpids up to 1,024 entries.
		const getpids = 1024 - 1 - 2*(records+1) - 1
		enter := func() (uint64, uint64, error) {
			if err := pushAll(h,
				kring.SQE{Op: uint16(NrLseek), Args: [4]int64{int64(fd), 0, SeekSet}},
				read, anycall,
				kring.SQE{Op: uint16(NrOpen), DataOff: pathOff, DataLen: 6},
			); err != nil {
				return 0, 0, err
			}
			for i := 0; i < getpids; i++ {
				if err := h.Push(&kring.SQE{Op: uint16(NrGetpid)}); err != nil {
					return 0, 0, err
				}
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before, backedBefore := ms.Mallocs, phys.Backed()
			n, err := h.Enter()
			runtime.ReadMemStats(&ms)
			backed := uint64(phys.Backed() - backedBefore)
			if err != nil {
				return 0, 0, err
			}
			if n != 1024 {
				return 0, 0, fmt.Errorf("drain completed %d entries, want 1024", n)
			}
			failed := 0
			for i := 0; i < 1024; i++ {
				cqe, herr, err := h.Pop()
				if err != nil {
					return 0, 0, err
				}
				if cqe.Err != 0 {
					failed++
					if cqe.Err != errnoNoEnt || !errors.Is(herr, vfs.ErrNotExist) {
						return 0, 0, fmt.Errorf("entry %d: errno %d, herr %v", i, cqe.Err, herr)
					}
				}
			}
			if failed != 1 {
				return 0, 0, fmt.Errorf("%d entries failed, want the one open", failed)
			}
			return ms.Mallocs - before, backed, nil
		}
		// Two collections empty every sync.Pool, so the first crossing
		// counts the same objects however recently the runtime last
		// collected: the failing open formats its error with fmt's
		// pooled printers.
		runtime.GC()
		runtime.GC()
		f, fb, err := enter()
		if err != nil {
			return err
		}
		if f < first {
			first, firstBacked = f, fb
		}
		a, b, err := enter()
		if err != nil {
			return err
		}
		allocs, backed = min(allocs, a), max(backed, b)
		return nil
	}
	for range rounds {
		m, k := env()
		run(t, m, k, round)
	}
	t.Logf("a 1,024-entry ring_enter allocated %d heap objects, %d the first time, which backed %d pages",
		allocs, first, firstBacked)
	if allocs > 4+fmtPoolSlack || backed != 0 {
		t.Errorf("a 1,024-entry ring_enter allocated %d heap objects and backed %d pages, want at most %d and 0",
			allocs, backed, 4+fmtPoolSlack)
	}
	if first > 20+firstBacked {
		t.Errorf("the first 1,024-entry ring_enter allocated %d heap objects beside the %d pages it backed, want at most 20",
			first-firstBacked, firstBacked)
	}
}

// TestRingSetupCloseAllocsFlat pins the host cost of a ring's
// lifetime: a warm 4,096-entry ring_setup + ring_close, with
// SeqScanAnycall's data area, allocates at most 256 bytes. The ring's
// 129 pages land on fresh VA in both address spaces every time, so
// each cycle needs page-table leaves; they must be the ones earlier
// rings emptied. What remains is the ring's state, which holds both
// kring attachments (224 bytes), its handle (16) and the radix roots'
// amortized growth (about 15); the attachments as heap objects of
// their own cost 16 bytes more, and two fresh 4.6 KB leaves per cycle
// 12 KB. The figure is the least of three rounds, since the count is
// the whole program's and another goroutine (a finalizer) may
// allocate during one.
func TestRingSetupCloseAllocsFlat(t *testing.T) {
	const (
		rounds    = 3
		cycles    = 64
		dataBytes = 256 + 8 + 2*kring.SQESize
	)
	m, k := env()
	perCycle := uint64(math.MaxUint64)
	run(t, m, k, func(pr *Proc) error {
		cycle := func() error {
			h, err := pr.RingSetup(kring.MaxEntries, dataBytes)
			if err != nil {
				return err
			}
			return h.Close()
		}
		for i := 0; i < 4; i++ {
			if err := cycle(); err != nil {
				return err
			}
		}
		for r := 0; r < rounds; r++ {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			for i := 0; i < cycles; i++ {
				if err := cycle(); err != nil {
					return err
				}
			}
			runtime.ReadMemStats(&ms)
			perCycle = min(perCycle, (ms.TotalAlloc-before)/cycles)
		}
		return nil
	})
	t.Logf("a warm %d-entry ring_setup + ring_close allocates %d bytes", kring.MaxEntries, perCycle)
	if perCycle > 256 {
		t.Errorf("a warm ring_setup + ring_close allocates %d bytes, want at most 256", perCycle)
	}
}

// fmtPoolSlack is how many more objects a warm crossing may allocate
// when fmt's pooled printer is gone; only the race detector, which
// drops pooled objects at random, takes it away (race_test.go).
var fmtPoolSlack uint64

// FuzzRingEnter feeds hostile SQE bytes straight into the submission
// queue and corrupts the shared header (as a malicious process would)
// and requires the drain to complete without panicking, faulting, or
// wedging the machine.
func FuzzRingEnter(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, kring.SQESize*3))
	seed := make([]byte, kring.SQESize)
	kring.EncodeSQE(seed, &kring.SQE{Op: uint16(NrOpen), DataOff: 1 << 30, DataLen: 1 << 31})
	f.Add(append([]byte{}, seed...))
	kring.EncodeSQE(seed, &kring.SQE{Op: kring.OpAnycall, Ext: 0xFFFFFFFF, Args: [4]int64{-1 << 62}})
	f.Add(append(bytes.Repeat(seed, 2), 0x7F))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, k := env()
		m.Spawn("fuzz", func(p *kernel.Process) error {
			pr := NewProc(k, p)
			h, err := pr.RingSetup(8, 512)
			if err != nil {
				return err
			}
			nEntries := len(raw) / kring.SQESize
			if nEntries > 8 {
				nEntries = 8
			}
			for i := 0; i < nEntries; i++ {
				var e kring.SQE
				kring.DecodeSQE(raw[i*kring.SQESize:(i+1)*kring.SQESize], &e)
				if err := h.Push(&e); err != nil {
					return err
				}
			}
			// Corrupt the shared header with a trailing fuzz byte: the
			// drain must tolerate any cursor state.
			if len(raw)%kring.SQESize != 0 {
				hv := pr.P.UAS.View(h.rs.uBase, kring.HdrSize)
				_ = hv.PutU32(8, uint32(raw[len(raw)-1])<<24) // cq_head
			}
			if _, err := h.Enter(); err != nil {
				return err
			}
			// Bounded reap: a corrupted cq_head can make the CQ look
			// ~2^32 deep; spinning on it is the user's own bug.
			for i := 0; i < 2*h.Entries(); i++ {
				if _, _, err := h.Pop(); err != nil {
					break
				}
			}
			_, err = h.Enter()
			return err
		})
		if err := m.Run(); err != nil {
			t.Fatalf("fuzz input crashed the drain: %v", err)
		}
	})
}
