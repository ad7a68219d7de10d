package sys

import (
	"fmt"
	"slices"

	"repro/internal/kernel"
	"repro/internal/kperf"
	"repro/internal/kring"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// The kring data plane: ring_setup maps a submission/completion ring
// pair into BOTH address spaces (the user process owns the frames;
// the kernel borrows them with mem.MapFrame), ring_enter drains the
// whole submission queue in one boundary crossing, and ring_close
// tears the mapping down. Each SQE names a registered syscall (the
// registry bodies in registry.go), a registered ring op (Cosy
// compounds), or a loaded kucode extension as an "anycall" that
// steers the rest of the batch without leaving the kernel.

// Ring limits.
const (
	// maxRings bounds rings per process.
	maxRings = 16
	// MaxRingData bounds a ring's data area; exported so workloads can
	// size their payload staging against the same ceiling ring_setup
	// enforces.
	MaxRingData = 4 << 20
	maxRingData = MaxRingData
	// maxDrainSteps bounds entries processed per ring_enter, the
	// drain loop's anycall-emission backstop (the drain's preemption
	// watchdog bounds cycles; this bounds entries).
	maxDrainSteps = 1 << 16
	// pendingCap bounds anycall-staged entries queued in the kernel.
	pendingCap = 2 * kring.MaxEntries
)

// ringState is the kernel side of one mapped ring.
type ringState struct {
	id      int
	entries int
	pages   int
	uBase   mem.Addr
	kBase   mem.Addr
	// ur/kr are the user-space and kernel-space handles over the same
	// frames; cursor state lives in the shared bytes.
	ur, kr kring.Ring
	// pending is the anycall-staged entry queue, drained ahead of the
	// SQ. It survives across ring_enter calls under backpressure. It is
	// stored next-entry-last, so popping an entry and staging a block
	// ahead of the queue both work at the tail of one backing array.
	pending []kring.SQE
	// errs mirrors the CQ slots with the bodies' original Go errors, so
	// user-side reaping loses no error fidelity to the errno code
	// table: the error of the n-th completion pushed sits in slot
	// n mod 2*entries, and Pop reads slot popped mod 2*entries. The
	// counts are host-side, out of reach of a hostile cq_head. errs
	// stays nil until the ring's first failed entry.
	errs           []error
	pushed, popped uint32
}

// RingHandle is the user-space side of a mapped ring.
type RingHandle struct {
	pr *Proc
	rs *ringState
}

// RingSetup is the ring_setup system call: allocate a ring of the
// given submission-queue size (power of two, at most 4096) with
// dataBytes of payload area, map it into both address spaces, and
// return the user-side handle.
func (pr *Proc) RingSetup(entries, dataBytes int) (*RingHandle, error) {
	pr.enter(NrRingSetup, 16)
	h, err := pr.ringSetupInternal(entries, dataBytes)
	pr.exit(NrRingSetup, 16, 8)
	return h, err
}

func (pr *Proc) ringSetupInternal(entries, dataBytes int) (*RingHandle, error) {
	if entries < 1 || entries > kring.MaxEntries || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("%w: ring entries %d", vfs.ErrInval, entries)
	}
	if dataBytes < 0 || dataBytes > maxRingData {
		return nil, fmt.Errorf("%w: ring data %d bytes", vfs.ErrInval, dataBytes)
	}
	if len(pr.rings) >= maxRings {
		return nil, ErrTooMany
	}
	n := kring.BytesFor(entries, dataBytes)
	pages := mem.PagesFor(n)
	uas, kas := pr.P.UAS, pr.K.M.KAS

	// The process owns the frames; the kernel maps them Shared, so
	// user unmap is the one real free.
	uBase, err := uas.MapRegion(pages, mem.PermRW)
	if err != nil {
		return nil, err
	}
	kBase := kas.Reserve(pages)
	for i := 0; i < pages; i++ {
		va := uBase + mem.Addr(i*mem.PageSize)
		pte, ok := uas.Lookup(va)
		if !ok {
			return nil, fmt.Errorf("sys: ring_setup: page %#x vanished", uint64(va))
		}
		if err := kas.MapFrame(kBase+mem.Addr(i*mem.PageSize), pte.Frame, mem.PermRW); err != nil {
			return nil, err
		}
	}
	ur, err := kring.Attach(uas.View(uBase, n), entries)
	if err != nil {
		return nil, err
	}
	kr, err := kring.Attach(kas.View(kBase, n), entries)
	if err != nil {
		return nil, err
	}
	rs := &ringState{
		id: pr.nextRingID + 1, entries: entries, pages: pages,
		uBase: uBase, kBase: kBase, ur: ur, kr: kr,
	}
	pr.nextRingID++
	if pr.rings == nil {
		pr.rings = make(map[int]*ringState)
	}
	pr.rings[rs.id] = rs
	return &RingHandle{pr: pr, rs: rs}, nil
}

// RingEnter is the ring_enter system call: one crossing that drains
// the ring's staged and submitted entries, completing each into the
// CQ. It returns the number of entries completed this crossing.
func (pr *Proc) RingEnter(id int) (int64, error) {
	pr.enter(NrRingEnter, 8)
	n, err := pr.ringEnterInternal(id)
	pr.exit(NrRingEnter, 8, 8)
	return n, err
}

func (pr *Proc) ringEnterInternal(id int) (int64, error) {
	rs := pr.rings[id]
	if rs == nil {
		return 0, fmt.Errorf("%w: no ring %d", ErrBadFD, id)
	}
	return pr.ringDrain(rs)
}

// RingClose is the ring_close system call: unmap both sides and drop
// the ring. The kernel's borrowed mapping of each page goes first
// (Shared PTEs free nothing); the user unmap then releases the frame.
// The order is required: the kernel space's translation cache keeps a
// borrowed frame's bytes until its own unmap (mem.MapFrame).
func (pr *Proc) RingClose(id int) error {
	pr.enter(NrRingClose, 8)
	err := pr.ringCloseInternal(id)
	pr.exit(NrRingClose, 8, 0)
	return err
}

func (pr *Proc) ringCloseInternal(id int) error {
	rs := pr.rings[id]
	if rs == nil {
		return fmt.Errorf("%w: no ring %d", ErrBadFD, id)
	}
	for i := 0; i < rs.pages; i++ {
		if err := pr.K.M.KAS.Unmap(rs.kBase + mem.Addr(i*mem.PageSize)); err != nil {
			return err
		}
		if err := pr.P.UAS.Unmap(rs.uBase + mem.Addr(i*mem.PageSize)); err != nil {
			return err
		}
	}
	delete(pr.rings, id)
	return nil
}

// drain is the per-ring_enter dispatch context: the completions of
// THIS crossing, which FDRel references and anycalls inspect. Each
// Proc keeps one between crossings (Proc.freeDrain), so done keeps its
// capacity from one ring_enter to the next.
type drain struct {
	pr   *Proc
	rs   *ringState
	done []completion
	// e and a are the entry being dispatched and its decoded
	// arguments, zeroed and reused for every entry: both escape
	// through the registry's indirect calls, so per-entry values would
	// cost a heap object each.
	e kring.SQE
	a Args
	// watchdog is d.overrun, bound once when the context is made, so
	// arming it as the process's OnPreempt allocates nothing. max is
	// the drain's kernel-time budget and prev the handler it
	// displaced, which the drain restores on exit.
	watchdog func(*kernel.Process) error
	max      sim.Cycles
	prev     func(*kernel.Process) error
}

// completion is what the drain's log keeps of a CQE it pushed: the
// result and errno, all that FDRel references and anycalls read.
type completion struct {
	res int64
	err uint32
}

// overrun is the drain's preemption watchdog: a drain that holds the
// kernel past max is terminated, batches or not.
func (d *drain) overrun(p *kernel.Process) error {
	if p.KernelStreak() > d.max {
		return fmt.Errorf("sys: ring drain exceeded maximum kernel time (%v > %v)",
			p.KernelStreak(), d.max)
	}
	if d.prev != nil {
		return d.prev(p)
	}
	return nil
}

// pathString reads a pathname from the data area window [off, off+n).
func (d *drain) pathString(off, n int64) (string, error) {
	if n < 0 || n > maxRingPath {
		return "", fmt.Errorf("%w: path of %d bytes", vfs.ErrInval, n)
	}
	v, err := d.rs.kr.Data(int(off), int(n))
	if err != nil {
		return "", fmt.Errorf("%w: path window: %v", vfs.ErrInval, err)
	}
	buf := d.pr.kbuf(int(n))
	if err := v.CopyIn(0, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// pathArg decodes the SQE's data window as a.Path.
func (d *drain) pathArg(off, n uint32, a *Args) error {
	p, err := d.pathString(int64(off), int64(n))
	if err != nil {
		return err
	}
	a.Path = p
	a.In = len(p)
	return nil
}

// attrWindow points a.Buf at a StatSize window at data offset off;
// off < 0 requests no materialization.
func (d *drain) attrWindow(off int64, a *Args) error {
	if off < 0 {
		return nil
	}
	v, err := d.rs.kr.Data(int(off), vfs.StatSize)
	if err != nil {
		return fmt.Errorf("%w: stat window: %v", vfs.ErrInval, err)
	}
	a.Buf = v
	return nil
}

// complete delivers one CQE plus its mirror error. A full CQ counts
// an overflow and drops the completion (the entry's effects stand;
// its result is lost — exactly io_uring's overflow contract).
func (d *drain) complete(cqe *kring.CQE, herr error) error {
	if err := d.rs.kr.CqPush(cqe); err != nil {
		if err == kring.ErrCQFull {
			d.pr.K.RingOverflows++
			return d.rs.kr.NoteOverflow()
		}
		return err
	}
	d.done = append(d.done, completion{res: cqe.Res, err: cqe.Err})
	rs := d.rs
	if herr != nil && rs.errs == nil {
		rs.errs = make([]error, 2*rs.entries)
	}
	if rs.errs != nil {
		rs.errs[rs.pushed&uint32(len(rs.errs)-1)] = herr
	}
	rs.pushed++
	return nil
}

// resolveFd rewrites a FlagFDRel descriptor argument: Args[0] = b
// names the completion b entries back in this drain, whose Res is the
// descriptor.
func (d *drain) resolveFd(e *kring.SQE, a *Args) error {
	b := e.Args[0]
	if b < 1 || b > int64(len(d.done)) {
		return fmt.Errorf("%w: fd reference %d entries back, drain has %d", vfs.ErrInval, b, len(d.done))
	}
	ref := d.done[int64(len(d.done))-b]
	if ref.err != 0 {
		return fmt.Errorf("%w: fd reference to failed entry (errno %d)", errCanceled, ref.err)
	}
	a.Fd = int(ref.res)
	return nil
}

// ringDrain is the kernel's batch dispatch loop: staged (anycall-
// emitted) entries first, then the SQ, stopping on an empty queue,
// CQ backpressure, the step backstop, or an anycall abort. The whole
// drain runs under the ring kperf subsystem with the preemption
// watchdog armed; every entry gets a ktrace exec span.
func (pr *Proc) ringDrain(rs *ringState) (int64, error) {
	costs := &pr.K.M.Costs
	p := pr.P
	p.Perf.Push(kperf.SubRing)
	defer p.Perf.Pop()

	// Take the process's drain context. A nested drain (none exists
	// today: no ring op enters a ring) would find the slot empty and
	// get a fresh one.
	d := pr.freeDrain
	pr.freeDrain = nil
	if d == nil {
		d = &drain{}
		d.watchdog = d.overrun
	}
	// A drain completes at most one CQ's worth of entries (CqPush
	// refuses the rest), so a log of that capacity never grows.
	if cqCap := 2 * rs.entries; cap(d.done) < cqCap {
		d.done = make([]completion, 0, cqCap)
	}
	*d = drain{pr: pr, rs: rs, done: d.done[:0], watchdog: d.watchdog,
		max: costs.MaxKernelCycles, prev: p.OnPreempt}
	defer func() { pr.freeDrain = d }()

	// Arm the preemption watchdog, the only one Cosy compounds run
	// under (an NrCosy entry runs inside this drain).
	p.OnPreempt = d.watchdog
	defer func() { p.OnPreempt = d.prev }()

	var completed int64
	abort := false
	for steps := 0; steps < maxDrainSteps && !abort; steps++ {
		// Backpressure: never pop an entry the CQ cannot complete.
		space, err := rs.kr.CqSpace()
		if err != nil {
			return completed, err
		}
		if space <= 0 {
			// A hostile cq_head can drive the computed space negative;
			// treat it as backpressure, never as room.
			break
		}
		e := &d.e
		*e = kring.SQE{}
		if n := len(rs.pending); n > 0 {
			*e = rs.pending[n-1]
			rs.pending = rs.pending[:n-1]
		} else if err := rs.kr.SqPop(e); err != nil {
			if err == kring.ErrSQEmpty {
				break
			}
			return completed, err
		}

		p.Charge(costs.RingSqe)
		start := pr.K.M.Clock.Now()
		cqe := kring.CQE{UserTag: e.UserTag}
		var herr error
		var skip int64

		switch {
		case e.Op == kring.OpAnycall:
			cqe.Res, skip, abort, herr = pr.ringAnycall(d, e)
		case e.Op == uint16(NrCosy) && pr.K.Cosy != nil:
			data, derr := rs.kr.Data(int(e.DataOff), int(e.DataLen))
			if derr != nil {
				herr = fmt.Errorf("%w: ring-op window: %v", vfs.ErrInval, derr)
			} else {
				cqe.Res, herr = pr.K.Cosy(pr, e.Args, data)
			}
		case int(e.Op) < int(nrCount) && sysTable[e.Op].decode != nil:
			a := &d.a
			*a = Args{}
			herr = sysTable[e.Op].decode(pr, d, e, a)
			if herr == nil && e.Flags&kring.FlagFDRel != 0 {
				if !sysTable[e.Op].fdArg {
					herr = fmt.Errorf("%w: FDRel on non-fd op %v", vfs.ErrInval, Nr(e.Op))
				} else {
					herr = d.resolveFd(e, a)
				}
			}
			if herr == nil {
				cqe.Res, herr = pr.KernelCall(Nr(e.Op), a)
				if nb := a.In + a.Out; nb > 0 {
					// Payloads move at kernel copy rate: they ride the
					// shared pages, never the boundary.
					p.Charge(sim.Cycles(nb) * costs.CopyKernByte)
					pr.K.RingBytes += int64(nb)
					cqe.Copied = uint32(nb)
				}
			}
		default:
			herr = fmt.Errorf("%w: op %d", errNoSys, e.Op)
		}

		cqe.Err = errnoOf(herr)
		pr.K.RingOps++
		pr.K.M.ExecSpan(p.PID, kperf.SubRing, start)
		if err := d.complete(&cqe, herr); err != nil {
			return completed, err
		}
		completed++

		// Anycall-directed skips: the next N entries complete as
		// canceled without dispatching. Clamped to the most entries
		// that can legitimately be queued — hostile cursors must not
		// turn the cancel loop into a spin.
		if lim := int64(len(rs.pending) + rs.entries); skip > lim {
			skip = lim
		}
		for ; skip > 0; skip-- {
			var se kring.SQE
			if n := len(rs.pending); n > 0 {
				se = rs.pending[n-1]
				rs.pending = rs.pending[:n-1]
			} else if err := rs.kr.SqPop(&se); err != nil {
				break
			}
			if err := d.complete(&kring.CQE{UserTag: se.UserTag, Err: errnoCanceled}, errCanceled); err != nil {
				return completed, err
			}
			completed++
		}
	}

	if abort {
		// Cancel everything still queued: staged entries (in queue
		// order, so from the tail) and then the SQ.
		for i := len(rs.pending) - 1; i >= 0; i-- {
			if err := d.complete(&kring.CQE{UserTag: rs.pending[i].UserTag, Err: errnoCanceled}, errCanceled); err != nil {
				return completed, err
			}
			completed++
		}
		rs.pending = rs.pending[:0]
		// At most `entries` real SQEs can be queued; the bound keeps a
		// corrupted sq_tail from spinning the cancel sweep.
		for i := 0; i < rs.entries; i++ {
			var se kring.SQE
			if err := rs.kr.SqPop(&se); err != nil {
				break
			}
			if err := d.complete(&kring.CQE{UserTag: se.UserTag, Err: errnoCanceled}, errCanceled); err != nil {
				return completed, err
			}
			completed++
		}
	}
	return completed, nil
}

// ringAnycall runs a kucode extension as an in-kernel control-flow
// step. The extension is invoked as ext(batchPos, prevRes, prevErrno,
// userArg) and its return value v is a verdict:
//
//	v == 0          continue with the next entry
//	v <  0          abort: cancel every remaining entry
//	v&7 == 1        skip (v>>3) following entries (canceled CQEs)
//	v&7 == 2        emit the staged block at data offset (v>>3):
//	                [u64 count][count × 64-byte SQEs], queued ahead
//	                of the SQ
//
// Anything else is EINVAL. A dead or missing extension fails only its
// own entry.
func (pr *Proc) ringAnycall(d *drain, e *kring.SQE) (res int64, skip int64, abort bool, herr error) {
	var prevRes, prevErr int64
	if n := len(d.done); n > 0 {
		prevRes = d.done[n-1].res
		prevErr = int64(d.done[n-1].err)
	}
	v, err := pr.kuInvoke(int(e.Ext), int64(len(d.done)), prevRes, prevErr, e.Args[0])
	if err != nil {
		return 0, 0, false, err
	}
	switch {
	case v == 0:
		return v, 0, false, nil
	case v < 0:
		return v, 0, true, nil
	}
	operand := v >> 3
	switch v & 7 {
	case 1:
		return v, operand, false, nil
	case 2:
		return v, 0, false, pr.ringStage(d, operand)
	}
	return v, 0, false, fmt.Errorf("%w: anycall verdict %d", vfs.ErrInval, v)
}

// ringStage queues the staged SQE block at data offset off ahead of
// the SQ: [u64 count][count × 64-byte entries]. The block is read at
// kernel copy rate; emissions beyond the pending cap overflow (the
// block is rejected whole).
func (pr *Proc) ringStage(d *drain, off int64) error {
	rs := d.rs
	hdr, err := rs.kr.Data(int(off), 8)
	if err != nil {
		return fmt.Errorf("%w: staged block header: %v", vfs.ErrInval, err)
	}
	count64, err := hdr.U64(0)
	if err != nil {
		return err
	}
	if count64 == 0 || count64 > uint64(rs.entries) {
		return fmt.Errorf("%w: staged block of %d entries", vfs.ErrInval, count64)
	}
	count := int(count64)
	if len(rs.pending)+count > pendingCap {
		pr.K.RingOverflows++
		if err := rs.kr.NoteOverflow(); err != nil {
			return err
		}
		return fmt.Errorf("%w: staged block overflows pending queue", vfs.ErrInval)
	}
	blk, err := rs.kr.Data(int(off)+8, count*kring.SQESize)
	if err != nil {
		return fmt.Errorf("%w: staged block body: %v", vfs.ErrInval, err)
	}
	// pending is stored next-entry-last: the block's first entry
	// lands at the tail. Every slot is decoded in full before use.
	base := len(rs.pending)
	rs.pending = slices.Grow(rs.pending, count)[:base+count]
	var slot [kring.SQESize]byte
	for i := 0; i < count; i++ {
		if err := blk.CopyIn(i*kring.SQESize, slot[:]); err != nil {
			rs.pending = rs.pending[:base]
			return err
		}
		kring.DecodeSQE(slot[:], &rs.pending[base+count-1-i])
	}
	pr.P.Charge(sim.Cycles(8+count*kring.SQESize) * pr.K.M.Costs.CopyKernByte)
	pr.K.RingBytes += int64(8 + count*kring.SQESize)
	return nil
}

// User-side ring handle operations. Pushing charges the user-mode
// submit cost; the shared-page stores themselves charge through the
// process's own address space like any user memory access.

// Entries reports the submission-queue size.
func (h *RingHandle) Entries() int { return h.rs.entries }

// ID reports the ring id (the ring_enter argument).
func (h *RingHandle) ID() int { return h.rs.id }

// DataLen reports the data-area size.
func (h *RingHandle) DataLen() int { return h.rs.ur.DataLen() }

// Push stages one SQE into the submission queue.
func (h *RingHandle) Push(e *kring.SQE) error {
	h.pr.P.ChargeUser(h.pr.K.M.Costs.RingSubmit)
	return h.rs.ur.SqPush(e)
}

// Enter drains the queue in one crossing (ring_enter).
func (h *RingHandle) Enter() (int64, error) {
	return h.pr.RingEnter(h.rs.id)
}

// Pop reaps the oldest completion, returning the CQE plus the body's
// original Go error (error fidelity across the errno boundary; nil
// for successful entries).
func (h *RingHandle) Pop() (kring.CQE, error, error) {
	var cqe kring.CQE
	if err := h.rs.ur.CqPop(&cqe); err != nil {
		return cqe, nil, err
	}
	rs := h.rs
	var herr error
	if rs.errs != nil {
		i := rs.popped & uint32(len(rs.errs)-1)
		herr, rs.errs[i] = rs.errs[i], nil
	}
	rs.popped++
	return cqe, herr, nil
}

// View opens a user-side window into the data area for payload
// staging and zero-copy result access.
func (h *RingHandle) View(off, n int) (mem.UserView, error) {
	return h.rs.ur.Data(off, n)
}

// Close tears the ring down (ring_close).
func (h *RingHandle) Close() error {
	return h.pr.RingClose(h.rs.id)
}

// Overflows reports the ring's shared cq_overflow counter.
func (h *RingHandle) Overflows() uint32 {
	n, err := h.rs.ur.Overflows()
	if err != nil {
		return 0
	}
	return n
}
