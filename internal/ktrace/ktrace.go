// Package ktrace is the causal request-tracing layer of the simulated
// kernel: each logical operation (a PostMark transaction, a compile
// unit, a DB scan batch, a Cosy compound, a ku_call) opens a *request*
// with a trace id, and child spans with parent links are propagated
// through syscall dispatch, run-queue residency, disk waits, boundary
// copies, and probe/kucode execution. On top of the span graph a
// critical-path analyzer decomposes every request's wall cycles into
// an exact partition — user run, kernel run, boundary copy,
// runnable-wait, disk-wait, sleep — enforced by a per-request
// decomposition identity (segment sums == request wall cycles, in the
// style of kperf's attribution==elapsed check), and computes exact
// per-operation-type latency quantiles via kperf's power-of-two
// bucket histograms.
//
// Like kperf and kflight, ktrace is host-side only and can never move
// a simulated cycle: it observes scheduling transitions, syscalls and
// operations the kernel was making anyway through the cost-free
// kernel.Observer seam (implemented structurally — ktrace imports only
// kperf and sim, so the kernel stays ignorant of the tracer and vice
// versa), and it rides the same on/off switch as kperf, so the
// benchall gate that proves kperf costs nothing proves the same for
// ktrace. Charges are not announced on the seam: ktrace reads the
// process's kperf attribution cells (ProcState.ModeSubsysCycles) at
// the edges of each request and of each off-CPU window inside one, so
// kperf stays the one place a charge is sorted into user, kernel and
// boundary time.
//
// Request scoping is host-side only: BeginOp/EndOp arrive from
// workload code (and from the Cosy/kucode entry points) while the
// process is running, never from simulated kernel context. That is
// what makes the decomposition exact — a request can never straddle
// an off-CPU window, so every clock advance inside a request is
// either a charge to the owning process (the change in its kperf
// cells) or wholly contained in one ready/blocked window.
package ktrace

import (
	"fmt"

	"repro/internal/kperf"
	"repro/internal/sim"
)

// Seg is one class of the request decomposition partition.
type Seg uint8

// Decomposition segments. Every wall cycle of a closed request lands
// in exactly one.
const (
	// SegUser is on-CPU user-mode compute.
	SegUser Seg = iota
	// SegKernel is on-CPU kernel work that is not a boundary copy:
	// syscall bodies, VFS, MMU, allocators, Cosy/probe/kucode
	// execution, plus context-switch cycles billed while waiting.
	SegKernel
	// SegCopy is the user/kernel boundary: trap, dispatch,
	// copyin/copyout (kperf's SubBoundary).
	SegCopy
	// SegReady is run-queue residency: runnable but off-CPU
	// (scheduler delay).
	SegReady
	// SegDisk is blocked-on-disk wait.
	SegDisk
	// SegSleep is any other blocked wait (timers, locks).
	SegSleep
	nSegs
)

// NSegs is the segment count.
const NSegs = int(nSegs)

var segNames = [...]string{"user", "kernel", "copy", "ready", "disk", "sleep"}

func (s Seg) String() string {
	if int(s) < len(segNames) {
		return segNames[s]
	}
	return "?"
}

// SpanKind classifies one span record.
type SpanKind uint8

// Span kinds.
const (
	// SpanRequest is a closed request: the root of its span tree.
	SpanRequest SpanKind = iota + 1
	// SpanOp is a nested logical operation opened by BeginOp while a
	// request was already open (e.g. a Cosy compound inside a scan
	// batch).
	SpanOp
	// SpanSyscall is one system call dispatched under a request; Arg
	// is the syscall number.
	SpanSyscall
	// SpanWait is a blocked interval under a request; Arg is the
	// kperf.Subsys waited on (SubDisk for block I/O).
	SpanWait
	// SpanExec is an in-kernel execution slice (probe or kucode run);
	// Arg is the kperf.Subsys that executed.
	SpanExec
)

func (k SpanKind) String() string {
	switch k {
	case SpanRequest:
		return "request"
	case SpanOp:
		return "op"
	case SpanSyscall:
		return "syscall"
	case SpanWait:
		return "wait"
	case SpanExec:
		return "exec"
	}
	return "?"
}

// Span is one closed span record as Spans returns it.
type Span struct {
	// ID is the span's trace-unique id; Parent links to the enclosing
	// span (0 for a request root); Req is the owning request's id.
	ID, Parent, Req uint64
	PID             int
	Kind            SpanKind
	// Op names request/op spans; empty for syscall/wait/exec spans.
	Op string
	// Arg carries the syscall number (SpanSyscall) or the
	// kperf.Subsys (SpanWait, SpanExec).
	Arg        uint32
	Start, End sim.Cycles
}

// ReqRecord is the critical-path record of one closed request as
// Requests returns it: its wall interval and exact segment
// decomposition.
type ReqRecord struct {
	ID         uint64
	PID        int
	Op         string
	Start, End sim.Cycles
	Segs       [NSegs]int64
}

// Wall reports the request's wall cycles.
func (r ReqRecord) Wall() int64 { return int64(r.End - r.Start) }

// Config switches the tracer on: a machine traces requests when its
// options point at one. It has no settings.
type Config struct{}

// Retention bounds: the newest closed spans and request records are
// kept, and older ones are overwritten and counted dropped.
const (
	spanRecords = 1 << 16
	reqRecords  = 1 << 15
)

// spanRec is a closed span as the tracer retains it: a Span whose op
// name is an index into the tracer's name table and whose pid is
// narrowed, 56 bytes with no pointer in it. Neither retained window
// holds a pointer, so the collector never scans their 6 MiB, and both
// lease their storage (kperf.LeaseWindow): a tracer built after another
// was collected reuses its buffers instead of allocating them.
type spanRec struct {
	id, parent, req uint64
	start, end      sim.Cycles
	pid             int32
	op              uint32
	arg             uint32
	kind            SpanKind
}

// reqRec is a closed request as the tracer retains it, 80 bytes and
// pointer-free like spanRec.
type reqRec struct {
	id         uint64
	start, end sim.Cycles
	segs       [NSegs]int64
	pid        int32
	op         uint32
}

// winKind is the off-CPU window state of one process.
type winKind uint8

const (
	winNone winKind = iota
	winReady
	winBlocked
)

// maxOpenSpans bounds per-process span nesting (request not
// included); deeper pushes are dropped and counted.
const maxOpenSpans = 32

type openSpan struct {
	id    uint64
	kind  SpanKind
	op    uint32 // name-table index (SpanOp)
	arg   uint32
	start sim.Cycles
}

// procTrace is one process's tracing state. Plain fields: the
// machine's strict goroutine hand-off makes them race-free, exactly
// like kperf's attribution cells.
type procTrace struct {
	pid int
	ps  *kperf.ProcState

	// Open request; agg names its op. segs holds the wait segments
	// closed so far and, in the on-CPU ones, minus the process's
	// on-CPU cycles at the open: closeRequest adds them at the close.
	reqID    uint64
	agg      *opAgg
	reqStart sim.Cycles
	segs     [NSegs]int64

	// Open child spans, innermost last.
	stack    [maxOpenSpans]openSpan
	depth    int
	overflow int64

	// Off-CPU window. Inside a request, winCharged is the process's
	// charged total at the window's open: what is charged to it while
	// off-CPU (context-switch and probe billing at re-dispatch) is
	// already in its kperf cells, so closeWindow subtracts it from the
	// window's wall interval and every cycle counts exactly once.
	winKind    winKind
	winSub     kperf.Subsys
	winStart   sim.Cycles
	winCharged sim.Cycles
}

// onCPU adds the process's kperf cells to segs, each multiplied by
// sign: a boundary cell in either mode is copy, any other kernel-mode
// cell kernel and any other user-mode cell user.
func (pt *procTrace) onCPU(segs *[NSegs]int64, sign int64) {
	cells := pt.ps.ModeSubsysCycles()
	for sub := 0; sub < kperf.NSubsys; sub++ {
		user := sign * int64(cells[int(kperf.ModeUser)*kperf.NSubsys+sub])
		kern := sign * int64(cells[int(kperf.ModeKernel)*kperf.NSubsys+sub])
		if kperf.Subsys(sub) == kperf.SubBoundary {
			segs[SegCopy] += user + kern
		} else {
			segs[SegUser] += user
			segs[SegKernel] += kern
		}
	}
}

// charged reports the process's charged total: its kperf cells' sum.
func (pt *procTrace) charged() sim.Cycles {
	var sum sim.Cycles
	for _, c := range pt.ps.ModeSubsysCycles() {
		sum += c
	}
	return sum
}

// openWindow opens an off-CPU window of the given kind at cycle at,
// recording the charged total when a request is open.
func (pt *procTrace) openWindow(kind winKind, at sim.Cycles) {
	pt.winKind, pt.winStart = kind, at
	if pt.reqID != 0 {
		pt.winCharged = pt.charged()
	}
}

// opAgg aggregates closed requests of one operation type; op is the
// type's name-table index.
type opAgg struct {
	op   uint32
	hist kperf.Histogram
	segs [NSegs]int64
}

// Tracer is the per-machine request tracer. It implements
// kernel.Observer structurally. The accessors are nil-receiver safe so
// reporting layers hold a possibly-nil pointer.
type Tracer struct {
	kperf.NopObserver

	clock *sim.Clock
	set   *kperf.Set

	procs map[int]*procTrace
	last  *procTrace

	seq       uint64
	requests  int64
	idViol    int64
	firstViol string

	// names is the interned op-name table the retained records index
	// (0 is the empty name), ops maps a name to its index, and aggs
	// holds each index's request aggregate, nil while the name has
	// opened no request.
	names []string
	ops   map[string]uint32
	aggs  []*opAgg

	spans kperf.Window[spanRec]
	reqs  kperf.Window[reqRec]
}

// opNames is the name table's initial room: a workload traces a few
// op types.
const opNames = 8

// NewTracer creates a tracer reading simulated time from clock and the
// machine's set: it stamps request context into the set's per-process
// state and reads each process's charges from its attribution cells.
func NewTracer(clock *sim.Clock, set *kperf.Set) *Tracer {
	t := &Tracer{
		clock: clock,
		set:   set,
		procs: make(map[int]*procTrace),
		names: make([]string, 1, opNames),
		ops:   make(map[string]uint32, opNames),
		aggs:  make([]*opAgg, 1, opNames),
		spans: kperf.LeaseWindow[spanRec](spanRecords),
		reqs:  kperf.LeaseWindow[reqRec](reqRecords),
	}
	t.ops[""] = 0
	return t
}

// proc returns pid's state, creating it lazily. The one-entry cache
// makes the per-announcement lookup a pointer compare in the common
// single-process-running case.
func (t *Tracer) proc(pid int) *procTrace {
	if pt := t.last; pt != nil && pt.pid == pid {
		return pt
	}
	pt := t.procs[pid]
	if pt == nil {
		pt = &procTrace{pid: pid}
		for _, ps := range t.set.Procs() {
			if ps.PID() == pid {
				pt.ps = ps
				break
			}
		}
		t.procs[pid] = pt
	}
	t.last = pt
	return pt
}

// ---- kernel.Observer: scheduling ----

// OnBlock opens a blocked window.
func (t *Tracer) OnBlock(pid int, sub kperf.Subsys, at sim.Cycles) {
	pt := t.proc(pid)
	pt.winSub = sub
	pt.openWindow(winBlocked, at)
}

// OnReady marks the process runnable off-CPU: a fresh window after a
// preemption/yield, or — when a blocked window is open — the wake
// point, which closes the blocked sub-window and opens a ready one so
// post-wake run-queue residency counts as scheduler delay, not I/O.
func (t *Tracer) OnReady(pid int, at sim.Cycles) {
	pt := t.proc(pid)
	if pt.winKind == winBlocked {
		t.closeWindow(pt, at)
	}
	if pt.winKind == winNone {
		pt.openWindow(winReady, at)
	}
}

// OnRun closes the open window: the process is on CPU again.
func (t *Tracer) OnRun(pid int, at sim.Cycles) {
	pt := t.proc(pid)
	if pt.winKind != winNone {
		t.closeWindow(pt, at)
	}
}

// closeWindow attributes the window's wall interval, minus what was
// charged to the process inside it (on-CPU time its kperf cells
// already hold), to the request's wait segments and emits a wait span
// for blocked intervals.
func (t *Tracer) closeWindow(pt *procTrace, at sim.Cycles) {
	kind, sub, start := pt.winKind, pt.winSub, pt.winStart
	pt.winKind = winNone
	if pt.reqID == 0 {
		return
	}
	dur := int64(at - start - (pt.charged() - pt.winCharged))
	switch {
	case kind == winReady:
		pt.segs[SegReady] += dur
	case sub == kperf.SubDisk:
		pt.segs[SegDisk] += dur
	default:
		pt.segs[SegSleep] += dur
	}
	if kind == winBlocked {
		t.seq++
		t.spans.Put(spanRec{
			id: t.seq, parent: pt.topID(), req: pt.reqID, pid: int32(pt.pid),
			kind: SpanWait, arg: uint32(sub), start: start, end: at,
		})
	}
}

// ---- request / span plane ----

// topID reports the innermost open span id, or the request id when no
// child span is open.
func (pt *procTrace) topID() uint64 {
	if pt.depth > 0 {
		return pt.stack[pt.depth-1].id
	}
	return pt.reqID
}

// push opens a child span, dropping (with a count) past the nesting
// bound.
func (pt *procTrace) push(sp openSpan) {
	if pt.depth >= maxOpenSpans {
		pt.overflow++
		return
	}
	pt.stack[pt.depth] = sp
	pt.depth++
}

// BeginOp opens a logical operation for pid. With no request open it
// opens one (the request root); otherwise it nests a child op span —
// so a Cosy compound or ku_call traced inside a workload batch becomes
// a child of the batch's request, and a standalone one becomes a
// request of its own. Either way op is interned here, so closing the
// span or request looks nothing up.
func (t *Tracer) BeginOp(pid int, op string) {
	pt := t.proc(pid)
	now := t.clock.Now()
	t.seq++
	id := t.seq
	if pt.reqID == 0 {
		pt.reqID, pt.agg, pt.reqStart = id, t.agg(op), now
		pt.segs = [NSegs]int64{}
		pt.onCPU(&pt.segs, -1)
		t.requests++
		pt.ps.SetRequest(id, op)
		return
	}
	pt.push(openSpan{id: id, kind: SpanOp, op: t.intern(op), start: now})
}

// EndOp closes the innermost open operation: a child op span when one
// is open, otherwise the request itself — computing its decomposition,
// checking the identity, and folding it into the per-op aggregates.
func (t *Tracer) EndOp(pid int) {
	pt := t.proc(pid)
	now := t.clock.Now()
	if pt.depth > 0 && pt.stack[pt.depth-1].kind == SpanOp {
		pt.depth--
		sp := pt.stack[pt.depth]
		t.spans.Put(spanRec{
			id: sp.id, parent: pt.topID(), req: pt.reqID, pid: int32(pid),
			kind: SpanOp, op: sp.op, start: sp.start, end: now,
		})
		return
	}
	if pt.reqID == 0 || pt.depth > 0 {
		return
	}
	t.closeRequest(pt, now)
}

// closeRequest finalizes pt's open request at time now.
func (t *Tracer) closeRequest(pt *procTrace, now sim.Cycles) {
	a := pt.agg
	pt.onCPU(&pt.segs, 1)
	wall := int64(now - pt.reqStart)
	var sum int64
	for _, s := range pt.segs {
		sum += s
	}
	if sum != wall {
		t.idViol++
		if t.firstViol == "" {
			t.firstViol = fmt.Sprintf("req %d op %q pid %d: segments sum %d != wall %d [%s]",
				pt.reqID, t.names[a.op], pt.pid, sum, wall, segList(pt.segs))
		}
	}
	a.hist.Observe(sim.Cycles(wall))
	for i, s := range pt.segs {
		a.segs[i] += s
	}

	t.reqs.Put(reqRec{id: pt.reqID, pid: int32(pt.pid), op: a.op, start: pt.reqStart, end: now, segs: pt.segs})
	t.spans.Put(spanRec{
		id: pt.reqID, req: pt.reqID, pid: int32(pt.pid),
		kind: SpanRequest, op: a.op, start: pt.reqStart, end: now,
	})
	pt.ps.SetRequest(0, "")
	pt.reqID, pt.agg = 0, nil
}

// SyscallEnter opens a syscall span under pid's current request (also
// tracked with no request open, so nesting stays consistent; only
// spans under a request are recorded).
func (t *Tracer) SyscallEnter(pid int, nr uint16) {
	pt := t.proc(pid)
	t.seq++
	pt.push(openSpan{id: t.seq, kind: SpanSyscall, arg: uint32(nr), start: t.clock.Now()})
}

// SyscallExit closes the innermost syscall span.
func (t *Tracer) SyscallExit(pid int, nr uint16, in, out int) {
	pt := t.proc(pid)
	if pt.depth == 0 || pt.stack[pt.depth-1].kind != SpanSyscall {
		return
	}
	pt.depth--
	sp := pt.stack[pt.depth]
	if pt.reqID == 0 {
		return
	}
	t.spans.Put(spanRec{
		id: sp.id, parent: pt.topID(), req: pt.reqID, pid: int32(pid),
		kind: SpanSyscall, arg: sp.arg, start: sp.start, end: t.clock.Now(),
	})
}

// ExecSpan records a completed in-kernel execution slice (probe or
// kucode run) as a child of pid's innermost open span. Outside a
// request it records nothing.
func (t *Tracer) ExecSpan(pid int, sub kperf.Subsys, start, end sim.Cycles) {
	pt := t.proc(pid)
	if pt.reqID == 0 {
		return
	}
	t.seq++
	t.spans.Put(spanRec{
		id: t.seq, parent: pt.topID(), req: pt.reqID, pid: int32(pid),
		kind: SpanExec, arg: uint32(sub), start: start, end: end,
	})
}

// intern returns op's index in the name table, adding the name on
// first sight.
func (t *Tracer) intern(op string) uint32 {
	i, ok := t.ops[op]
	if !ok {
		i = uint32(len(t.names))
		t.names = append(t.names, op)
		t.aggs = append(t.aggs, nil)
		t.ops[op] = i
	}
	return i
}

// agg returns (creating) the aggregate for op.
func (t *Tracer) agg(op string) *opAgg {
	i := t.intern(op)
	a := t.aggs[i]
	if a == nil {
		a = &opAgg{op: i}
		t.aggs[i] = a
	}
	return a
}

// ---- accessors ----

// Spans returns the retained closed spans in write order (oldest
// retained first). Spans outside any request are never recorded.
// Nil-safe.
func (t *Tracer) Spans() []Span {
	if t == nil || t.spans.Len() == 0 {
		return nil
	}
	out := make([]Span, t.spans.Len())
	for i := range out {
		r := t.spans.At(i)
		out[i] = Span{
			ID: r.id, Parent: r.parent, Req: r.req, PID: int(r.pid), Kind: r.kind,
			Op: t.names[r.op], Arg: r.arg, Start: r.start, End: r.end,
		}
	}
	return out
}

// Requests returns the retained closed-request records in write order.
func (t *Tracer) Requests() []ReqRecord {
	if t == nil || t.reqs.Len() == 0 {
		return nil
	}
	out := make([]ReqRecord, t.reqs.Len())
	for i := range out {
		r := t.reqs.At(i)
		out[i] = ReqRecord{ID: r.id, PID: int(r.pid), Op: t.names[r.op], Start: r.start, End: r.end, Segs: r.segs}
	}
	return out
}

// segList renders a segment array for diagnostics.
func segList(segs [NSegs]int64) string {
	s := ""
	for i, v := range segs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", Seg(i), v)
	}
	return s
}
