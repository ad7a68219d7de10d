package ktrace

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/kperf"
	"repro/internal/sim"
)

// pointerField names the first field under typ that holds a pointer
// (a string, slice, map, pointer, interface, func or chan), or "".
func pointerField(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[i]")
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer,
		reflect.UnsafePointer, reflect.Interface, reflect.Func, reflect.Chan:
		return path + " (" + typ.Kind().String() + ")"
	}
	return ""
}

// TestRetainedRecordsHoldNoPointers checks what the tracer's two
// windows store, read off the Tracer's own fields: a pointer anywhere
// in a record would make the runtime zero and the collector scan all
// of them on every observed boot.
func TestRetainedRecordsHoldNoPointers(t *testing.T) {
	tracer := reflect.TypeOf(Tracer{})
	for _, w := range []struct {
		field string
		size  uintptr
	}{{"spans", 56}, {"reqs", 80}} {
		f, ok := tracer.FieldByName(w.field)
		if !ok {
			t.Fatalf("Tracer has no field %s", w.field)
		}
		at, ok := reflect.PointerTo(f.Type).MethodByName("At")
		if !ok {
			t.Fatalf("Tracer.%s (%s) has no At method", w.field, f.Type)
		}
		rec := at.Type.Out(0)
		if p := pointerField(rec, rec.Name()); p != "" {
			t.Errorf("Tracer.%s keeps %s: %s holds a pointer", w.field, rec, p)
		}
		if rec.Size() != w.size {
			t.Errorf("Tracer.%s keeps %d-byte %s, want %d", w.field, rec.Size(), rec, w.size)
		}
	}
}

// traceModel is the append-and-trim model of a tracer's public
// records: every closed span and request in close order, trimmed to
// the newest spanRecords and reqRecords, plus per-op totals over every
// request ever opened or closed.
type traceModel struct {
	spans                  []Span
	reqs                   []ReqRecord
	spansWritten, reqsDone int64
	opened                 int64
	hist                   map[string]*kperf.Histogram
	segs                   map[string]*[NSegs]int64
}

func (m *traceModel) span(s Span) {
	m.spansWritten++
	if m.spans = append(m.spans, s); len(m.spans) > spanRecords {
		m.spans = m.spans[1:]
	}
}

func (m *traceModel) open(op string) {
	m.opened++
	if m.hist[op] == nil {
		m.hist[op], m.segs[op] = &kperf.Histogram{}, &[NSegs]int64{}
	}
}

func (m *traceModel) request(r ReqRecord) {
	m.reqsDone++
	if m.reqs = append(m.reqs, r); len(m.reqs) > reqRecords {
		m.reqs = m.reqs[1:]
	}
	m.hist[r.Op].Observe(sim.Cycles(r.Wall()))
	for i, v := range r.Segs {
		m.segs[r.Op][i] += v
	}
	m.span(Span{ID: r.ID, Req: r.ID, PID: r.PID, Kind: SpanRequest, Op: r.Op, Start: r.Start, End: r.End})
}

// summary is the summary the model's records give, computed from the
// public records with maps keyed by op name.
func (m *traceModel) summary(open int64) *Summary {
	s := &Summary{
		Requests: m.opened, Open: open,
		ReqDrops: m.reqsDone - int64(len(m.reqs)),
		Spans:    m.spansWritten, SpanDrops: m.spansWritten - int64(len(m.spans)),
	}
	ops := make([]string, 0, len(m.hist))
	for op := range m.hist {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		snap := m.hist[op].Snapshot()
		var tail [NSegs]int64
		var n int64
		for _, r := range m.reqs {
			if r.Op == op && r.Wall() >= snap.P99/2 {
				n++
				for i, v := range r.Segs {
					tail[i] += v
				}
			}
		}
		sli := OpSLI{
			Op: op, Count: snap.Count, Sum: snap.Sum, Max: snap.Max,
			P50: snap.P50, P90: snap.P90, P99: snap.P99, Buckets: snap.Buckets,
			Segs: segMap(*m.segs[op]), TailSegs: segMap(tail), TailCount: n,
		}
		sli.TopSeg = topSeg(sli.TailSegs)
		s.Ops = append(s.Ops, sli)
	}
	return s
}

// flows renders the model's spans as FlowSpans(0) renders a tracer's
// whose kperf set names no syscall.
func (m *traceModel) flows() []kperf.FlowSpan {
	var out []kperf.FlowSpan
	for _, sp := range m.spans {
		name := sp.Op
		switch sp.Kind {
		case SpanRequest:
			name = "req:" + sp.Op
		case SpanSyscall:
			name = fmt.Sprintf("sys_%d", sp.Arg)
		case SpanWait:
			name = "wait:" + kperf.Subsys(sp.Arg).String()
		case SpanExec:
			name = "exec:" + kperf.Subsys(sp.Arg).String()
		}
		out = append(out, kperf.FlowSpan{
			Name: name, PID: sp.PID, Flow: sp.Req, FlowStart: sp.Kind == SpanRequest,
			Start: sp.Start, End: sp.End,
			Args: map[string]any{"span": sp.ID, "parent": sp.Parent, "req": sp.Req, "kind": sp.Kind.String()},
		})
	}
	return out
}

// wrapDriver feeds one tracer the events of a scripted run and its
// model the records those events must close, numbering spans as the
// tracer does. Charges go through the set's attribution, where the
// tracer reads them.
type wrapDriver struct {
	clock sim.Clock
	set   *kperf.Set
	procs map[int]*kperf.ProcState
	tr    *Tracer
	m     traceModel
	seq   uint64
}

// charge advances the clock by c cycles charged to pid under sub and
// books them in segs under seg.
func (d *wrapDriver) charge(pid int, segs *[NSegs]int64, seg Seg, c sim.Cycles, kernelMode bool, sub kperf.Subsys) {
	d.clock.Advance(c)
	ps := d.procs[pid]
	ps.Push(sub)
	ps.OnCycles(c, kernelMode)
	ps.Pop()
	segs[seg] += int64(c)
}

// request runs one request of op on pid: user compute and a syscall,
// and with a nested name a child op holding a disk wait, an off-CPU
// charge, run-queue residency and an exec slice.
func (d *wrapDriver) request(pid int, op string, nested *string, nr uint16) {
	var segs [NSegs]int64
	d.seq++
	req, start := d.seq, d.clock.Now()
	d.tr.BeginOp(pid, op)
	d.m.open(op)
	d.charge(pid, &segs, SegUser, sim.Cycles(100+nr), false, kperf.SubUser)

	d.seq++
	sc, s0 := d.seq, d.clock.Now()
	d.tr.SyscallEnter(pid, nr)
	d.charge(pid, &segs, SegCopy, 30, true, kperf.SubBoundary)
	d.charge(pid, &segs, SegKernel, 45, true, kperf.SubMem)
	d.tr.SyscallExit(pid, nr, 0, 0)
	d.m.span(Span{ID: sc, Parent: req, Req: req, PID: pid, Kind: SpanSyscall, Arg: uint32(nr), Start: s0, End: d.clock.Now()})

	if nested != nil {
		d.seq++
		id, o0 := d.seq, d.clock.Now()
		d.tr.BeginOp(pid, *nested)
		w0 := d.clock.Now()
		d.tr.OnBlock(pid, kperf.SubDisk, w0)
		d.clock.Advance(500)
		segs[SegDisk] += 500
		d.tr.OnReady(pid, d.clock.Now())
		d.seq++
		d.m.span(Span{ID: d.seq, Parent: id, Req: req, PID: pid, Kind: SpanWait, Arg: uint32(kperf.SubDisk), Start: w0, End: d.clock.Now()})
		d.clock.Advance(70)
		segs[SegReady] += 70
		d.charge(pid, &segs, SegKernel, 20, true, kperf.SubSched)
		d.tr.OnRun(pid, d.clock.Now())
		e0 := d.clock.Now()
		d.charge(pid, &segs, SegKernel, 60, true, kperf.SubKu)
		d.seq++
		d.tr.ExecSpan(pid, kperf.SubKu, e0, d.clock.Now())
		d.m.span(Span{ID: d.seq, Parent: id, Req: req, PID: pid, Kind: SpanExec, Arg: uint32(kperf.SubKu), Start: e0, End: d.clock.Now()})
		d.tr.EndOp(pid)
		d.m.span(Span{ID: id, Parent: req, Req: req, PID: pid, Kind: SpanOp, Op: *nested, Start: o0, End: d.clock.Now()})
	}
	d.tr.EndOp(pid)
	d.m.request(ReqRecord{ID: req, PID: pid, Op: op, Start: start, End: d.clock.Now(), Segs: segs})
}

func flowEqual(a, b kperf.FlowSpan) bool {
	return a.Name == b.Name && a.PID == b.PID && a.Flow == b.Flow && a.FlowStart == b.FlowStart &&
		a.Start == b.Start && a.End == b.End && maps.Equal(a.Args, b.Args)
}

func (d *wrapDriver) check(t *testing.T, when string, open int64) {
	t.Helper()
	if got := d.tr.Spans(); !slices.Equal(got, d.m.spans) || (got == nil) != (d.m.spans == nil) {
		t.Fatalf("%s: Spans() differs from the model (%d spans, model %d)", when, len(got), len(d.m.spans))
	}
	if got := d.tr.Requests(); !slices.Equal(got, d.m.reqs) || (got == nil) != (d.m.reqs == nil) {
		t.Fatalf("%s: Requests() differs from the model (%d records, model %d)", when, len(got), len(d.m.reqs))
	}
	if got, want := d.tr.FlowSpans(0), d.m.flows(); !slices.EqualFunc(got, want, flowEqual) || (got == nil) != (want == nil) {
		t.Fatalf("%s: FlowSpans(0) differs from the model (%d spans, model %d)", when, len(got), len(want))
	}
	if got, want := d.tr.Summary(), d.m.summary(open); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Summary()\n got %+v\nwant %+v", when, got, want)
	}
}

// TestReadBackAcrossWrap drives a tracer past both retention bounds
// and checks every accessor against the model of the public records:
// three request ops and the empty name on three processes (one pid
// past 16 bits), nested op spans under half the requests, and a
// request op and a nested op first seen only after both windows
// wrapped. The run ends with a request left open on an op no request
// has closed. It drives the windows over fresh storage and over
// storage every slot of which holds a stale record, as a leased buffer
// does; both must read as the model at every check, the first ones
// before either window fills.
func TestReadBackAcrossWrap(t *testing.T) {
	for _, storage := range []string{"fresh", "recycled"} {
		t.Run(storage, func(t *testing.T) {
			d := &wrapDriver{
				set:   kperf.New(0, 1),
				procs: map[int]*kperf.ProcState{},
				m:     traceModel{hist: map[string]*kperf.Histogram{}, segs: map[string]*[NSegs]int64{}},
			}
			pids := []int{1, 2, 1 << 20}
			for _, pid := range pids {
				d.procs[pid] = d.set.NewProc(pid, "p")
			}
			d.tr = NewTracer(&d.clock, d.set)
			if storage == "recycled" {
				spans := make([]spanRec, spanRecords)
				for i := range spans {
					spans[i] = spanRec{id: uint64(i) + 1, parent: 7, req: 9, start: 1 << 40, end: 1<<40 + 1, pid: 2, op: 1, arg: 3, kind: SpanWait}
				}
				reqs := make([]reqRec, reqRecords)
				for i := range reqs {
					reqs[i] = reqRec{id: uint64(i) + 1, start: 1 << 40, end: 1<<40 + 6, segs: [NSegs]int64{1, 1, 1, 1, 1, 1}, pid: 2, op: 1}
				}
				d.tr.spans, d.tr.reqs = kperf.WindowOver(spans), kperf.WindowOver(reqs)
			}
			d.check(t, "empty", 0)

			ops := []string{"alpha", "beta", "gamma", ""}
			nested := []string{"inner", ""}
			const total = reqRecords + 6000
			checks := map[int]bool{1: true, 100: true, reqRecords: true, reqRecords + 1: true}
			lateSeen := 0
			for i := 1; i <= total; i++ {
				wrapped := d.m.reqsDone > reqRecords && d.m.spansWritten > spanRecords
				op, name := ops[i%len(ops)], nested[i%len(nested)]
				if wrapped && i%5 == 0 {
					op, name = "late", "late.inner"
					lateSeen++
				}
				var inner *string
				if i%2 == 0 {
					inner = &name
				}
				d.request(pids[i%len(pids)], op, inner, uint16(i%7))
				if checks[i] || lateSeen == 1 && op == "late" {
					d.check(t, fmt.Sprintf("after %d requests", i), 0)
				}
			}
			if lateSeen == 0 {
				t.Fatal("no request ran after both windows wrapped")
			}
			if d.m.reqsDone <= reqRecords || d.m.spansWritten <= spanRecords {
				t.Fatalf("%d requests and %d spans do not wrap %d and %d", d.m.reqsDone, d.m.spansWritten, reqRecords, spanRecords)
			}
			d.check(t, "after the run", 0)

			d.tr.BeginOp(2, "open.only")
			d.m.open("open.only")
			d.check(t, "with a request open", 1)
		})
	}
}
