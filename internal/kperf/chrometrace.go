package kperf

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// The Chrome trace_event exporter: renders the tracer's shards as a
// JSON object loadable in chrome://tracing or https://ui.perfetto.dev.
// Each simulated process is one "thread" of a single "machine"
// process; scheduler spans, syscall spans and blocked intervals are
// complete ("X") events and faults are instants ("i"). Timestamps are
// microseconds at the paper's 1.7GHz reference clock, so the timeline
// reads in the same wall units the paper reports.

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the JSON object format (the list format is also valid,
// but the object form carries displayTimeUnit).
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// machinePID is the single Chrome "process" every simulated process
// hangs under as a thread.
const machinePID = 1

// cyclesToUs converts simulated cycles to trace microseconds.
func cyclesToUs(c int64) float64 { return float64(c) / 1700.0 }

// TraceFilter restricts the exporters to one process and/or one
// subsystem. Proc matches a process name or its "name-pid" label, so
// "pm" selects process pm but not process pm-a; Subsystem matches the
// event's attributed subsystem (scheduler spans count as "sched",
// syscall spans as "kern", faults as "mem", blocked intervals as the
// subsystem they waited on). Zero-value fields match everything.
type TraceFilter struct {
	Proc      string
	Subsystem string
}

// matchProc reports whether the process labeled "name-pid" passes the
// filter: Proc is its label, or its name, which is the label less a
// "-pid" suffix.
func (f TraceFilter) matchProc(label string) bool {
	if f.Proc == "" || f.Proc == label {
		return true
	}
	pid, ok := strings.CutPrefix(label, f.Proc+"-")
	return ok && pid != "" && strings.Trim(pid, "0123456789") == ""
}

func (f TraceFilter) matchSub(sub string) bool {
	return f.Subsystem == "" || f.Subsystem == sub
}

// CounterPoint is one sample on a counter track: the track's value at
// a simulated instant.
type CounterPoint struct {
	At    int64 // simulated cycles
	Value float64
}

// CounterTrack is a named time series rendered as a Chrome trace
// counter row ("C" events) alongside the span timeline. kflight epoch
// series export through this.
type CounterTrack struct {
	Name   string
	Points []CounterPoint
}

// FlowSpan is a caller-supplied span rendered into the Chrome trace
// alongside the tracer's own records: ktrace request/span trees export
// through this. Spans sharing a nonzero Flow id are bound into one
// Chrome flow (arrows in Perfetto); the span with FlowStart set
// originates the flow and the others join it.
type FlowSpan struct {
	Name      string
	PID       int // simulated pid, rendered as the thread row
	Flow      uint64
	FlowStart bool
	Start     sim.Cycles
	End       sim.Cycles
	Args      map[string]any
}

// WriteChromeTrace renders the set's trace as Chrome trace_event JSON,
// restricted to the processes and subsystems the filter selects. Each
// counter track renders as one counter row under the machine process,
// so flight-recorder series (syscall rates, TLB ratios, subsystem cycle
// deltas) line up against the span timeline. The extra spans (the
// ktrace request/span forest) are bound into flows: requests originate
// a flow ("s" events) their child spans join ("f"), so Perfetto draws
// the causal arrows.
func (s *Set) WriteChromeTrace(w io.Writer, f TraceFilter, tracks []CounterTrack, extra []FlowSpan) error {
	if s == nil {
		return fmt.Errorf("kperf: no set")
	}
	doc := chromeDoc{DisplayTimeUnit: "ms"}
	for _, tr := range tracks {
		for _, pt := range tr.Points {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: tr.Name, Cat: "kflight", Ph: "C",
				Ts: cyclesToUs(pt.At), PID: machinePID,
				Args: map[string]any{"value": pt.Value},
			})
		}
	}
	for _, sh := range s.Trace.Shards() {
		label := fmt.Sprintf("%s-%d", sh.name, sh.pid)
		if !f.matchProc(label) {
			continue
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M",
			PID: machinePID, TID: sh.pid,
			Args: map[string]any{"name": label},
		})
		for _, ev := range sh.Events() {
			switch ev.Kind {
			case EvSchedSpan:
				if !f.matchSub("sched") {
					continue
				}
			case EvSyscallSpan:
				if !f.matchSub("kern") {
					continue
				}
			case EvBlockSpan:
				if !f.matchSub(Subsys(ev.Arg).String()) {
					continue
				}
			case EvFault:
				if !f.matchSub("mem") {
					continue
				}
			}
			ce := chromeEvent{
				PID: machinePID,
				TID: sh.pid,
				Ts:  cyclesToUs(int64(ev.Start)),
			}
			switch ev.Kind {
			case EvSchedSpan:
				ce.Name, ce.Cat, ce.Ph = "on-cpu", "sched", "X"
				d := cyclesToUs(int64(ev.End - ev.Start))
				ce.Dur = &d
			case EvSyscallSpan:
				ce.Name, ce.Cat, ce.Ph = s.syscallName(int(ev.Arg)), "syscall", "X"
				d := cyclesToUs(int64(ev.End - ev.Start))
				ce.Dur = &d
				ce.Args = map[string]any{"nr": ev.Arg}
			case EvBlockSpan:
				ce.Name, ce.Cat, ce.Ph = "blocked:"+Subsys(ev.Arg).String(), "wait", "X"
				d := cyclesToUs(int64(ev.End - ev.Start))
				ce.Dur = &d
			case EvFault:
				ce.Name, ce.Cat, ce.Ph, ce.S = "fault", "mem", "i", "t"
				ce.Args = map[string]any{
					"guard": ev.Arg&1 != 0,
					"write": ev.Arg&2 != 0,
				}
			default:
				continue
			}
			doc.TraceEvents = append(doc.TraceEvents, ce)
		}
	}
	for _, sp := range extra {
		d := cyclesToUs(int64(sp.End - sp.Start))
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Name, Cat: "ktrace", Ph: "X",
			Ts: cyclesToUs(int64(sp.Start)), Dur: &d,
			PID: machinePID, TID: sp.PID, Args: sp.Args,
		})
		if sp.Flow == 0 {
			continue
		}
		ev := chromeEvent{
			Name: "req", Cat: "ktrace", Ph: "s", ID: sp.Flow,
			Ts: cyclesToUs(int64(sp.Start)), PID: machinePID, TID: sp.PID,
		}
		if !sp.FlowStart {
			// bp=e binds the flow step to the enclosing span.
			ev.Ph, ev.BP = "f", "e"
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
