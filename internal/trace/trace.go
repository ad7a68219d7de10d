// Package trace implements the paper's system-call logging and
// analysis pipeline (§2.2): an strace/audit-style recorder attached
// to the machine's observer seam, the weighted system-call graph built
// from consecutive-call transitions, frequent-sequence mining, and
// the consolidation-savings estimator used for the paper's
// "28.15 seconds per hour" projection.
package trace

import (
	"repro/internal/kperf"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/sysgraph"
)

// Event is one recorded system call.
type Event struct {
	Time sim.Cycles
	PID  int
	Nr   sys.Nr
	// In and Out are the bytes copied across the user/kernel boundary
	// in each direction.
	In, Out int
}

// Recorder captures syscall activity. It implements kernel.Observer
// structurally, overriding SyscallExit only. Events is the one record
// of what happened; the counters read it.
type Recorder struct {
	kperf.NopObserver

	clock *sim.Clock

	// Events lists every recorded call in completion order; the
	// counters and the savings estimator read it.
	Events []Event
	Graph  *sysgraph.Graph
}

// NewRecorder creates a recorder stamping events from clock.
func NewRecorder(clock *sim.Clock) *Recorder {
	return &Recorder{
		clock: clock,
		Graph: sysgraph.New(func(n sysgraph.Node) string { return sys.Nr(n).String() }),
	}
}

// SyscallExit records one completed system call.
func (r *Recorder) SyscallExit(pid int, nr uint16, in, out int) {
	r.Events = append(r.Events, Event{Time: r.clock.Now(), PID: pid, Nr: sys.Nr(nr), In: in, Out: out})
	r.Graph.Observe(pid, sysgraph.Node(nr))
}

// TotalCalls reports the number of recorded calls.
func (r *Recorder) TotalCalls() int64 { return int64(len(r.Events)) }

// Calls reports the count for one syscall.
func (r *Recorder) Calls(nr sys.Nr) int64 {
	var n int64
	for _, e := range r.Events {
		if e.Nr == nr {
			n++
		}
	}
	return n
}

// TotalBytes reports all bytes copied across the boundary.
func (r *Recorder) TotalBytes() int64 {
	var n int64
	for _, e := range r.Events {
		n += int64(e.In + e.Out)
	}
	return n
}

// Duration reports the trace's time span, from the first recorded
// call to the last.
func (r *Recorder) Duration() sim.Cycles {
	if len(r.Events) == 0 {
		return 0
	}
	return r.Events[len(r.Events)-1].Time - r.Events[0].Time
}

// TopPatterns mines the syscall graph for consolidation candidates.
func (r *Recorder) TopPatterns(minWeight uint64, maxLen int) []sysgraph.Path {
	return r.Graph.MinePaths(minWeight, maxLen)
}
