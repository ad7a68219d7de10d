package kperf

import (
	"slices"

	"repro/internal/sim"
)

// EventKind classifies one trace record.
type EventKind uint8

// Trace record kinds. Span kinds carry a start and an end stamp;
// instant kinds carry only a start.
const (
	// EvSchedSpan is one scheduler dispatch: the process held the CPU
	// from Start to End. Arg is the context-switch count at dispatch.
	EvSchedSpan EventKind = iota + 1
	// EvSyscallSpan is one system call; Arg is the syscall number.
	EvSyscallSpan
	// EvBlockSpan is a blocked interval (I/O wait or sleep); Arg is
	// the Subsys the process was waiting on (SubDisk for disk I/O).
	EvBlockSpan
	// EvFault is an instant page-fault event; Arg bit 0 marks a guard
	// (Kefence) fault, bit 1 a write access.
	EvFault
)

func (k EventKind) String() string {
	switch k {
	case EvSchedSpan:
		return "sched"
	case EvSyscallSpan:
		return "syscall"
	case EvBlockSpan:
		return "blocked"
	case EvFault:
		return "fault"
	}
	return "?"
}

// record is one trace record as a shard keeps it, 32 bytes. req is
// the ktrace request id the record was written under (0 when no
// request was open), so postmortem trace tails can say which logical
// operation a span belonged to.
type record struct {
	kind       EventKind
	arg        uint32
	start, end sim.Cycles
	req        uint64
}

// TraceEvent is one trace record as readers see it.
type TraceEvent struct {
	PID        int
	Kind       EventKind
	Arg        uint32
	Start, End sim.Cycles
	// Req is the ktrace request id open on the process when the record
	// was written, 0 when none.
	Req uint64
}

// Shard is one process's private slice of the tracer: a leased Window
// of records. The retained records are always the most recent ones,
// which is exactly the tail a kflight postmortem wants. The hot path
// writes one record in place.
type Shard struct {
	pid  int
	name string

	recs Window[record]

	// req is the ktrace request id currently open on the process
	// (ProcState.SetRequest); every record written while it is nonzero
	// is stamped with it.
	req uint64
}

// PID reports the shard's process id.
func (s *Shard) PID() int { return s.pid }

// Name reports the shard's process name.
func (s *Shard) Name() string { return s.name }

// Drops reports records lost: overwritten by newer ones once the
// shard was full.
func (s *Shard) Drops() int64 { return s.recs.Overwritten() }

// Records reports the total records ever written, including those
// later overwritten.
func (s *Shard) Records() int64 { return s.recs.Written() }

// Retained reports the records currently held.
func (s *Shard) Retained() int { return s.recs.Len() }

// Span records a completed span.
func (s *Shard) Span(kind EventKind, arg uint32, start, end sim.Cycles) {
	s.write(kind, arg, start, end)
}

// Instant records a point event.
func (s *Shard) Instant(kind EventKind, arg uint32, at sim.Cycles) {
	s.write(kind, arg, at, at)
}

func (s *Shard) write(kind EventKind, arg uint32, start, end sim.Cycles) {
	s.recs.Put(record{kind: kind, arg: arg, start: start, end: end, req: s.req})
}

// Events returns the shard's retained records in write order (oldest
// retained first).
func (s *Shard) Events() []TraceEvent {
	return s.Tail(s.recs.Len())
}

// Tail returns the most recent k retained records in write order; k
// larger than the retained count returns everything.
func (s *Shard) Tail(k int) []TraceEvent {
	recs := s.recs.Tail(k)
	out := make([]TraceEvent, len(recs))
	for i, r := range recs {
		out[i] = TraceEvent{PID: s.pid, Kind: r.kind, Arg: r.arg, Start: r.start, End: r.end, Req: r.req}
	}
	return out
}

// DefaultShardRecords bounds each process shard; at 32 bytes a record
// this is 2 MiB of host memory per process, leased from the spare
// table: a process spawned after a collected machine's reuses that
// machine's shard buffer instead of allocating one.
const DefaultShardRecords = 1 << 16

// Tracer owns the per-process shards. Shard creation happens at
// process spawn (never on a hot path); record writes go straight to
// the process's own shard. Neither locks: both rely on the machine's
// strict goroutine hand-off.
type Tracer struct {
	// ShardRecords caps each shard's record count (0 selects
	// DefaultShardRecords).
	ShardRecords int

	shards []*Shard
}

// NewTracer creates a tracer whose shards hold shardRecords records
// each (0 selects DefaultShardRecords).
func NewTracer(shardRecords int) *Tracer {
	return &Tracer{ShardRecords: shardRecords}
}

// Shard creates the shard for one process.
func (t *Tracer) Shard(pid int, name string) *Shard {
	n := t.ShardRecords
	if n <= 0 {
		n = DefaultShardRecords
	}
	s := &Shard{pid: pid, name: name, recs: LeaseWindow[record](n)}
	t.shards = append(t.shards, s)
	return s
}

// Shards returns the shards in creation (pid) order. The list shares
// the tracer's storage and must not be modified.
func (t *Tracer) Shards() []*Shard {
	return slices.Clip(t.shards)
}

// Totals reports records written and dropped across all shards.
func (t *Tracer) Totals() (records, drops int64) {
	for _, s := range t.Shards() {
		records += s.Records()
		drops += s.Drops()
	}
	return records, drops
}
