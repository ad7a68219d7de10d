// Package klog is the simulated kernel's syslog: a bounded in-memory
// log with severity levels. Kefence reports buffer overflows here
// ("exact details about the context and location of buffer overflows
// are logged through syslog", §3.2), and tests assert against its
// contents.
package klog

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Level is a syslog severity.
type Level int

// Severity levels, most to least severe.
const (
	Emerg Level = iota
	Alert
	Crit
	Err
	Warning
	Notice
	Info
	Debug
)

var levelNames = [...]string{"EMERG", "ALERT", "CRIT", "ERR", "WARNING", "NOTICE", "INFO", "DEBUG"}

func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return fmt.Sprintf("LEVEL(%d)", int(l))
	}
	return levelNames[l]
}

// Entry is one log record.
type Entry struct {
	Time  sim.Cycles
	Level Level
	Msg   string
	// Req is the ktrace request id the entry was emitted under (0:
	// outside any request, or tracing disabled), so a syslog line can
	// be correlated with the logical operation — PostMark transaction,
	// scan batch, Cosy compound — that produced it.
	Req uint64
}

func (e Entry) String() string {
	return fmt.Sprintf("[%12d] <%s> %s", int64(e.Time), e.Level, e.Msg)
}

// Log is a bounded kernel log. When full, the oldest entries are
// dropped, like a real dmesg ring.
type Log struct {
	// Req, when set, supplies the current ktrace request id (wired by
	// the machine to the running process's kperf state).
	Req func() uint64

	// Retained counts the entries the log holds, and Discarded the
	// entries the bound dropped. Printf and Clear set both under the
	// log's lock.
	Retained, Discarded int64

	mu      sync.Mutex
	clock   *sim.Clock
	max     int
	entries []Entry
}

// New creates a log bounded to max entries; max <= 0 selects a
// default of 16384.
func New(clock *sim.Clock, max int) *Log {
	if max <= 0 {
		max = 16384
	}
	return &Log{clock: clock, max: max}
}

// Printf appends a formatted entry at the given level.
func (l *Log) Printf(level Level, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t sim.Cycles
	if l.clock != nil {
		t = l.clock.Now()
	}
	var req uint64
	if l.Req != nil {
		req = l.Req()
	}
	l.entries = append(l.entries, Entry{Time: t, Level: level, Msg: fmt.Sprintf(format, args...), Req: req})
	if len(l.entries) > l.max {
		over := len(l.entries) - l.max
		l.entries = append(l.entries[:0:0], l.entries[over:]...)
		l.Discarded += int64(over)
	}
	l.Retained = int64(len(l.entries))
}

// Entries returns a snapshot of the retained entries.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Dropped reports how many entries were discarded due to the bound.
func (l *Log) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.Discarded)
}

// Len reports the retained entry count.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.Retained)
}

// Grep returns retained entries whose message contains substr.
func (l *Log) Grep(substr string) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Entry
	for _, e := range l.entries {
		if strings.Contains(e.Msg, substr) {
			out = append(out, e)
		}
	}
	return out
}

// Clear empties the log.
func (l *Log) Clear() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = nil
	l.Retained, l.Discarded = 0, 0
}
