package kperf

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// AttrRow is one non-zero attribution cell: the cycles charged to one
// (process, mode, subsystem, syscall) combination.
type AttrRow struct {
	Process string `json:"process"`
	Mode    string `json:"mode"`
	Subsys  string `json:"subsys"`
	Syscall string `json:"syscall"`
	Cycles  int64  `json:"cycles"`
}

// Snapshot is the serializable state of a Set at one instant: every
// registry metric, the attribution table, and the tracer's volume
// counters. BENCH_repro.json embeds one per experiment; kprof renders
// one as a folded-stack profile.
type Snapshot struct {
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`

	// SubsystemCycles aggregates attribution over processes and
	// syscalls: the per-subsystem CPU breakdown the paper argues in.
	SubsystemCycles map[string]int64 `json:"subsystem_cycles"`

	// Attribution holds the full (process, mode, subsystem, syscall)
	// cells. It feeds FoldedStacks and is summarized rather than
	// serialized in BENCH_repro.json to keep the file reviewable.
	Attribution []AttrRow `json:"-"`

	// SetupCycles were charged during boot with no current process;
	// IdleCycles were skipped by the scheduler with nothing runnable.
	SetupCycles int64 `json:"setup_cycles"`
	IdleCycles  int64 `json:"idle_cycles"`

	// TotalCycles is attribution + setup + idle. Because every clock
	// advance flows through exactly one of those sinks, this equals
	// the machine's elapsed cycles — the identity the determinism
	// suite asserts.
	TotalCycles int64 `json:"total_cycles"`

	// TraceRecords/TraceDrops report tracer volume and overflow loss.
	TraceRecords int64 `json:"trace_records"`
	TraceDrops   int64 `json:"trace_drops"`
}

// Snapshot captures the set's current state.
func (s *Set) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	reg := s.Reg.Snapshot()
	sn := &Snapshot{
		Gauges:          reg.Gauges,
		Histograms:      reg.Histograms,
		SubsystemCycles: make(map[string]int64),
		SetupCycles:     int64(s.setupCycles),
		IdleCycles:      int64(s.idleCycles),
	}
	for _, ps := range s.Procs() {
		for mode := 0; mode < int(nModes); mode++ {
			for sub := 0; sub < int(nSubsys); sub++ {
				for slot := 0; slot < s.nrSlots; slot++ {
					c := ps.cells[(mode*int(nSubsys)+sub)*s.nrSlots+slot]
					if c == 0 {
						continue
					}
					sn.Attribution = append(sn.Attribution, AttrRow{
						Process: ps.Label(),
						Mode:    Mode(mode).String(),
						Subsys:  Subsys(sub).String(),
						Syscall: s.slotName(slot),
						Cycles:  int64(c),
					})
					sn.SubsystemCycles[Subsys(sub).String()] += int64(c)
				}
			}
		}
	}
	var attrTotal int64
	for _, row := range sn.Attribution {
		attrTotal += row.Cycles
	}
	sn.TotalCycles = attrTotal + sn.SetupCycles + sn.IdleCycles
	sn.TraceRecords, sn.TraceDrops = s.Trace.Totals()
	return sn
}

// Merge folds other into sn (summing every metric), so an experiment
// spanning several booted machines reports one combined snapshot.
func (sn *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	if sn.Gauges == nil {
		sn.Gauges = make(map[string]int64)
	}
	for k, v := range other.Gauges {
		sn.Gauges[k] += v
	}
	if sn.Histograms == nil {
		sn.Histograms = make(map[string]HistogramSnapshot)
	}
	for k, v := range other.Histograms {
		sn.Histograms[k] = mergeHist(sn.Histograms[k], v)
	}
	if sn.SubsystemCycles == nil {
		sn.SubsystemCycles = make(map[string]int64)
	}
	for k, v := range other.SubsystemCycles {
		sn.SubsystemCycles[k] += v
	}
	sn.Attribution = append(sn.Attribution, other.Attribution...)
	sn.SetupCycles += other.SetupCycles
	sn.IdleCycles += other.IdleCycles
	sn.TotalCycles += other.TotalCycles
	sn.TraceRecords += other.TraceRecords
	sn.TraceDrops += other.TraceDrops
}

func mergeHist(a, b HistogramSnapshot) HistogramSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := HistogramSnapshot{
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		Min:   a.Min,
		Max:   a.Max,
	}
	if b.Min < out.Min {
		out.Min = b.Min
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	out.Mean = float64(out.Sum) / float64(out.Count)
	// Power-of-two buckets merge exactly: sum the counts and rescan
	// for the quantiles, which are then as precise as if one histogram
	// had seen every observation.
	n := len(a.Buckets)
	if len(b.Buckets) > n {
		n = len(b.Buckets)
	}
	out.Buckets = make([]int64, n)
	copy(out.Buckets, a.Buckets)
	for i, v := range b.Buckets {
		out.Buckets[i] += v
	}
	out.P50, out.P90, out.P99 = Quantiles(out.Buckets, out.Count, out.Max)
	return out
}

// FoldedStacks renders the attribution cells the filter selects in
// folded-stack format (one "frame;frame;... cycles" line per cell,
// flamegraph.pl / speedscope ready): process → mode → subsystem →
// syscall. Machine sinks appear under a "machine" root, as process
// "machine" with subsystems "setup" and "idle". With a zero filter the
// lines sum to TotalCycles, the machine's elapsed cycles; with a
// filter they sum to that slice of it.
func (sn *Snapshot) FoldedStacks(f TraceFilter) string {
	lines := make([]string, 0, len(sn.Attribution)+2)
	matchRow := func(procLabel, sub string) bool {
		return f.matchProc(procLabel) && f.matchSub(sub)
	}
	for _, row := range sn.Attribution {
		if !matchRow(row.Process, row.Subsys) {
			continue
		}
		lines = append(lines, fmt.Sprintf("%s;%s;%s;%s %d",
			row.Process, row.Mode, row.Subsys, row.Syscall, row.Cycles))
	}
	if sn.SetupCycles > 0 && matchRow("machine", "setup") {
		lines = append(lines, fmt.Sprintf("machine;kernel;setup;- %d", sn.SetupCycles))
	}
	if sn.IdleCycles > 0 && matchRow("machine", "idle") {
		lines = append(lines, fmt.Sprintf("machine;idle;idle;- %d", sn.IdleCycles))
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// CheckTotal verifies the accounting identity: every simulated cycle
// between boot and now is attributed exactly once, so the snapshot's
// total must equal the machine's elapsed cycles.
func (sn *Snapshot) CheckTotal(elapsed sim.Cycles) error {
	if sn.TotalCycles != int64(elapsed) {
		return fmt.Errorf("kperf: attribution total %d != elapsed %d (diff %d)",
			sn.TotalCycles, int64(elapsed), sn.TotalCycles-int64(elapsed))
	}
	return nil
}
