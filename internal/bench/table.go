// Package bench is the experiment harness: one entry point per paper
// result (E1-E12, see DESIGN.md), each returning a table of
// paper-reported versus measured values with pass/fail acceptance
// bands. The root bench_test.go, cmd/kucode, and EXPERIMENTS.md all
// render these tables.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/kflight"
	"repro/internal/kperf"
	"repro/internal/ktrace"
	"repro/internal/sim"
)

// Row is one comparison line.
type Row struct {
	Label    string
	Paper    string
	Measured string
	Pass     bool
}

// Table is one experiment's results.
type Table struct {
	ID    string
	Title string
	Rows  []Row
	Notes []string

	// Simulated-cycle totals over the experiment's measured phases,
	// accumulated via Observe. The parallel runner records these in
	// BENCH_repro.json so wall-clock trajectories can be compared
	// across PRs while proving the simulated results did not move.
	SimUser, SimSys, SimElapsed sim.Cycles

	// Perf is the merged kperf snapshot over every system the
	// experiment booted with instrumentation enabled (nil when the
	// experiment ran with kperf off). PerfElapsed accumulates those
	// machines' elapsed cycles, so Perf.CheckTotal(PerfElapsed) is the
	// attribution identity: every simulated cycle is accounted to
	// exactly one (process, mode, subsystem) cell.
	Perf        *kperf.Snapshot
	PerfElapsed sim.Cycles

	// Flight is the merged kflight summary over every instrumented
	// system (nil when the experiment ran without the recorder). Every
	// field is deterministic in simulated behavior, so benchdiff gates
	// on it like any other metric.
	Flight *kflight.Summary

	// Ktrace is the merged request-trace summary over every
	// instrumented system (nil when the experiment ran without the
	// tracer): per-operation latency SLIs and critical-path segment
	// decompositions, deterministic in simulated behavior so benchdiff
	// gates on it.
	Ktrace *ktrace.Summary
}

// Observe accumulates a measured phase's simulated times into the
// table's totals.
func (t *Table) Observe(ph Phase) {
	t.SimUser += ph.User
	t.SimSys += ph.Sys
	t.SimElapsed += ph.Elapsed
}

// ObserveCycles accumulates raw elapsed cycles (experiments that
// measure a whole machine rather than a phase).
func (t *Table) ObserveCycles(c sim.Cycles) { t.SimElapsed += c }

// Add appends a row.
func (t *Table) Add(label, paper, measured string, pass bool) {
	t.Rows = append(t.Rows, Row{label, paper, measured, pass})
}

// Note appends a free-form note rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// AllPass reports whether every row passed its band.
func (t *Table) AllPass() bool {
	for _, r := range t.Rows {
		if !r.Pass {
			return false
		}
	}
	return true
}

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	wL, wP, wM := len("metric"), len("paper"), len("measured")
	for _, r := range t.Rows {
		wL, wP, wM = max(wL, len(r.Label)), max(wP, len(r.Paper)), max(wM, len(r.Measured))
	}
	line := fmt.Sprintf("  %%-%ds  %%-%ds  %%-%ds  %%s\n", wL, wP, wM)
	fmt.Fprintf(&b, line, "metric", "paper", "measured", "")
	fmt.Fprintf(&b, line, strings.Repeat("-", wL), strings.Repeat("-", wP), strings.Repeat("-", wM), "")
	for _, r := range t.Rows {
		mark := "ok"
		if !r.Pass {
			mark = "MISS"
		}
		fmt.Fprintf(&b, line, r.Label, r.Paper, r.Measured, mark)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub markdown (EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| metric | paper | measured | status |\n|---|---|---|---|\n")
	for _, r := range t.Rows {
		mark := "✅"
		if !r.Pass {
			mark = "❌"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", r.Label, r.Paper, r.Measured, mark)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note: %s*\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// pct formats a ratio as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// inBand reports lo <= v <= hi.
func inBand(v, lo, hi float64) bool { return v >= lo && v <= hi }

// improvement computes (base - new) / base.
func improvement(base, new sim.Cycles) float64 {
	if base == 0 {
		return 0
	}
	return float64(base-new) / float64(base)
}

// overhead computes (new - base) / base.
func overhead(base, new sim.Cycles) float64 {
	if base == 0 {
		return 0
	}
	return float64(new-base) / float64(base)
}

// ratio computes new / base.
func ratio(base, new sim.Cycles) float64 {
	if base == 0 {
		return 0
	}
	return float64(new) / float64(base)
}
