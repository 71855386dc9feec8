// Package experiments regenerates every figure of the Semandaq paper and
// every performance claim it imports from its companion papers (TODS 2008
// detection, VLDB 2007 repair). Each experiment prints the table/series the
// paper's artifact shows; cmd/semandaq-bench runs them from the command
// line and the root bench_test.go wraps them as testing.B benchmarks.
//
// The experiment index (IDs, workloads, expected shapes) lives in
// DESIGN.md; measured outputs are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"semandaq/internal/relstore"
)

// Exp is one reproducible experiment.
type Exp struct {
	// ID is the experiment key from DESIGN.md (F2..F5, D1..D3, R1..R3,
	// S1, M1).
	ID string
	// Title says which paper artifact it regenerates.
	Title string
	// Run executes the experiment, printing its table to w. The caller's
	// ctx cancels long sweeps mid-flight (semandaq-bench wires it to
	// SIGINT; tests use the test context). quick shrinks the workload for
	// smoke tests and testing.B iterations.
	Run func(ctx context.Context, w io.Writer, quick bool) error
}

// All returns every experiment in presentation order.
func All() []Exp {
	return []Exp{
		{ID: "F2", Title: "Fig. 2 — data exploration drill-down", Run: RunF2},
		{ID: "F3", Title: "Fig. 3 — error detection and data quality map", Run: RunF3},
		{ID: "F4", Title: "Fig. 4 — data quality report", Run: RunF4},
		{ID: "F5", Title: "Fig. 5 — data cleansing review", Run: RunF5},
		{ID: "D1", Title: "detection scalability (SQL vs native)", Run: RunD1},
		{ID: "D2", Title: "detection vs number of pattern tuples", Run: RunD2},
		{ID: "D3", Title: "incremental vs batch detection", Run: RunD3},
		{ID: "D4", Title: "parallel detection: sharded vs native vs SQL", Run: RunD4},
		{ID: "D5", Title: "columnar detection: row vs columnar vs parallel-columnar", Run: RunD5},
		{ID: "D6", Title: "CFD discovery: legacy row-store miner vs PLI lattice miner", Run: RunD6},
		{ID: "D7", Title: "incremental serving: cold rebuild vs delta patch (ops-counted)", Run: RunD7},
		{ID: "D8", Title: "streaming SQL executor vs legacy materializing path (ops-counted)", Run: RunD8},
		{ID: "D9", Title: "FD-aware factorised evaluation: closure pruning, factorised reports, collapsed joins", Run: RunD9},
		{ID: "R1", Title: "repair quality vs noise rate", Run: RunR1},
		{ID: "R2", Title: "repair scalability", Run: RunR2},
		{ID: "R3", Title: "incremental vs batch repair", Run: RunR3},
		{ID: "S1", Title: "consistency checking cost", Run: RunS1},
		{ID: "M1", Title: "data monitor under a sustained update stream", Run: RunM1},
		{ID: "A1", Title: "ablation: tableau merging in SQL detection", Run: RunA1},
		{ID: "A2", Title: "ablation: repair oscillation arbitration", Run: RunA2},
	}
}

// ByID finds one experiment.
func ByID(id string) (Exp, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Exp{}, false
}

// IDs lists the experiment IDs.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// timed runs f and returns its wall-clock duration.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// coldCopy returns a copy of tab with no cached read artifacts, the cold
// side of the cold/warm measurements: Table.Clone would take the source's
// pinned snapshot over, columnar view and PLIs included.
func coldCopy(tab *relstore.Table) *relstore.Table {
	c := relstore.NewTable(tab.Schema())
	for _, row := range tab.Snapshot().Rows() {
		c.MustInsert(row)
	}
	return c
}

// ms renders a duration in milliseconds with 2 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// header prints an experiment banner.
func header(w io.Writer, e string, title string) {
	fmt.Fprintf(w, "== %s: %s ==\n", e, title)
}
