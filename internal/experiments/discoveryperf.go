package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/discovery"
	"semandaq/internal/relstore"
)

// RunD6 measures CFD discovery: the legacy row-store miner versus the
// snapshot-pinned PLI lattice miner, over growing clean reference data (the
// canonical discovery workload — rules are mined from trusted data) and
// growing lattice depth.
//
// Lattice timings are reported twice: cold includes building the snapshot's
// columnar dictionaries, probe vectors and PLIs (the first mine after a
// mutation pays it; each cold rep runs on a fresh cold table copy so the
// version cache cannot help), warm reuses the snapshot caches (every mine
// until the next mutation, and any mine after a detection pass already
// built the columnar view). Expected shape: the lattice miner wins by an
// order of magnitude or more even cold — the legacy miner re-derives
// string group keys per (attribute set, attribute) check, while the
// lattice walks integer partitions and prunes non-minimal candidates
// before checking them — and the gap widens with depth, because partition
// intersection reuses level ℓ work at level ℓ+1 where the legacy miner
// starts every check from the raw rows.
//
// Outputs are cross-checked per point: at MaxLHS <= 2 the two miners must
// be semantically identical; at MaxLHS 3 the lattice set must be a subset
// of the legacy set (the legacy miner's non-transitive pruning emits
// redundant rules there). The legacy miner is capped at legacyCap tuples
// for MaxLHS 3 — its cubic-ish growth would dominate the experiment's
// runtime without adding information.
func RunD6(ctx context.Context, w io.Writer, quick bool) error {
	header(w, "D6", "CFD discovery: legacy row-store miner vs PLI lattice miner")
	type point struct {
		tuples int
		maxLHS int
	}
	points := []point{
		{10000, 2}, {100000, 2}, {1000000, 2},
		{100000, 1}, {100000, 3}, {1000000, 3},
	}
	reps := 3
	legacyCap3 := 100000
	if quick {
		points = []point{{2000, 2}, {10000, 2}, {10000, 3}}
		reps = 1
		legacyCap3 = 10000
	}
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	workers := runtime.GOMAXPROCS(0)
	fmt.Fprintf(w, "workers=%d best-of=%d (clean reference data, default support)\n", workers, reps)
	fmt.Fprintf(w, "%10s %7s %11s %12s %12s %8s %8s %6s\n",
		"tuples", "maxLHS", "legacy_ms", "lat_cold_ms", "lat_warm_ms",
		"cold_x", "warm_x", "cfds")
	for _, pt := range points {
		skipLegacy := pt.maxLHS >= 3 && pt.tuples > legacyCap3
		if err := runD6Point(ctx, w, pt.tuples, pt.maxLHS, reps, skipLegacy); err != nil {
			return err
		}
	}
	return nil
}

// crossCheckMiners verifies the miners' outputs against each other: equal
// sets at maxLHS <= 2, lattice ⊆ legacy at deeper levels. The canonical
// rendering is the discovery package's own (discovery.CanonicalRules), so
// this check and the package's cross-check tests enforce one contract.
func crossCheckMiners(legacy, lattice []*cfd.CFD, maxLHS, n int) error {
	lc := discovery.CanonicalRules(legacy)
	nc := discovery.CanonicalRules(lattice)
	if maxLHS <= 2 {
		if len(lc) != len(nc) {
			return fmt.Errorf("D6: miners diverged at n=%d maxLHS=%d: %d legacy vs %d lattice patterns", n, maxLHS, len(lc), len(nc))
		}
		for i := range lc {
			if lc[i] != nc[i] {
				return fmt.Errorf("D6: miners diverged at n=%d maxLHS=%d: %q vs %q", n, maxLHS, lc[i], nc[i])
			}
		}
		return nil
	}
	inLegacy := make(map[string]bool, len(lc))
	for _, s := range lc {
		inLegacy[s] = true
	}
	for _, s := range nc {
		if !inLegacy[s] {
			return fmt.Errorf("D6: lattice rule missing from legacy set at n=%d maxLHS=%d: %s", n, maxLHS, s)
		}
	}
	return nil
}

// runD6Point measures both miners at one (size, maxLHS) workload point.
func runD6Point(ctx context.Context, w io.Writer, n, maxLHS, reps int, skipLegacy bool) error {
	ds := datagen.Generate(datagen.Config{Tuples: n, Seed: 7})
	opts := discovery.Options{MaxLHS: maxLHS}

	// measure times run over reps (minimum wins). setup, run untimed before
	// each rep, provides the table — the cold path clones there so the
	// deep copy stays outside the figure, matching DiscoverBench's
	// definition of "cold" (snapshot + PLI build + mine, no clone).
	measure := func(setup func() *relstore.Table, run func(tab *relstore.Table) ([]*cfd.CFD, error)) (float64, []*cfd.CFD, error) {
		best := math.Inf(1)
		var out []*cfd.CFD
		for i := 0; i < reps; i++ {
			tab := ds.Clean
			if setup != nil {
				tab = setup()
			}
			runtime.GC()
			var cfds []*cfd.CFD
			dur, err := timed(func() error {
				var err error
				cfds, err = run(tab)
				return err
			})
			if err != nil {
				return 0, nil, err
			}
			out = cfds
			best = math.Min(best, float64(dur.Microseconds())/1000)
		}
		return best, out, nil
	}

	mine := func(tab *relstore.Table) ([]*cfd.CFD, error) {
		rep, err := discovery.Mine(ctx, tab.Snapshot(), opts)
		if err != nil {
			return nil, err
		}
		return rep.CFDs, nil
	}

	legacyMS := math.NaN()
	var legacyCFDs []*cfd.CFD
	if !skipLegacy {
		var err error
		legacyMS, legacyCFDs, err = measure(nil, func(tab *relstore.Table) ([]*cfd.CFD, error) {
			return discovery.LegacyDiscover(tab, opts)
		})
		if err != nil {
			return fmt.Errorf("D6: legacy at n=%d maxLHS=%d: %w", n, maxLHS, err)
		}
	}
	// Cold: a fresh (untimed) cold copy per rep, so the timed run rebuilds the
	// snapshot, columnar view and PLIs from scratch.
	coldMS, _, err := measure(func() *relstore.Table { return coldCopy(ds.Clean) }, mine)
	if err != nil {
		return fmt.Errorf("D6: lattice cold at n=%d maxLHS=%d: %w", n, maxLHS, err)
	}
	if _, err := mine(ds.Clean); err != nil { // ensure the warm path is warm
		return err
	}
	warmMS, latticeCFDs, err := measure(nil, mine)
	if err != nil {
		return fmt.Errorf("D6: lattice warm at n=%d maxLHS=%d: %w", n, maxLHS, err)
	}
	if !skipLegacy {
		if err := crossCheckMiners(legacyCFDs, latticeCFDs, maxLHS, n); err != nil {
			return err
		}
	}
	legacyCol, coldX, warmX := "-", "-", "-"
	if !skipLegacy {
		legacyCol = fmt.Sprintf("%.2f", legacyMS)
		coldX = fmt.Sprintf("%.1fx", legacyMS/coldMS)
		warmX = fmt.Sprintf("%.1fx", legacyMS/warmMS)
	}
	fmt.Fprintf(w, "%10d %7d %11s %12.2f %12.2f %8s %8s %6d\n",
		n, maxLHS, legacyCol, coldMS, warmMS, coldX, warmX, len(latticeCFDs))
	return nil
}

// ---------------------------------------------------------------------------
// Machine-readable discovery benchmarks: cmd/semandaq-bench -discoverjson
// writes the report to BENCH_discover.json so successive PRs accumulate a
// discovery performance trajectory next to BENCH_detect.json.

// DiscoverBenchSchema versions the JSON layout.
const DiscoverBenchSchema = "semandaq/bench-discover/v1"

// DiscoverBenchEntry is one (miner, size, maxLHS) measurement.
type DiscoverBenchEntry struct {
	Miner      string  `json:"miner"` // legacy | lattice-cold | lattice-warm
	Tuples     int     `json:"tuples"`
	MaxLHS     int     `json:"max_lhs"`
	Workers    int     `json:"workers,omitempty"`
	NsOp       int64   `json:"ns_op"`
	RowsPerSec float64 `json:"rows_per_sec"`
	CFDs       int     `json:"cfds"`
	Patterns   int     `json:"patterns"`
}

// DiscoverBenchReport is the full sweep: both miners over growing clean
// reference workloads and lattice depths, outputs cross-checked.
type DiscoverBenchReport struct {
	Schema      string               `json:"schema"`
	GeneratedAt string               `json:"generated_at"`
	GoVersion   string               `json:"go_version"`
	GoMaxProcs  int                  `json:"gomaxprocs"`
	Quick       bool                 `json:"quick"`
	Results     []DiscoverBenchEntry `json:"results"`
}

// DiscoverBench measures both miners at each (size, maxLHS) point and
// returns the report. The legacy miner is capped at MaxLHS 3 sizes above
// 100k (it is orders of magnitude slower and would dominate the sweep);
// per-point outputs are cross-checked, a mismatch fails the sweep.
func DiscoverBench(ctx context.Context, quick bool) (*DiscoverBenchReport, error) {
	type point struct {
		tuples int
		maxLHS int
	}
	points := []point{
		{10000, 1}, {10000, 2},
		{100000, 1}, {100000, 2}, {100000, 3},
		{1000000, 2}, {1000000, 3},
	}
	legacyCap3 := 100000
	if quick {
		points = []point{{2000, 2}, {10000, 2}, {10000, 3}}
		legacyCap3 = 10000
	}
	workers := runtime.GOMAXPROCS(0)
	rep := &DiscoverBenchReport{
		Schema:      DiscoverBenchSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  workers,
		Quick:       quick,
	}
	patternCount := func(cfds []*cfd.CFD) int {
		n := 0
		for _, c := range cfds {
			n += len(c.Tableau)
		}
		return n
	}
	for _, pt := range points {
		ds := datagen.Generate(datagen.Config{Tuples: pt.tuples, Seed: 7})
		opts := discovery.Options{MaxLHS: pt.maxLHS}
		add := func(miner string, workers int, dur time.Duration, cfds []*cfd.CFD) {
			rep.Results = append(rep.Results, DiscoverBenchEntry{
				Miner:      miner,
				Tuples:     pt.tuples,
				MaxLHS:     pt.maxLHS,
				Workers:    workers,
				NsOp:       dur.Nanoseconds(),
				RowsPerSec: float64(pt.tuples) / dur.Seconds(),
				CFDs:       len(cfds),
				Patterns:   patternCount(cfds),
			})
		}
		var legacyCFDs []*cfd.CFD
		skipLegacy := pt.maxLHS >= 3 && pt.tuples > legacyCap3
		if !skipLegacy {
			dur, err := timed(func() error {
				var err error
				legacyCFDs, err = discovery.LegacyDiscover(ds.Clean, opts)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench legacy n=%d lhs=%d: %w", pt.tuples, pt.maxLHS, err)
			}
			add("legacy", 0, dur, legacyCFDs)
		}
		var cold *relstore.Table
		var coldRep *discovery.Report
		cold = coldCopy(ds.Clean)
		dur, err := timed(func() error {
			var err error
			coldRep, err = discovery.Mine(ctx, cold.Snapshot(), opts)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench lattice-cold n=%d lhs=%d: %w", pt.tuples, pt.maxLHS, err)
		}
		add("lattice-cold", workers, dur, coldRep.CFDs)
		snap := ds.Clean.Snapshot()
		if _, err := discovery.Mine(ctx, snap, opts); err != nil {
			return nil, err
		}
		var warmRep *discovery.Report
		dur, err = timed(func() error {
			var err error
			warmRep, err = discovery.Mine(ctx, snap, opts)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench lattice-warm n=%d lhs=%d: %w", pt.tuples, pt.maxLHS, err)
		}
		add("lattice-warm", workers, dur, warmRep.CFDs)
		if !skipLegacy {
			if err := crossCheckMiners(legacyCFDs, warmRep.CFDs, pt.maxLHS, pt.tuples); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// WriteDiscoverBenchJSON runs the sweep, writes the JSON report to path
// and prints a human-readable summary table to w.
func WriteDiscoverBenchJSON(ctx context.Context, path string, quick bool, w io.Writer) (*DiscoverBenchReport, error) {
	rep, err := DiscoverBench(ctx, quick)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "wrote %s (gomaxprocs=%d)\n", path, rep.GoMaxProcs)
	fmt.Fprintf(w, "%-14s %10s %7s %14s %14s %6s %9s\n",
		"miner", "tuples", "maxLHS", "ns_op", "rows_per_sec", "cfds", "patterns")
	for _, e := range rep.Results {
		fmt.Fprintf(w, "%-14s %10d %7d %14d %14.0f %6d %9d\n",
			e.Miner, e.Tuples, e.MaxLHS, e.NsOp, e.RowsPerSec, e.CFDs, e.Patterns)
	}
	return rep, nil
}
