package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
)

// RunD5 measures the columnar read path: the row-scanning native detector
// versus the sequential columnar detector versus the sharded
// parallel-columnar detector, over growing data up to 1M tuples.
//
// Columnar timings are reported twice: cold includes building the table's
// columnar snapshot (the first detection after a mutation pays it; each
// cold rep runs on a fresh table copy so the version cache cannot help),
// warm reuses the version-cached snapshot (every detection until the next
// mutation). Expected shape: columnar beats the row path even cold — the
// scan does integer code comparisons and packs fixed-width group keys,
// while the row path re-derives length-prefixed key strings per tuple per
// CFD — and parallel-columnar divides the warm scan by the effective core
// count.
//
// Two noise rates separate the two regimes. At 5% noise virtually every
// FD group contains a corrupted member (the [CC] -> [CNT] dependency has
// country-sized groups), so every tuple is dirty and both engines spend
// much of their time building the multi-million-record report — the
// columnar advantage is damped by shared output cost. At 0% noise the
// report is empty and the run is pure scan and group-build — the
// monitoring-clean-data steady state, and exactly the work the columnar
// layer accelerates.
//
// Methodology: at 1M tuples a detection report can hold millions of
// violation records, so a single timed run mostly measures where the GC
// heap ceiling happens to be. Each figure is the minimum of `reps` runs,
// with a forced GC before each and the collector's target ratio relaxed
// for the duration of the experiment.
func RunD5(ctx context.Context, w io.Writer, quick bool) error {
	header(w, "D5", "columnar detection: row vs columnar vs parallel-columnar")
	sizes := []int{10000, 100000, 1000000}
	noises := []float64{0.05, 0}
	reps := 3
	if quick {
		sizes = []int{2000, 10000}
		noises = []float64{0.05}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	workers := runtime.GOMAXPROCS(0)
	cfds := datagen.StandardCFDs()
	fmt.Fprintf(w, "workers=%d best-of=%d\n", workers, reps)
	fmt.Fprintf(w, "%10s %7s %10s %12s %12s %12s %7s %7s %7s %8s\n",
		"tuples", "noise", "native_ms", "col_cold_ms", "col_warm_ms", "parallel_ms",
		"cold_x", "warm_x", "par_x", "dirty")
	for _, size := range sizes {
		for _, noise := range noises {
			if err := runD5Point(ctx, w, size, noise, reps, cfds); err != nil {
				return err
			}
		}
	}
	return nil
}

// runD5Point measures all engines at one (size, noise) workload point.
func runD5Point(ctx context.Context, w io.Writer, n int, noise float64, reps int, cfds []*cfd.CFD) error {
	ds := datagen.Generate(datagen.Config{Tuples: n, Seed: 7, NoiseRate: noise})

	// measure times det over reps runs (minimum wins), cross-checking
	// every report against the native baseline. setup, run untimed,
	// provides the table for each rep.
	var natRep *detect.Report
	measure := func(det detect.Detector, label string, setup func() *relstore.Table) (float64, int, error) {
		best := math.Inf(1)
		dirty := 0
		for i := 0; i < reps; i++ {
			tab := ds.Dirty
			if setup != nil {
				tab = setup()
			}
			runtime.GC()
			var r *detect.Report
			dur, err := timed(func() error {
				var err error
				r, err = det.Detect(ctx, tab, cfds)
				return err
			})
			if err != nil {
				return 0, 0, fmt.Errorf("D5: %s at n=%d: %w", label, n, err)
			}
			dirty = len(r.Vio)
			if natRep == nil {
				natRep = r
			} else if err := detect.Equivalent(natRep, r); err != nil {
				return 0, 0, fmt.Errorf("D5: %s diverged at n=%d: %w", label, n, err)
			}
			best = math.Min(best, float64(dur.Microseconds())/1000)
		}
		return best, dirty, nil
	}
	natMS, dirty, err := measure(detect.NativeDetector{}, "native", nil)
	if err != nil {
		return err
	}
	coldMS, _, err := measure(detect.ColumnarDetector{Workers: 1}, "columnar cold",
		func() *relstore.Table { return coldCopy(ds.Dirty) })
	if err != nil {
		return err
	}
	ds.Dirty.Snapshot().Columnar() // ensure the warm path really is warm
	warmMS, _, err := measure(detect.ColumnarDetector{Workers: 1}, "columnar warm", nil)
	if err != nil {
		return err
	}
	parMS, _, err := measure(detect.ParallelDetector{}, "parallel-columnar", nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%10d %6.1f%% %10.2f %12.2f %12.2f %12.2f %6.2fx %6.2fx %6.2fx %8d\n",
		n, noise*100, natMS, coldMS, warmMS, parMS,
		natMS/coldMS, natMS/warmMS, natMS/parMS, dirty)
	return nil
}
