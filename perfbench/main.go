// Command perfbench is Semandaq's end-to-end benchmark. It starts the real
// HTTP server in-process on loopback TCP, drives one workload's closed-loop
// request mix against it from one client, checks every response against
// its own definition-level checker, and prints each metric by name with
// its unit and sample count. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 a
// separate traced run replays the same seed and operation sequence and
// reports per-layer metrics: spans in this package time the calls into
// each layer's public functions on the benchmark's own copies of the
// table, and the traced/untraced latency ratio gives the tracing overhead.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from source:
//
//	bash perfbench/run.sh --workload steward-sparse --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// setups is how many times a run sets up from scratch; setup_s is their
// median.
const setups = 3

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	var wl *workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(ctx, wl, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res, err = runPlain(ctx, wl, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	// json marks the metrics BENCHMARK.json names; the others are printed
	// only.
	json bool
}

type result struct {
	correct       bool
	tried, failed int
	metrics       []metric
}

func (r *result) add(name string, value float64, unit string, n int, inJSON bool) {
	r.metrics = append(r.metrics, metric{name, value, unit, n, inJSON})
}

// print writes the table, then the JSON line.
func (r *result) print(w *os.File) {
	out := map[string]any{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-36s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		if m.json {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.tried, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings
	}
	fmt.Fprintln(w, string(line))
}

// prepare generates the workload's inputs, prints what they are and fails
// when the data is not in the workload's regime.
func prepare(wl *workload, seed uint64) (*Dataset, []byte, error) {
	ds := Generate(seed, wl.tuples, wl.noise)
	csv := ds.CSV()
	e := NewChecker(wl.cfds, ds.Rows, 0).Expect(false)
	share := float64(e.Dirty()) / float64(e.Tuples)
	fmt.Printf("workload %s seed %d: %d tuples, %d CSV bytes, noise %g, closed loop, 1 client\n",
		wl.name, seed, wl.tuples, len(csv), wl.noise)
	fmt.Printf("cfds:\n%s", wl.cfds)
	fmt.Printf("dirty %d of %d tuples (%.4f%%), %d violations in %d groups\n",
		e.Dirty(), e.Tuples, 100*share, e.Violations, e.Groups)
	if share < wl.minDirty || share > wl.maxDirty {
		return nil, nil, fmt.Errorf("%s: dirty share %.4f outside [%g, %g]", wl.name, share, wl.minDirty, wl.maxDirty)
	}
	return ds, csv, nil
}

// setupMedian sets up setups times from scratch and keeps the last
// instance running; it returns it with the median set-up time.
func setupMedian(ctx context.Context, wl *workload, ds *Dataset, csv []byte, seed uint64) (*bench, float64, error) {
	var times sample
	var b *bench
	for k := 0; k < setups; k++ {
		if b != nil {
			b.in.stop()
		}
		runtime.GC()
		b = newBench(wl, ds, seed)
		d, err := b.setup(ctx, csv)
		if err != nil {
			if b.in != nil {
				b.in.stop()
			}
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return b, times.quantile(0.5), nil
}

// window runs cycles from 1 until the time is up and at least minCycles
// ran, always in pairs so that every corruption is restored within the
// window.
func (b *bench) window(ctx context.Context, d time.Duration, minCycles int, each func(c int) error) error {
	start := time.Now()
	for c := 1; ; c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := each(c); err != nil {
			return err
		}
		if c%2 == 0 && c >= minCycles && time.Since(start) >= d {
			return nil
		}
	}
}

var liveSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

func liveHeapMB() float64 {
	runtime.GC()
	metrics.Read(liveSample)
	return float64(liveSample[0].Value.Uint64()) / (1 << 20)
}

func runPlain(ctx context.Context, wl *workload, seed uint64, d time.Duration) (*result, error) {
	ds, csv, err := prepare(wl, seed)
	if err != nil {
		return nil, err
	}
	b, setupS, err := setupMedian(ctx, wl, ds, csv, seed)
	if err != nil {
		return nil, err
	}
	defer b.in.stop()
	b.rc = newRecorder()
	werr := b.window(ctx, d, 2, func(c int) error { return b.cycle(ctx, c) })
	if werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: window stopped:", werr)
	}
	rc := b.rc
	res := &result{correct: werr == nil && rc.failed == 0, tried: rc.tried, failed: rc.failed}
	res.add("setup_s", setupS, "s", setups, true)
	res.add("ops_per_s", float64(rc.ops)/rc.busy.Seconds(), "ops/s", rc.ops, false)
	res.add("cpu_ms_per_op", float64(rc.cpuAll)/float64(time.Millisecond)/float64(max(rc.ops, 1)), "ms", rc.ops, true)
	res.add("error_ratio", float64(rc.failed)/float64(max(rc.tried, 1)), "ratio", rc.tried, false)
	res.add("cycle_p50_ms", rc.cycles.quantile(0.5), "ms", len(rc.cycles), false)
	res.add("detect_p50_ms", rc.lat["detect"].quantile(0.5), "ms", len(rc.lat["detect"]), false)
	res.add("detect_cpu_ms", rc.cpu["detect"].quantile(0.5), "ms", len(rc.cpu["detect"]), true)
	res.add("stream_first_ms", rc.first.quantile(0.5), "ms", len(rc.first), false)
	res.add("stream_p50_ms", rc.lat["stream"].quantile(0.5), "ms", len(rc.lat["stream"]), false)
	res.add("write_p50_ms", rc.lat["write"].quantile(0.5), "ms", len(rc.lat["write"]), false)
	for _, op := range []struct{ op, metric string }{
		{"detect_columnar", "detect_columnar_p50_ms"}, {"audit", "audit_p50_ms"},
		{"explore", "explore_p50_ms"}, {"repair", "repair_p50_ms"},
		{"discover", "discover_p50_ms"}, {"batch", "batch_p50_ms"}, {"page", "page_p50_ms"},
	} {
		if s := rc.lat[op.op]; len(s) > 0 {
			res.add(op.metric, s.quantile(0.5), "ms", len(s), false)
		}
	}
	// A tail percentile only where at least ten samples lie beyond it.
	for _, op := range []string{"write", "batch", "detect", "stream"} {
		if s := rc.lat[op]; len(s) >= 100 {
			res.add(op+"_p90_ms", s.quantile(0.9), "ms", len(s), false)
		}
	}
	res.add("alloc_kb_per_op", float64(rc.alloc)/1024/float64(max(rc.ops, 1)), "KiB", rc.ops, true)
	res.add("live_heap_mb", liveHeapMB(), "MiB", 1, true)
	fmt.Printf("stationary: %d restoring cycles saw the loaded state, %d dirty of %d tuples (%.4f%%)\n",
		b.restored, b.base.Dirty(), b.base.Tuples, 100*float64(b.base.Dirty())/float64(b.base.Tuples))
	return res, nil
}
