package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	rtrace "runtime/trace"
	"sort"
	"strings"
	"time"

	"semandaq/internal/audit"
	"semandaq/internal/cfd"
	"semandaq/internal/consistency"
	"semandaq/internal/detect"
	"semandaq/internal/discovery"
	"semandaq/internal/explore"
	"semandaq/internal/monitor"
	"semandaq/internal/relstore"
	"semandaq/internal/repair"
	"semandaq/internal/schema"
	"semandaq/internal/sqleng"
	"semandaq/internal/types"
)

// The traced run replays the plain run's seed and operation sequence.
// Its HTTP cycles alternate in pairs between untraced and traced (the Go
// execution tracer on, a trace region per request); the latency ratio of
// the two is the tracing overhead. After each HTTP cycle a layer pass
// replays the cycle's writes on the benchmark's own copies of the table
// and times the calls into each layer's public functions. Spans are kept
// in memory as per-name samples and reduced to medians at the end.

// perLayer names the per-layer metrics BENCHMARK.json lists: the ones
// every workload reports, less the regime counts, which describe the data
// rather than a layer's work. The traced run prints more.
var perLayer = []string{
	"relstore.csv_read_ms", "relstore.columnar_build_ms", "relstore.pli_cold_ms",
	"relstore.snapshot_patch_ms", "relstore.pli_ms", "relstore.write_ms",
	"relstore.interned_cells", "relstore.patched_cells", "relstore.pli_builds",
	"relstore.pli_patches", "relstore.patch_ratio",
	"sqleng.plan_ms", "sqleng.exec_ms", "sqleng.rows_out", "sqleng.probes",
	"detect.sql_ms", "detect.sql_self_ms", "detect.factorised_ms", "detect.explode_ms",
	"detect.columnar_ms", "detect.stream_first_ms", "detect.stream_ms", "detect.native_ms",
	"detect.tracker_report_ms",
	"monitor.seed_ms", "monitor.apply_ms",
	"audit.audit_ms", "explore.new_ms", "explore.map_ms",
	"repair.repair_ms", "repair.passes",
	"discovery.cold_ms", "discovery.incremental_ms", "discovery.va_checks_computed",
	"discovery.reuse_ratio", "consistency.check_ms",
	"server.encode_ms.detect", "server.encode_ms.stream",
	"server.response_kb.detect", "server.response_kb.stream",
	"runtime.gc_cpu_share", "runtime.sched_wait_p50_us", "runtime.heap_peak_mb",
	"trace.overhead_ratio", "trace.overhead_ratio.detect", "trace.overhead_ratio.stream",
	"trace.overhead_ratio.write",
}

var inPerLayer = map[string]bool{}

func init() {
	for _, n := range perLayer {
		inPerLayer[n] = true
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// spans holds one run's span durations (ms) and counters, by name.
type spans map[string]sample

// time runs f as the span name, inside a runtime/trace region.
func (s spans) time(ctx context.Context, name string, f func()) float64 {
	start := time.Now()
	rtrace.WithRegion(ctx, name, f)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	s[name] = append(s[name], ms)
	return ms
}

func (s spans) count(name string, v float64) { s[name] = append(s[name], v) }

// layers is the benchmark's own copy of the workload's tables: a is
// written directly and read by every batch layer; a second copy is written
// through the monitor mon.
type layers struct {
	wl    *workload
	cfds  []*cfd.CFD
	a     *relstore.Table
	sql   *detect.SQLDetector
	stmts []string
	mon   *monitor.Monitor
	sess  *discovery.Session
	lhs   []int // CFD LHS columns
	sp    spans
}

// newLayers loads the copies and pays every cold build, setups times so
// the cold spans have as many samples as setup_s.
func newLayers(ctx context.Context, wl *workload, csv []byte, sp spans) (*layers, error) {
	l := &layers{wl: wl, sp: sp}
	for k := 0; k < setups; k++ {
		var err error
		sp.time(ctx, "consistency.check_ms", func() { l.cfds, err = l.checkCFDs() })
		if err != nil {
			return nil, err
		}
		sp.time(ctx, "relstore.csv_read_ms", func() { l.a, err = relstore.ReadCSV(table, bytes.NewReader(csv)) })
		if err != nil {
			return nil, err
		}
		var snap *relstore.Snapshot
		sp.time(ctx, "relstore.columnar_build_ms", func() {
			snap = l.a.Snapshot()
			snap.Columnar()
		})
		l.lhs = nil
		seen := map[int]bool{}
		for _, c := range l.cfds {
			pos, err := snap.Schema().Positions(c.LHS)
			if err != nil {
				return nil, err
			}
			for _, p := range pos {
				if !seen[p] {
					seen[p] = true
					l.lhs = append(l.lhs, p)
				}
			}
		}
		sp.time(ctx, "relstore.pli_cold_ms", func() {
			for _, p := range l.lhs {
				snap.Columnar().Col(p).PLI()
			}
		})
		m, err := relstore.ReadCSV(table, bytes.NewReader(csv))
		if err != nil {
			return nil, err
		}
		sp.time(ctx, "monitor.seed_ms", func() { l.mon, err = monitor.New(m, l.cfds, false) })
		if err != nil {
			return nil, err
		}
		l.sess = discovery.NewSession(l.a)
		sp.time(ctx, "discovery.cold_ms", func() { _, err = l.sess.Discover(ctx, discovery.Options{}) })
		if err != nil {
			return nil, err
		}
	}
	store := relstore.NewStore()
	store.Put(l.a)
	// The detector keeps its tableau tables so the generated statements
	// can be planned and run again on their own.
	l.sql = &detect.SQLDetector{Engine: sqleng.New(store), KeepArtifacts: true}
	var err error
	l.stmts, err = detect.GenerateSQL(l.a, l.cfds)
	return l, err
}

// checkCFDs parses the workload's CFD text and checks the set is
// satisfiable, as registering it does.
func (l *layers) checkCFDs() ([]*cfd.CFD, error) {
	cfds, err := cfd.ParseSet(l.wl.cfds)
	if err != nil {
		return nil, err
	}
	rep, err := consistency.Check(schema.New(table, attrNames[:]...), cfds, nil)
	if err != nil {
		return nil, err
	}
	if !rep.Satisfiable {
		return nil, fmt.Errorf("CFD set unsatisfiable: %s", rep.Conflict)
	}
	return cfds, nil
}

// replay applies one cycle's writes: directly to a, each timed, and
// through the monitor to m, as one batch and then one call per single
// write, as the server does. Inserts must get the ids the server gave.
func (l *layers) replay(ctx context.Context, batch, singles []write) error {
	var ups []monitor.Update
	for _, w := range batch {
		ups = append(ups, update(w))
	}
	for _, w := range append(append([]write(nil), batch...), singles...) {
		var err error
		l.sp.time(ctx, "relstore.write_ms", func() { err = writeTable(l.a, w) })
		if err != nil {
			return err
		}
	}
	// monitor.apply_ms is the cycle's whole Monitor.Apply time, so every
	// workload reports it; the batch and single calls are also timed apart.
	apply := 0.0
	if len(ups) > 0 {
		var res *monitor.BatchResult
		var err error
		apply += l.sp.time(ctx, "monitor.apply_batch_ms", func() { res, err = l.mon.Apply(ups) })
		if err != nil {
			return err
		}
		if err := sameIDs(batch, res.Inserted); err != nil {
			return err
		}
	}
	for _, w := range singles {
		var res *monitor.BatchResult
		var err error
		apply += l.sp.time(ctx, "monitor.apply_single_ms", func() { res, err = l.mon.Apply([]monitor.Update{update(w)}) })
		if err != nil {
			return err
		}
		if err := sameIDs([]write{w}, res.Inserted); err != nil {
			return err
		}
	}
	l.sp.count("monitor.apply_ms", apply)
	return nil
}

func sameIDs(ws []write, got []relstore.TupleID) error {
	k := 0
	for _, w := range ws {
		if w.op != 'i' {
			continue
		}
		if k >= len(got) || int64(got[k]) != w.id {
			return fmt.Errorf("layer copy numbered an insert differently from the server (want id %d)", w.id)
		}
		k++
	}
	return nil
}

func update(w write) monitor.Update {
	switch w.op {
	case 's':
		return monitor.Update{Op: monitor.OpSet, ID: relstore.TupleID(w.id), Attr: attrNames[w.attr], Value: types.Parse(w.val)}
	case 'd':
		return monitor.Update{Op: monitor.OpDelete, ID: relstore.TupleID(w.id)}
	default:
		return monitor.Update{Op: monitor.OpInsert, Row: tuple(w.row)}
	}
}

func tuple(row [arity]string) relstore.Tuple {
	t := make(relstore.Tuple, arity)
	for i, v := range row {
		t[i] = types.Parse(v)
	}
	return t
}

func writeTable(t *relstore.Table, w write) error {
	switch w.op {
	case 's':
		_, err := t.SetCell(relstore.TupleID(w.id), w.attr, types.Parse(w.val))
		return err
	case 'd':
		if !t.Delete(relstore.TupleID(w.id)) {
			return fmt.Errorf("layer copy has no tuple %d", w.id)
		}
		return nil
	default:
		id, err := t.Insert(tuple(w.row))
		if err == nil && int64(id) != w.id {
			err = fmt.Errorf("layer copy numbered an insert %d, the server %d", id, w.id)
		}
		return err
	}
}

// pass runs every layer once over a's current version. want is the
// checker's answer for the same state.
func (l *layers) pass(ctx context.Context, want *Expected) error {
	sp := l.sp
	ops0 := relstore.ReadBuildOps()
	var snap *relstore.Snapshot
	var cols *relstore.Columnar
	sp.time(ctx, "relstore.snapshot_patch_ms", func() {
		snap = l.a.Snapshot()
		cols = snap.Columnar()
	})
	sp.time(ctx, "relstore.pli_ms", func() {
		for _, p := range l.lhs {
			cols.Col(p).PLI()
		}
	})
	ops := relstore.ReadBuildOps().Sub(ops0)
	sp.count("relstore.interned_cells", float64(ops.InternedCells))
	sp.count("relstore.patched_cells", float64(ops.PatchedCells))
	sp.count("relstore.pli_builds", float64(ops.PLIBuilds))
	sp.count("relstore.pli_patches", float64(ops.PLIPatches))
	sp.count("relstore.patched_snapshots", float64(ops.PatchedSnapshots))
	sp.count("relstore.batch_snapshots", float64(ops.BatchSnapshots))

	var err error
	sqlMS := sp.time(ctx, "detect.sql_ms", func() { _, err = l.sql.DetectSnapshot(ctx, snap, l.cfds) })
	if err != nil {
		return err
	}
	probes0 := l.sql.Engine.OpStats()
	var plan, exec, rows float64
	for _, q := range l.stmts {
		plan += timeMS(func() { _, err = l.sql.Engine.QueryContext(ctx, "EXPLAIN "+q) })
		if err != nil {
			return fmt.Errorf("EXPLAIN: %w", err)
		}
		var res *sqleng.Result
		exec += timeMS(func() { res, err = l.sql.Engine.QueryContext(ctx, q) })
		if err != nil {
			return err
		}
		rows += float64(len(res.Rows))
	}
	probes := l.sql.Engine.OpStats()
	sp.count("sqleng.plan_ms", plan)
	sp.count("sqleng.exec_ms", exec)
	sp.count("sqleng.rows_out", rows)
	sp.count("sqleng.probes", float64(probes.PLIProbes+probes.HashProbes+probes.CollapsedProbes-
		probes0.PLIProbes-probes0.HashProbes-probes0.CollapsedProbes))
	sp.count("detect.sql_self_ms", sqlMS-exec)

	var fr *detect.FactorReport
	sp.time(ctx, "detect.factorised_ms", func() { fr, err = detect.DetectFactorised(ctx, snap, l.cfds) })
	if err != nil {
		return err
	}
	sp.time(ctx, "detect.explode_ms", func() { fr.Explode() })
	var rep *detect.Report
	sp.time(ctx, "detect.columnar_ms", func() { rep, err = detect.ColumnarDetector{}.DetectSnapshot(ctx, snap, l.cfds) })
	if err != nil {
		return err
	}
	if len(rep.Vio) != want.Dirty() || len(rep.Violations) != want.Violations {
		return fmt.Errorf("layer copy has %d dirty tuples and %d violations, checker %d and %d",
			len(rep.Vio), len(rep.Violations), want.Dirty(), want.Violations)
	}
	sp.count("detect.dirty_tuples", float64(len(rep.Vio)))
	sp.count("detect.violations", float64(len(rep.Violations)))
	sp.count("detect.dirty_groups", float64(len(rep.Groups)))
	sp.count("detect.dirty_ratio", float64(len(rep.Vio))/float64(rep.TupleCount))

	// The stream stops where the workload's stream request does.
	limit := 0
	if l.wl.monitored {
		limit = 100
	}
	start := time.Now()
	n := 0
	sp.time(ctx, "detect.stream_ms", func() {
		for _, err = range (detect.ParallelDetector{}).DetectStreamSnapshot(ctx, snap, l.cfds) {
			if n == 0 {
				sp.count("detect.stream_first_ms", float64(time.Since(start))/float64(time.Millisecond))
			}
			if n++; err != nil || n == limit {
				break
			}
		}
	})
	if err != nil {
		return err
	}
	sp.time(ctx, "detect.native_ms", func() { _, err = detect.NativeDetector{}.DetectSnapshot(ctx, snap, l.cfds) })
	if err != nil {
		return err
	}
	sp.time(ctx, "detect.tracker_report_ms", func() { l.mon.Report() })

	sp.time(ctx, "audit.audit_ms", func() { _, err = audit.Audit(snap, l.cfds, rep) })
	if err != nil {
		return err
	}
	var ex *explore.Explorer
	sp.time(ctx, "explore.new_ms", func() { ex, err = explore.New(snap, l.cfds, rep) })
	if err != nil {
		return err
	}
	sp.time(ctx, "explore.map_ms", func() { ex.QualityMap() })

	var res *repair.Result
	sp.time(ctx, "repair.repair_ms", func() { res, err = repair.NewRepairer().Repair(ctx, l.a, l.cfds) })
	if err != nil {
		return err
	}
	sp.count("repair.passes", float64(res.Passes))
	sp.count("repair.modifications", float64(len(res.Modifications)))

	sp.time(ctx, "discovery.incremental_ms", func() { _, err = l.sess.Discover(ctx, discovery.Options{}) })
	if err != nil {
		return err
	}
	st := l.sess.LastStats()
	reused := st.VAChecksReused + st.ConstVerdictsReused + st.CoversReused
	computed := st.VAChecksComputed + st.ConstVerdictsComputed + st.CoversComputed
	sp.count("discovery.va_checks_computed", float64(st.VAChecksComputed))
	sp.count("discovery.reuse_ratio", float64(reused)/float64(max(reused+computed, 1)))

	sp.time(ctx, "consistency.check_ms", func() { _, err = l.checkCFDs() })
	return err
}

func timeMS(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// runtimeWindow reads runtime metrics at both ends of the traced window.
// The CPU classes are estimates the runtime updates at each collection,
// so only a window spanning many collections gives a usable share.
type runtimeWindow struct {
	at [2][]metrics.Sample
}

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return s
}

func (rw *runtimeWindow) gcShare() float64 {
	gc := rw.at[1][0].Value.Float64() - rw.at[0][0].Value.Float64()
	cpu := rw.at[1][1].Value.Float64() - rw.at[0][1].Value.Float64()
	return gc / max(cpu, 1e-9)
}

// schedP50us is the median goroutine scheduling latency over the window
// in microseconds, read as the lower edge of the bucket holding it.
func (rw *runtimeWindow) schedP50us() float64 {
	h0, h1 := rw.at[0][2].Value.Float64Histogram(), rw.at[1][2].Value.Float64Histogram()
	var total uint64
	for i := range h1.Counts {
		total += h1.Counts[i] - h0.Counts[i]
	}
	var seen uint64
	for i := range h1.Counts {
		if seen += h1.Counts[i] - h0.Counts[i]; 2*seen >= total && total > 0 {
			return h1.Buckets[i] * 1e6
		}
	}
	return 0
}

// byteCounter discards the execution trace, counting its bytes.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

func runTraced(ctx context.Context, wl *workload, seed uint64, d time.Duration) (*result, error) {
	ds, csv, err := prepare(wl, seed)
	if err != nil {
		return nil, err
	}
	b := newBench(wl, ds, seed)
	if _, err := b.setup(ctx, csv); err != nil {
		if b.in != nil {
			b.in.stop()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.in.stop()
	sp := spans{}
	l, err := newLayers(ctx, wl, csv, sp)
	if err != nil {
		return nil, fmt.Errorf("layer set-up: %w", err)
	}
	// Replay warm-up cycle 0 on the copies, unrecorded.
	if err := l.replay(ctx, b.batch, b.singles); err != nil {
		return nil, err
	}
	l.sp = spans{}
	if err := l.pass(ctx, b.chk.Expect(false)); err != nil {
		return nil, err
	}
	l.sp = sp

	plain, traced, repeat := newRecorder(), newRecorder(), newRecorder()
	var rw runtimeWindow
	rw.at[0] = readRuntime()
	var traceBytes byteCounter
	// At least four cycles: two untraced, then two traced.
	werr := b.window(ctx, d, 4, func(c int) error {
		on := (c-1)/2%2 == 1
		b.rc = plain
		if on {
			b.rc = traced
			if err := rtrace.Start(&traceBytes); err != nil {
				return err
			}
		}
		err := b.cycle(ctx, c)
		if on && err == nil {
			// Repeats on an unchanged version are report-cache hits: their
			// round trip is routing, encoding and loopback.
			b.rc = repeat
			b.repeatReads(ctx)
		}
		if on {
			rtrace.Stop()
		}
		if err != nil {
			return err
		}
		return l.replayAndPass(ctx, b)
	})
	rw.at[1] = readRuntime()
	if werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: window stopped:", werr)
	}
	tried := plain.tried + traced.tried + repeat.tried
	failed := plain.failed + traced.failed + repeat.failed
	res := &result{correct: werr == nil && failed == 0, tried: tried, failed: failed}
	for _, n := range sortedKeys(sp) {
		unit := "count"
		switch {
		case strings.HasSuffix(n, "_ms"):
			unit = "ms"
		case strings.HasSuffix(n, "ratio"):
			unit = "ratio"
		}
		res.add(n, sp[n].quantile(0.5), unit, len(sp[n]), inPerLayer[n])
	}
	patched, batch := sp["relstore.patched_snapshots"].sum(), sp["relstore.batch_snapshots"].sum()
	res.add("relstore.patch_ratio", patched/max(patched+batch, 1), "ratio", len(sp["relstore.patched_snapshots"]), true)
	both := func(op string) sample { return append(append(sample(nil), plain.lat[op]...), traced.lat[op]...) }
	for _, op := range []string{"detect", "detect_columnar", "discover"} {
		if s := repeat.lat[op]; len(s) > 0 {
			res.add("server.encode_ms."+op, s.quantile(0.5), "ms", len(s), op == "detect")
		}
	}
	// Where the server recomputes, encoding is the round trip less the
	// layer spans it runs.
	self := func(op string, parts ...string) {
		s := both(op)
		if len(s) == 0 {
			return
		}
		v := s.quantile(0.5)
		for _, p := range parts {
			v -= sp[p].quantile(0.5)
		}
		res.add("server.encode_ms."+op, v, "ms", len(s), op == "stream")
	}
	if wl.monitored {
		// Writes precede the stream directly, so its request also pays the
		// snapshot patch.
		self("stream", "detect.stream_ms", "relstore.snapshot_patch_ms")
	} else {
		self("stream", "detect.stream_ms")
	}
	self("audit", "audit.audit_ms")
	self("explore", "explore.new_ms", "explore.map_ms")
	for _, op := range sortedKeys(plain.kb) {
		s := append(append(sample(nil), plain.kb[op]...), traced.kb[op]...)
		res.add("server.response_kb."+op, s.quantile(0.5), "KiB", len(s), op == "detect" || op == "stream")
	}
	res.add("runtime.gc_cpu_share", rw.gcShare(), "ratio", 1, true)
	res.add("runtime.sched_wait_p50_us", rw.schedP50us(), "us", 1, true)
	res.add("runtime.heap_peak_mb", float64(b.heapPeak)/(1<<20), "MiB", len(plain.cycles)+len(traced.cycles), true)
	ratio := func(u, t sample) float64 { return t.quantile(0.5) / u.quantile(0.5) }
	res.add("trace.overhead_ratio", ratio(plain.cycles, traced.cycles), "ratio", len(traced.cycles), true)
	for _, op := range sortedKeys(plain.lat) {
		if len(traced.lat[op]) > 0 {
			res.add("trace.overhead_ratio."+op, ratio(plain.lat[op], traced.lat[op]), "ratio", len(traced.lat[op]),
				op == "detect" || op == "stream" || op == "write")
		}
	}
	fmt.Printf("execution trace: %d bytes over %d traced cycles\n", traceBytes, len(traced.cycles))
	return res, nil
}

// replayAndPass mirrors the cycle just run on the layer copies.
func (l *layers) replayAndPass(ctx context.Context, b *bench) error {
	if err := l.replay(ctx, b.batch, b.singles); err != nil {
		return err
	}
	return l.pass(ctx, b.want)
}
