package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"
)

// workload is one traffic mix. Every workload is a closed loop with one
// client: it sends its next request only after the previous one completed.
type workload struct {
	name      string
	tuples    int
	noise     float64
	cfds      string
	monitored bool
	// The dirty share the generated data must have.
	minDirty, maxDirty float64
}

var workloads = []*workload{
	{name: "steward-sparse", tuples: 100_000, noise: 0.001, cfds: cfdsSparse, minDirty: 0.001, maxDirty: 0.01},
	{name: "steward-dirty", tuples: 20_000, noise: 0.05, cfds: cfdsFull, minDirty: 1, maxDirty: 1},
	{name: "ingest-monitored", tuples: 100_000, noise: 0.001, cfds: cfdsSparse, monitored: true, minDirty: 0.001, maxDirty: 0.01},
}

const table = "customer"

// Sizes of the monitored mix: each update batch corrupts batchSets cells
// and restores them, deletes the previous batch's inserts and inserts
// batchInserts clean rows.
const (
	batchSets    = 25
	batchInserts = 25
)

// write is one mutation the benchmark sent, replayed on the checker and,
// in a traced run, on the layer copies.
type write struct {
	op   byte // 's' set, 'i' insert, 'd' delete
	id   int64
	attr int
	val  string
	row  [arity]string
}

// bench drives one server instance through a workload.
type bench struct {
	wl      *workload
	ds      *Dataset
	seed    uint64
	in      *instance
	chk     *Checker
	rc      *recorder
	firstID int64
	// base is the answer after loading; every cycle that restores its
	// edits must see it again.
	base *Expected
	// saved holds the value the pending corruption overwrote.
	saved write
	// insertZips are clean zips kept for inserted rows; no cell edit
	// touches a row in them or moves one into them, so an insert or its
	// later delete never changes a violation.
	insertZips []string
	reserved   map[string]bool
	zipCity    map[string]int
	pendingB   []int64
	pendingS   int64
	// batch and singles collect the cycle's mutations; want is the
	// checker's answer after them.
	batch, singles []write
	want           *Expected
	// restored counts the restoring cycles that saw the loaded state.
	restored int
	// heapPeak is the largest heap in use seen when a cycle's requests
	// end, before its checks run.
	heapPeak uint64
	// checks holds the cycle's read checks, run once its requests are done
	// so that checking allocates nothing while a request is timed.
	checks []func()
}

// later books a read when the cycle's requests are done.
func (b *bench) later(op string, r reply, check func() error) {
	b.checks = append(b.checks, func() { b.rc.finish(op, r, check) })
}

// settle runs the pending read checks.
func (b *bench) settle() {
	for _, f := range b.checks {
		f()
	}
	b.checks = b.checks[:0]
}

func newBench(wl *workload, ds *Dataset, seed uint64) *bench {
	b := &bench{wl: wl, ds: ds, seed: seed, zipCity: map[string]int{}, pendingS: -1}
	for ci, zs := range ds.zips {
		for _, z := range zs {
			b.zipCity[z] = ci
		}
	}
	return b
}

func mustJSON(v any) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built maps and slices reach here
	}
	return out
}

// setup starts a server, loads the data, registers the CFDs, starts the
// monitor when the workload has one and runs warm-up cycle 0, which pays
// every cold build. It returns the summed request time.
func (b *bench) setup(ctx context.Context, csv []byte) (time.Duration, error) {
	in, err := startServer()
	if err != nil {
		return 0, err
	}
	b.in = in
	b.rc = newRecorder()
	r := in.call(ctx, "POST", "/api/tables/"+table, csv, false)
	if !b.rc.finish("load", r, func() error {
		var out struct{ Tuples int }
		if err := json.Unmarshal(r.body, &out); err != nil {
			return err
		}
		if out.Tuples != len(b.ds.Rows) {
			return fmt.Errorf("loaded %d tuples, want %d", out.Tuples, len(b.ds.Rows))
		}
		return nil
	}) {
		return 0, fmt.Errorf("load failed")
	}
	// The first page names the id the server gave the first CSV row.
	r = in.call(ctx, "GET", "/api/tables/"+table+"?limit=1", nil, false)
	var page struct {
		Version int64
		Rows    []struct{ ID int64 }
	}
	if r.err != nil || json.Unmarshal(r.body, &page) != nil || len(page.Rows) != 1 {
		return 0, fmt.Errorf("reading the first page failed: %v %.200s", r.err, r.body)
	}
	b.firstID = page.Rows[0].ID
	b.chk = NewChecker(b.wl.cfds, b.ds.Rows, b.firstID)
	b.chk.Version = page.Version
	b.base = b.chk.Expect(false)
	b.reserved = map[string]bool{}
	for i, z := range b.chk.cleanZips(b.ds) {
		if i%2 == 0 {
			b.insertZips = append(b.insertZips, z)
			b.reserved[z] = true
		}
	}
	if b.wl.monitored && len(b.insertZips) == 0 {
		return 0, fmt.Errorf("no clean zip to insert rows into")
	}
	spent := r.dur
	r = in.call(ctx, "POST", "/api/cfds/"+table, mustJSON(map[string]string{"text": b.wl.cfds}), false)
	if !b.rc.finish("cfds", r, nil) {
		return 0, fmt.Errorf("registering CFDs failed")
	}
	if b.wl.monitored {
		r = in.call(ctx, "POST", "/api/monitor/"+table, nil, false)
		if !b.rc.finish("monitor", r, func() error {
			var out struct {
				Dirty   int
				Version int64
			}
			if err := json.Unmarshal(r.body, &out); err != nil {
				return err
			}
			return b.expectEq("monitor dirty", out.Dirty, b.base.Dirty(), out.Version)
		}) {
			return 0, fmt.Errorf("starting the monitor failed")
		}
	}
	if err := b.cycle(ctx, 0); err != nil {
		return 0, err
	}
	spent += b.rc.busy
	if b.rc.failed > 0 {
		return 0, fmt.Errorf("%d set-up operations failed", b.rc.failed)
	}
	return spent, nil
}

func (b *bench) expectEq(what string, got, want int, version int64) error {
	if got != want {
		return fmt.Errorf("%s = %d, checker says %d", what, got, want)
	}
	if version != b.chk.Version {
		return fmt.Errorf("%s stamped version %d, last write returned %d", what, version, b.chk.Version)
	}
	return nil
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// cycle runs one round of the workload's mix. It starts from a collected
// heap, so the garbage the previous cycle's checks left is not billed to
// this cycle's requests.
func (b *bench) cycle(ctx context.Context, c int) error {
	b.batch, b.singles = b.batch[:0], b.singles[:0]
	runtime.GC()
	var err error
	if b.wl.monitored {
		err = b.ingestCycle(ctx, c)
	} else {
		err = b.stewardCycle(ctx, c)
	}
	metrics.Read(heapSample)
	b.heapPeak = max(b.heapPeak, heapSample[0].Value.Uint64())
	b.settle()
	b.rc.endCycle()
	return err
}

// expect computes the checker's answer after the cycle's writes and then
// collects the checker's garbage before the reads are timed.
func (b *bench) expect() *Expected {
	b.want = b.chk.Expect(true)
	runtime.GC()
	return b.want
}

// edit returns cycle c's single-cell write: even cycles corrupt a cell of
// an original row with a value from the attribute's own domain, odd
// cycles restore it, so the dirty share stays put.
func (b *bench) edit(c int) write {
	if c%2 == 1 {
		return b.saved
	}
	rng := rand.New(rand.NewPCG(b.seed, uint64(c)+1<<40))
	w, undo := b.corrupt(rng, c/2)
	b.saved = undo
	return w
}

// editAttrs are the CFD attributes the edits rotate through.
var editAttrs = [...]int{aCITY, aSTR, aCNT, aZIP}

// corrupt picks an original row outside the insert zips and a new value
// for one CFD attribute; it returns the write and the write that undoes it.
func (b *bench) corrupt(rng *rand.Rand, k int) (write, write) {
	var i int
	var id int64
	var row [arity]string
	for {
		i = rng.IntN(len(b.ds.Rows))
		id = b.firstID + int64(i)
		row, _ = b.chk.Row(id)
		if !b.reserved[row[aZIP]] {
			break
		}
	}
	// Draw until the value differs from the cell's, so every edit is a
	// real change that bumps the table version.
	attr := editAttrs[k%len(editAttrs)]
	w := write{op: 's', id: id, attr: attr, val: row[attr]}
	for w.val == row[attr] {
		switch attr {
		case aCITY:
			w.val = cities[rng.IntN(len(cities))].name
		case aSTR:
			zs := b.ds.zips[rng.IntN(len(cities))]
			w.val = b.ds.street[zs[rng.IntN(len(zs))]]
		case aCNT:
			w.val = flip(row[aCNT])
		default:
			zs := b.ds.zips[b.ds.cityOf[i]]
			if z := zs[rng.IntN(len(zs))]; !b.reserved[z] {
				w.val = z
			}
		}
	}
	return w, write{op: 's', id: id, attr: attr, val: row[attr]}
}

// patch sends one single-cell write.
func (b *bench) patch(ctx context.Context, w write) error {
	body := mustJSON(map[string]any{"attr": attrNames[w.attr], "value": jsonCell(w.attr, w.val)})
	r := b.in.call(ctx, "PATCH", "/api/tables/"+table+"/rows/"+strconv.FormatInt(w.id, 10), body, false)
	b.singles = append(b.singles, w)
	if !b.rc.finish("write", r, func() error { return b.applyWrite(r.body, w) }) {
		return fmt.Errorf("write failed")
	}
	return nil
}

// applyWrite books a write's returned version on the checker and replays
// the write there.
func (b *bench) applyWrite(body []byte, w write) error {
	var out struct {
		ID      int64
		Version int64
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	if out.Version <= b.chk.Version {
		return fmt.Errorf("write returned version %d, not after %d", out.Version, b.chk.Version)
	}
	b.chk.Version = out.Version
	switch w.op {
	case 's':
		return b.chk.Set(w.id, w.attr, w.val)
	case 'd':
		return b.chk.Delete(w.id)
	default:
		return b.chk.Insert(out.ID, w.row)
	}
}

func (b *bench) stewardCycle(ctx context.Context, c int) error {
	if err := b.patch(ctx, b.edit(c)); err != nil {
		return err
	}
	want := b.expect()
	b.detect(ctx, "detect", "", want)
	b.detect(ctx, "detect_columnar", "?engine=columnar", want)
	b.stream(ctx, "stream", "", want)
	b.audit(ctx, want)
	b.explore(ctx, want)
	b.repair(ctx)
	b.discover(ctx)
	return b.stationary(c, want)
}

// repeatReads re-sends the cycle's cacheable reads on the unchanged
// version, where the server answers from its report caches.
func (b *bench) repeatReads(ctx context.Context) {
	b.detect(ctx, "detect", "", b.want)
	if !b.wl.monitored {
		b.detect(ctx, "detect_columnar", "?engine=columnar", b.want)
		b.discover(ctx)
	}
	b.settle()
}

// stationary fails a run whose mix drifts: after every restoring cycle
// the checker must see exactly the state the data was loaded in.
func (b *bench) stationary(c int, want *Expected) error {
	if c%2 == 0 {
		return nil
	}
	if want.Dirty() != b.base.Dirty() || want.Violations != b.base.Violations || want.Groups != b.base.Groups {
		return fmt.Errorf("cycle %d drifted: %d dirty, %d violations, %d groups; loaded with %d, %d, %d",
			c, want.Dirty(), want.Violations, want.Groups, b.base.Dirty(), b.base.Violations, b.base.Groups)
	}
	b.restored++
	return nil
}

// cleanRow draws a fresh row for a zip no rule flags, so the insert
// leaves every violation as it was.
func (b *bench) cleanRow(rng *rand.Rand, name string) [arity]string {
	zip := b.insertZips[rng.IntN(len(b.insertZips))]
	c := cities[b.zipCity[zip]]
	return [arity]string{name, c.cnt, c.name, zip, b.ds.street[zip], strconv.Itoa(c.cc), strconv.Itoa(c.ac)}
}

func (b *bench) ingestCycle(ctx context.Context, c int) error {
	rng := rand.New(rand.NewPCG(b.seed, uint64(c)+2<<40))
	// One batch: corrupt batchSets cells, delete the previous batch's
	// inserts, insert fresh clean rows, then restore the cells in reverse
	// order. Inserted names come from a pool that alternates per cycle.
	var sets, restores []write
	for k := 0; k < batchSets; k++ {
		w, undo := b.corrupt(rng, k)
		sets = append(sets, w)
		restores = append(restores, undo)
	}
	var ups []map[string]any
	add := func(w write) {
		b.batch = append(b.batch, w)
		switch w.op {
		case 's':
			ups = append(ups, map[string]any{"op": "set", "id": w.id, "attr": attrNames[w.attr], "value": jsonCell(w.attr, w.val)})
		case 'd':
			ups = append(ups, map[string]any{"op": "delete", "id": w.id})
		default:
			ups = append(ups, map[string]any{"op": "insert", "row": jsonRow(w.row)})
		}
	}
	for _, w := range sets {
		add(w)
	}
	for _, id := range b.pendingB {
		add(write{op: 'd', id: id})
	}
	for k := 0; k < batchInserts; k++ {
		add(write{op: 'i', row: b.cleanRow(rng, fmt.Sprintf("batch%d_%02d", c%2, k))})
	}
	for k := len(restores) - 1; k >= 0; k-- {
		add(restores[k])
	}
	r := b.in.call(ctx, "POST", "/api/monitor/"+table+"/updates", mustJSON(map[string]any{"updates": ups}), false)
	if !b.rc.finish("batch", r, func() error { return b.applyBatch(r.body) }) {
		return fmt.Errorf("batch failed")
	}
	// Single-row writes: the alternating cell edit, one insert and the
	// delete of the previous cycle's insert.
	if err := b.patch(ctx, b.edit(c)); err != nil {
		return err
	}
	w := write{op: 'i', row: b.cleanRow(rng, fmt.Sprintf("single%d", c%2))}
	r = b.in.call(ctx, "POST", "/api/tables/"+table+"/rows", mustJSON(map[string]any{"row": jsonRow(w.row)}), false)
	var ins struct{ ID int64 }
	if !b.rc.finish("write", r, func() error {
		if err := json.Unmarshal(r.body, &ins); err != nil {
			return err
		}
		return b.applyWrite(r.body, w)
	}) {
		return fmt.Errorf("insert failed")
	}
	w.id = ins.ID
	b.singles = append(b.singles, w)
	if b.pendingS >= 0 {
		d := write{op: 'd', id: b.pendingS}
		r = b.in.call(ctx, "DELETE", "/api/tables/"+table+"/rows/"+strconv.FormatInt(d.id, 10), nil, false)
		if !b.rc.finish("write", r, func() error { return b.applyWrite(r.body, d) }) {
			return fmt.Errorf("delete failed")
		}
		b.singles = append(b.singles, d)
	}
	b.pendingS = ins.ID
	want := b.expect()
	b.detect(ctx, "detect", "", want)
	b.stream(ctx, "stream", "&limit=100", want)
	b.page(ctx, c)
	return b.stationary(c, want)
}

// applyBatch replays the batch on the checker and checks the dirty count
// the monitor returned.
func (b *bench) applyBatch(body []byte) error {
	var out struct {
		Inserted []int64
		Dirty    int
		Version  int64
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	if len(out.Inserted) != batchInserts {
		return fmt.Errorf("batch inserted %d rows, want %d", len(out.Inserted), batchInserts)
	}
	if out.Version <= b.chk.Version {
		return fmt.Errorf("batch returned version %d, not after %d", out.Version, b.chk.Version)
	}
	b.chk.Version = out.Version
	k := 0
	for i := range b.batch {
		w := &b.batch[i]
		var err error
		switch w.op {
		case 's':
			err = b.chk.Set(w.id, w.attr, w.val)
		case 'd':
			err = b.chk.Delete(w.id)
		default:
			w.id = out.Inserted[k]
			k++
			err = b.chk.Insert(w.id, w.row)
		}
		if err != nil {
			return err
		}
	}
	b.pendingB = out.Inserted
	// The batch restores every cell it corrupts and its inserts and deletes
	// touch only the insert zips, so it leaves the dirty count where the
	// last cycle did.
	before := b.base
	if b.want != nil {
		before = b.want
	}
	return b.expectEq("batch dirty", out.Dirty, before.Dirty(), out.Version)
}

type detectJSON struct {
	Tuples     int
	Version    int64
	Violations int
	Dirty      int
	MaxVio     int
	PerCFD     map[string]Stat
	Vio        map[string]int
}

func (b *bench) detect(ctx context.Context, op, query string, want *Expected) {
	r := b.in.call(ctx, "POST", "/api/detect/"+table+query, nil, false)
	b.later(op, r, func() error { return b.checkDetect(r.body, want) })
}

func (b *bench) checkDetect(body []byte, want *Expected) error {
	var got detectJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Version != b.chk.Version {
		return fmt.Errorf("detect stamped version %d, last write returned %d", got.Version, b.chk.Version)
	}
	if got.Tuples != want.Tuples || got.Violations != want.Violations || got.Dirty != want.Dirty() || got.MaxVio != want.MaxVio {
		return fmt.Errorf("detect says %d tuples, %d violations, %d dirty, max vio %d; checker says %d, %d, %d, %d",
			got.Tuples, got.Violations, got.Dirty, got.MaxVio, want.Tuples, want.Violations, want.Dirty(), want.MaxVio)
	}
	if len(got.PerCFD) != len(want.PerCFD) {
		return fmt.Errorf("detect reports %d CFDs, checker %d", len(got.PerCFD), len(want.PerCFD))
	}
	for id, st := range want.PerCFD {
		if got.PerCFD[id] != st {
			return fmt.Errorf("detect says %s: %+v, checker %+v", id, got.PerCFD[id], st)
		}
	}
	if len(got.Vio) != len(want.Vio) {
		return fmt.Errorf("detect lists vio for %d tuples, checker %d", len(got.Vio), len(want.Vio))
	}
	for id, v := range want.Vio {
		if got.Vio[strconv.FormatInt(id, 10)] != v {
			return fmt.Errorf("detect says vio(%d) = %d, checker %d", id, got.Vio[strconv.FormatInt(id, 10)], v)
		}
	}
	return nil
}

// stream checks an NDJSON detection stream: every line is a violation the
// checker knows (all of them without a limit), no line is an error, the
// closing done line counts the lines and carries the last write's version.
func (b *bench) stream(ctx context.Context, op, query string, want *Expected) {
	r := b.in.call(ctx, "GET", "/api/detect/"+table+"?stream=1"+query, nil, true)
	b.later(op, r, func() error { return b.checkStream(r.lines, query == "", want) })
}

func (b *bench) checkStream(lines [][]byte, full bool, want *Expected) error {
	if len(lines) == 0 {
		return fmt.Errorf("empty stream")
	}
	left := make(map[vkey]int, len(want.Records))
	for k, n := range want.Records {
		left[k] = n
	}
	var line struct {
		Error      *string
		Done       bool
		Violations int
		Version    int64
		CFD        string
		Kind       string
		Tuple      int64
		Pattern    int
		Partners   int
	}
	body := lines[:len(lines)-1]
	for _, l := range body {
		line.Error = nil
		if err := json.Unmarshal(l, &line); err != nil {
			return err
		}
		if line.Error != nil {
			return fmt.Errorf("stream error line: %s", *line.Error)
		}
		k := vkey{cfd: line.CFD, single: line.Kind == "single-tuple", tuple: line.Tuple, extra: line.Partners}
		if k.single {
			k.extra = line.Pattern
		}
		if left[k] == 0 {
			return fmt.Errorf("streamed violation %s is not one the checker finds", bytes.TrimSpace(l))
		}
		left[k]--
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return err
	}
	if !line.Done {
		return fmt.Errorf("stream has no done line")
	}
	if line.Violations != len(body) {
		return fmt.Errorf("done line counts %d violations, stream had %d lines", line.Violations, len(body))
	}
	if line.Version != b.chk.Version {
		return fmt.Errorf("stream stamped version %d, last write returned %d", line.Version, b.chk.Version)
	}
	if full && len(body) != want.Violations {
		return fmt.Errorf("stream had %d violations, checker finds %d", len(body), want.Violations)
	}
	if !full && len(body) != min(100, want.Violations) {
		return fmt.Errorf("limited stream had %d violations, want %d", len(body), min(100, want.Violations))
	}
	return nil
}

func (b *bench) audit(ctx context.Context, want *Expected) {
	r := b.in.call(ctx, "GET", "/api/audit/"+table, nil, false)
	b.later("audit", r, func() error {
		var got struct {
			Tuples        int
			Version       int64
			ProbablyClean int
			Dirty         int
			Stats         struct{ TotalVio, MaxVio, Groups int }
		}
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		clean := want.Tuples - want.Dirty()
		if got.Tuples != want.Tuples || got.ProbablyClean != clean || got.Stats.TotalVio != want.TotalVio() ||
			got.Stats.MaxVio != want.MaxVio || got.Stats.Groups != want.Groups {
			return fmt.Errorf("audit says %d tuples, %d clean, total vio %d, max %d, %d groups; checker %d, %d, %d, %d, %d",
				got.Tuples, got.ProbablyClean, got.Stats.TotalVio, got.Stats.MaxVio, got.Stats.Groups,
				want.Tuples, clean, want.TotalVio(), want.MaxVio, want.Groups)
		}
		return b.expectEq("audit dirty", got.Dirty, want.AuditDirty, got.Version)
	})
}

func (b *bench) explore(ctx context.Context, want *Expected) {
	r := b.in.call(ctx, "GET", "/api/explore/"+table+"/map", nil, false)
	b.later("explore", r, func() error {
		var got struct {
			Map []struct {
				ID  int64
				Vio int
			}
		}
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		if len(got.Map) != want.Tuples {
			return fmt.Errorf("quality map has %d entries, table %d tuples", len(got.Map), want.Tuples)
		}
		for _, e := range got.Map {
			if e.Vio != want.Vio[e.ID] {
				return fmt.Errorf("quality map says vio(%d) = %d, checker %d", e.ID, e.Vio, want.Vio[e.ID])
			}
		}
		return nil
	})
}

// repair asks for a candidate repair, never applied; each proposed change
// must start from the cell's current value.
func (b *bench) repair(ctx context.Context) {
	r := b.in.call(ctx, "POST", "/api/repair/"+table, nil, false)
	b.later("repair", r, func() error {
		var got struct {
			Passes        int
			Modifications []struct {
				Tuple int64
				Attr  string
				Old   any
			}
		}
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		if got.Passes < 1 || len(got.Modifications) == 0 {
			return fmt.Errorf("repair ran %d passes with %d changes on dirty data", got.Passes, len(got.Modifications))
		}
		seen := map[string]bool{}
		for _, m := range got.Modifications {
			key := fmt.Sprint(m.Tuple, m.Attr)
			if seen[key] {
				continue // a later change to the same cell starts from the earlier one
			}
			seen[key] = true
			row, ok := b.chk.Row(m.Tuple)
			pos := attrPos(m.Attr)
			if !ok || pos < 0 || row[pos] != cellString(m.Old) {
				return fmt.Errorf("repair changes %d.%s from %v, which is not its value", m.Tuple, m.Attr, m.Old)
			}
		}
		return nil
	})
}

func attrPos(name string) int {
	for i, a := range attrNames {
		if a == name {
			return i
		}
	}
	return -1
}

func (b *bench) discover(ctx context.Context) {
	r := b.in.call(ctx, "POST", "/api/discover/"+table, []byte("{}"), false)
	b.later("discover", r, func() error {
		var got struct {
			Version    int64
			Tuples     int
			Candidates []json.RawMessage
		}
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		if len(got.Candidates) == 0 {
			return fmt.Errorf("discovery found no candidates")
		}
		return b.expectEq("discover tuples", got.Tuples, b.chk.Len(), got.Version)
	})
}

// page reads one table page and compares its rows with the checker's.
func (b *bench) page(ctx context.Context, c int) {
	off := (c * 100) % max(b.chk.Len()-100, 1)
	r := b.in.call(ctx, "GET", fmt.Sprintf("/api/tables/%s?limit=100&offset=%d", table, off), nil, false)
	b.later("page", r, func() error {
		var got struct {
			Tuples  int
			Version int64
			Rows    []struct {
				ID  int64
				Row []any
			}
		}
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		if len(got.Rows) != 100 {
			return fmt.Errorf("page has %d rows, want 100", len(got.Rows))
		}
		for _, pr := range got.Rows {
			row, ok := b.chk.Row(pr.ID)
			if !ok || len(pr.Row) != arity {
				return fmt.Errorf("page lists tuple %d, which the checker does not hold", pr.ID)
			}
			for i, v := range pr.Row {
				if cellString(v) != row[i] {
					return fmt.Errorf("page has %d.%s = %v, checker %q", pr.ID, attrNames[i], v, row[i])
				}
			}
		}
		return b.expectEq("page tuples", got.Tuples, b.chk.Len(), got.Version)
	})
}
