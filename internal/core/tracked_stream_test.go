package core

import (
	"context"
	"fmt"
	"testing"

	"semandaq/internal/detect"
	"semandaq/internal/monitor"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// violationCounts is a violation multiset.
func violationCounts(vs []detect.Violation) map[string]int {
	out := make(map[string]int, len(vs))
	for _, v := range vs {
		out[fmt.Sprintf("%+v", v)]++
	}
	return out
}

// TestMonitoredStreamReplaysTracker: after an update batch on a monitored
// table, a stream replays the tracker's report — the same violations,
// stamped with the table version — without any columnar work, and shares
// that report with blocking detects of every engine. A WithCFDs-scoped
// stream still scans. Not parallel: the relstore build counters are
// process-global.
func TestMonitoredStreamReplaysTracker(t *testing.T) {
	ctx := context.Background()
	s, ids := datasetSession(t)
	// Warm the columnar view, so a scanning stream would have to patch it.
	if _, err := s.Detect(ctx, "customer", WithEngine(ColumnarDetection)); err != nil {
		t.Fatal(err)
	}
	m, err := s.Monitor(ctx, "customer")
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := s.Table("customer")
	live := tab.IDs()
	if _, err := s.ApplyUpdates("customer", []monitor.Update{
		{Op: monitor.OpSet, ID: live[3], Attr: "STR", Value: types.NewString("Nowhere Lane")},
		{Op: monitor.OpSet, ID: live[7], Attr: "CNT", Value: types.NewString("UK")},
		{Op: monitor.OpDelete, ID: live[11]},
		{Op: monitor.OpInsert, Row: rowOf("Zed", "UK", "Edinburgh", "EH2 4SD", "Elm Row", 44, 131)},
	}); err != nil {
		t.Fatal(err)
	}

	before := relstore.ReadBuildOps()
	seq, version, err := s.DetectStreamVersion(ctx, "customer")
	if err != nil {
		t.Fatal(err)
	}
	var got []detect.Violation
	for v, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	ops := relstore.ReadBuildOps().Sub(before)
	if ops.InternedCells != 0 || ops.BatchColumns != 0 || ops.PatchedColumns != 0 {
		t.Errorf("served stream did columnar work: %+v", ops)
	}
	if version != tab.Version() {
		t.Errorf("stream stamped version %d, table is at %d", version, tab.Version())
	}
	want := m.Report()
	if len(want.Violations) == 0 {
		t.Fatal("workload has no violations; the replay is untested")
	}
	if gc, wc := violationCounts(got), violationCounts(want.Violations); fmt.Sprint(gc) != fmt.Sprint(wc) {
		t.Errorf("streamed %d violations, tracker reports %d; the sets differ", len(got), len(want.Violations))
	}

	n := 0
	for _, err := range s.DetectStream(ctx, "customer", WithLimit(5)) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != min(5, len(want.Violations)) {
		t.Errorf("limited stream yielded %d violations", n)
	}

	// The stream's tracker-served report is cached for every engine.
	sqlRep, err := s.Detect(ctx, "customer", WithEngine(SQLDetection))
	if err != nil {
		t.Fatal(err)
	}
	nativeRep, err := s.Detect(ctx, "customer", WithEngine(NativeDetection))
	if err != nil {
		t.Fatal(err)
	}
	if sqlRep != nativeRep {
		t.Error("blocking detects of two engines did not share the tracker-served report")
	}

	before = relstore.ReadBuildOps()
	scoped := 0
	for _, err := range s.DetectStream(ctx, "customer", WithCFDs(ids[0])) {
		if err != nil {
			t.Fatal(err)
		}
		scoped++
	}
	ops = relstore.ReadBuildOps().Sub(before)
	if ops.PatchedColumns+ops.SharedColumns+ops.RebuiltColumns+ops.BatchColumns == 0 {
		t.Errorf("scoped stream of %d violations did no columnar work: %+v", scoped, ops)
	}
}
