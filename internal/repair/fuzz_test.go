package repair

import (
	"context"
	"fmt"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// caseValues is the cell domain of decoded repair cases. It packs the
// corners the repairer must get exactly right: INT 1 and FLOAT 1.0 share a
// Key() but not a representation, NULL, and strings close enough in edit
// distance that the cost model has real choices to make.
var caseValues = []types.Value{
	types.NewString("a"),
	types.NewString("b"),
	types.NewString("ab"),
	types.NewString("abc"),
	types.NewInt(1),
	types.NewFloat(1),
	types.NewInt(2),
	types.Null,
}

var caseAttrs = []string{"A", "B", "C", "D"}

// decodeRepairCase turns an arbitrary byte string into a small table and a
// CFD set over it; missing bytes read as zero. Layout: a row count (2–13),
// one byte per cell, a CFD count (1–3), then per CFD an LHS mask, an RHS
// selector and a tableau of one or two patterns whose cells are wildcards
// or constants from caseValues.
func decodeRepairCase(data []byte) (*relstore.Table, []*cfd.CFD) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	tab := relstore.NewTable(schema.New("r", caseAttrs...))
	rows := 2 + next()%24
	for i := 0; i < rows; i++ {
		row := make(relstore.Tuple, len(caseAttrs))
		for j := range row {
			row[j] = caseValues[next()%len(caseValues)]
		}
		tab.MustInsert(row)
	}
	pattern := func() cfd.PatternValue {
		b := next()
		if b%3 != 0 {
			return cfd.Wild
		}
		return cfd.Constant(caseValues[(b/3)%len(caseValues)])
	}
	var cfds []*cfd.CFD
	for k, n := 0, 1+next()%3; k < n; k++ {
		rhs := next() % len(caseAttrs)
		mask := next()
		var lhs []string
		for j, a := range caseAttrs {
			if j != rhs && mask&(1<<j) != 0 {
				lhs = append(lhs, a)
			}
		}
		if len(lhs) == 0 {
			lhs = []string{caseAttrs[(rhs+1)%len(caseAttrs)]}
		}
		c := &cfd.CFD{ID: fmt.Sprintf("c%d", k), Table: "r", LHS: lhs, RHS: []string{caseAttrs[rhs]}}
		for p, np := 0, 1+next()%2; p < np; p++ {
			pt := cfd.PatternTuple{LHS: make([]cfd.PatternValue, len(lhs)), RHS: []cfd.PatternValue{pattern()}}
			for i := range pt.LHS {
				pt.LHS[i] = pattern()
			}
			c.Tableau = append(c.Tableau, pt)
		}
		cfds = append(cfds, c)
	}
	return tab, cfds
}

// FuzzRepair runs the batch repairer on decoded cases and checks its
// contract: the input table is untouched, Repaired is exactly the input
// with Modifications applied in order, and Converged/Remaining agree with
// an independent detector run over a cold rebuild of the repaired table.
func FuzzRepair(f *testing.F) {
	f.Add([]byte{})
	// two rows, one FD A -> B that they disagree on
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1})
	// INT 1 / FLOAT 1.0 mixed into an LHS column, two interacting FDs
	f.Add([]byte{6, 4, 0, 0, 0, 5, 0, 1, 0, 4, 1, 1, 1, 5, 1, 2, 1, 0, 2, 2, 2,
		4, 2, 2, 3, 1, 0, 3, 3, 1, 2, 1, 1, 1, 1, 4, 1})
	// constant patterns alongside a variable one
	f.Add([]byte{4, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4, 7, 7, 7, 7,
		2, 1, 1, 0, 0, 0, 2, 2, 1, 3, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRepairContract(t, data)
	})
}

func checkRepairContract(t *testing.T, data []byte) {
	t.Helper()
	ctx := context.Background()
	tab, cfds := decodeRepairCase(data)
	ver := tab.Version()
	ids, before := tab.Rows()

	res, err := NewRepairer().Repair(ctx, tab, cfds)
	if err != nil {
		t.Fatal(err)
	}

	if tab.Version() != ver {
		t.Fatalf("input version moved %d -> %d", ver, tab.Version())
	}
	gotIDs, after := tab.Rows()
	if !sameRows(ids, before, gotIDs, after) {
		t.Fatal("input table modified by Repair")
	}

	replay := tab.Clone()
	applied, skipped, err := Apply(replay, res.Modifications)
	if err != nil || applied != len(res.Modifications) || len(skipped) != 0 {
		t.Fatalf("replaying modifications: applied %d of %d, skipped %d, err %v",
			applied, len(res.Modifications), len(skipped), err)
	}
	wantIDs, want := replay.Rows()
	repIDs, rep := res.Repaired.Rows()
	if !sameRows(wantIDs, want, repIDs, rep) {
		t.Fatal("Repaired differs from the input with Modifications applied")
	}

	report, err := detect.NativeDetector{}.DetectSnapshot(ctx, res.Repaired.RebuildSnapshot(), cfds)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(report.Violations); res.Converged != (n == 0) || res.Remaining != n {
		t.Fatalf("Converged=%v Remaining=%d, but the repaired table has %d violations",
			res.Converged, res.Remaining, n)
	}
}

// sameRows reports whether two id/row listings are identical, comparing
// cells by exact representation (kind and value), not by Equal.
func sameRows(aIDs []relstore.TupleID, a []relstore.Tuple, bIDs []relstore.TupleID, b []relstore.Tuple) bool {
	if len(aIDs) != len(bIDs) {
		return false
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] || renderTuple(a[i]) != renderTuple(b[i]) {
			return false
		}
	}
	return true
}
