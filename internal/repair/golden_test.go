package repair

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite the repair goldens in testdata/")

// goldenCase is one pinned repair input: a table, its CFDs and the
// repairer settings.
type goldenCase struct {
	name  string
	build func(t *testing.T) (*relstore.Table, []*cfd.CFD, *Repairer)
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, n := range []int{400, 5000} {
		for _, noise := range []float64{0.02, 0.1, 0.3} {
			n, noise := n, noise
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("datagen-%d-noise%g", n, noise),
				build: func(*testing.T) (*relstore.Table, []*cfd.CFD, *Repairer) {
					ds := datagen.Generate(datagen.Config{Tuples: n, Seed: 29, NoiseRate: noise})
					return ds.Dirty, datagen.StandardCFDs(), NewRepairer()
				},
			})
		}
	}
	cases = append(cases,
		goldenCase{name: "tugging", build: func(t *testing.T) (*relstore.Table, []*cfd.CFD, *Repairer) {
			tab, cfds, _ := tuggingFixture(t)
			return tab, cfds, NewRepairer()
		}},
		goldenCase{name: "pathological", build: func(t *testing.T) (*relstore.Table, []*cfd.CFD, *Repairer) {
			tab, cfds := pathologicalFixture(t)
			r := NewRepairer()
			r.MaxPasses = 50
			return tab, cfds, r
		}},
		goldenCase{name: "customer", build: func(t *testing.T) (*relstore.Table, []*cfd.CFD, *Repairer) {
			tab, cfds := customerTable(t)
			return tab, cfds, NewRepairer()
		}},
	)
	return cases
}

// TestRepairGolden pins the batch repairer's complete output — every
// modification in order with its alternatives, the cost, passes,
// convergence, remaining count and the repaired rows — byte for byte
// against outcomes recorded in testdata/. Regenerate with -update only for
// an intended behaviour change.
func TestRepairGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			tab, cfds, r := gc.build(t)
			res, err := r.Repair(context.Background(), tab, cfds)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, gc.name, renderOutcome(res))
		})
	}
}

// TestFactorisedRepairMatchesLegacy asserts the factorised repair path —
// groups consumed as partition-class refs, no exploded report — produces
// the exact repair the removed exploded path produced when driven by the
// columnar detector: same modifications in the same order, same cost,
// passes, convergence and repaired rows. The legacy outcomes in
// testdata/golden/legacy-*.txt were recorded from that path and are never
// rewritten by -update. The columnar detector must also agree with the
// repair's own count of what is left.
func TestFactorisedRepairMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	cfds := datagen.StandardCFDs()
	for _, noise := range []float64{0.05, 0.2} {
		ds := datagen.Generate(datagen.Config{Tuples: 400, Seed: 29, NoiseRate: noise})
		res, err := NewRepairer().Repair(ctx, ds.Dirty, cfds)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", fmt.Sprintf("legacy-datagen-400-noise%g.txt", noise))
		diffGolden(t, path, renderOutcome(res))
		rep, err := detect.ColumnarDetector{}.Detect(ctx, res.Repaired, cfds)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalViolations() != res.Remaining {
			t.Fatalf("noise=%g: columnar detector finds %d violations, repair reports %d remaining",
				noise, rep.TotalViolations(), res.Remaining)
		}
	}
}

// TestRepairGoldenRandom pins the outcome of many small decoded cases
// (the FuzzRepair domain: mixed INT/FLOAT keys, NULLs, constant and
// variable patterns) in one golden file.
func TestRepairGoldenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var b strings.Builder
	for i := 0; i < 150; i++ {
		data := randomCase(rng, i)
		tab, cfds := decodeRepairCase(data)
		res, err := NewRepairer().Repair(context.Background(), tab, cfds)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		fmt.Fprintf(&b, "case %d %x\n", i, data)
		b.WriteString(renderOutcome(res))
	}
	checkGolden(t, "random", b.String())
}

// randomCase draws the bytes of one decoded repair case. Cells come from
// a narrow slice of caseValues, so groups are large and disagree; two of
// every three cases use a fixed CFD set in which two FDs share an RHS
// attribute (the oscillating interaction), the third draws its CFDs at
// random.
func randomCase(rng *rand.Rand, i int) []byte {
	rows := 4 + rng.Intn(20)
	span := 3 + rng.Intn(len(caseValues)-2)
	data := []byte{byte(rows - 2)}
	for j := 0; j < rows*len(caseAttrs); j++ {
		data = append(data, byte(rng.Intn(span)))
	}
	switch i % 3 {
	case 0: // [A] -> [C], [B] -> [C]
		return append(data, 1, 2, 1, 0, 1, 1, 2, 2, 0, 1, 1)
	case 1: // [A] -> [C], [B] -> [C], [C] -> [D]
		return append(data, 2, 2, 1, 0, 1, 1, 2, 2, 0, 1, 1, 3, 4, 0, 1, 1)
	}
	for j := 0; j < 24; j++ {
		data = append(data, byte(rng.Intn(256)))
	}
	return data
}

// TestIncRepairGolden pins the incremental repairer's modifications and
// resulting table the same way: a clean generated base plus a dirty
// generated delta, and decoded cases whose second half is the delta.
func TestIncRepairGolden(t *testing.T) {
	var b strings.Builder
	run := func(name string, tab *relstore.Table, cfds []*cfd.CFD, delta []relstore.TupleID) {
		tr, err := detect.NewTracker(tab, cfds)
		if err != nil {
			t.Fatal(err)
		}
		mods, err := NewIncRepairer().RepairDelta(tr, tab, cfds, delta)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s mods=%d\n", name, len(mods))
		renderMods(&b, tab, mods)
	}
	for _, noise := range []float64{0.1, 0.3} {
		base := datagen.Generate(datagen.Config{Tuples: 2000, Seed: 31})
		fresh := datagen.Generate(datagen.Config{Tuples: 300, Seed: 77, NoiseRate: noise})
		tab := base.Clean
		var delta []relstore.TupleID
		for _, row := range fresh.Dirty.Snapshot().Rows() {
			delta = append(delta, tab.MustInsert(row))
		}
		run(fmt.Sprintf("datagen-delta-noise%g", noise), tab, datagen.StandardCFDs(), delta)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		data := randomCase(rng, i)
		tab, cfds := decodeRepairCase(data)
		ids := tab.IDs()
		run(fmt.Sprintf("case %d %x", i, data), tab, cfds, ids[len(ids)/2:])
	}
	checkGolden(t, "incremental", b.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	diffGolden(t, path, got)
}

// diffGolden fails t where got differs from the file at path, naming the
// first differing line.
func diffGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: first difference at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}

// renderOutcome renders a repair result deterministically. Values carry
// their kind, and floats their shortest exact form, so a representation
// change (INT 1 vs FLOAT 1.0) or a last-bit cost difference shows. Rows
// touched by a modification are listed in full; the whole repaired table is
// pinned by a digest of all its rows.
func renderOutcome(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "passes=%d converged=%v remaining=%d cost=%s mods=%d\n",
		res.Passes, res.Converged, res.Remaining, renderFloat(res.Cost), len(res.Modifications))
	renderMods(&b, res.Repaired, res.Modifications)
	return b.String()
}

// renderMods renders modifications in order, then tab's rows as in
// renderOutcome.
func renderMods(b *strings.Builder, tab *relstore.Table, mods []Modification) {
	touched := map[relstore.TupleID]bool{}
	for _, m := range mods {
		touched[m.TupleID] = true
		fmt.Fprintf(b, "mod %d %s %s -> %s cost=%s cfd=%q reason=%q alts=[",
			m.TupleID, m.Attr, renderValue(m.Old), renderValue(m.New), renderFloat(m.Cost), m.CFDID, m.Reason)
		for i, a := range m.Alternatives {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "%s:%s", renderValue(a.Value), renderFloat(a.Cost))
		}
		b.WriteString("]\n")
	}
	ids, rows := tab.Rows()
	h := sha256.New()
	for i, id := range ids {
		line := fmt.Sprintf("%d %s\n", id, renderTuple(rows[i]))
		h.Write([]byte(line))
		if touched[id] {
			b.WriteString("row " + line)
		}
	}
	fmt.Fprintf(b, "rows n=%d sha256=%x\n", len(ids), h.Sum(nil))
}

func renderTuple(row relstore.Tuple) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = renderValue(v)
	}
	return strings.Join(parts, " ")
}

func renderValue(v types.Value) string {
	switch v.Kind() {
	case types.KindFloat:
		return "FLOAT:" + strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case types.KindString:
		return "STRING:" + strconv.Quote(v.Str())
	default:
		return v.Kind().String() + ":" + v.String()
	}
}

func renderFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
