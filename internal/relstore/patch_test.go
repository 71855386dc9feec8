package relstore

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// patchValues is the value domain the patch tests mutate over, chosen to
// exercise every dictionary subtlety: Equal-but-not-exact numeric pairs
// (INT 1 / FLOAT 1.0), NULL, NaN, bools and plain strings.
var patchValues = []types.Value{
	types.NewString("a"),
	types.NewString("b"),
	types.NewString("c"),
	types.NewInt(1),
	types.NewFloat(1.0),
	types.NewInt(2),
	types.NewFloat(2.5),
	types.Null,
	types.NewFloat(math.NaN()),
	types.NewBool(true),
	types.NewString(""),
}

func patchValue(i int) types.Value {
	return patchValues[((i%len(patchValues))+len(patchValues))%len(patchValues)]
}

// checkAgainstRebuild asserts the served (possibly patched) snapshot is
// byte-identical to a cold batch rebuild, force-building every artifact on
// both sides.
func checkAgainstRebuild(t *testing.T, tab *Table) {
	t.Helper()
	if err := DiffSnapshots(tab.Snapshot(), tab.RebuildSnapshot()); err != nil {
		t.Fatalf("patched snapshot diverged from rebuild at version %d: %v",
			tab.Version(), err)
	}
}

// TestPatchedSnapshotMatchesRebuild drives random mutation sequences and
// holds the serving path to the byte-identity contract at every
// intermediate version. The per-version check also force-builds every lazy
// artifact, so each subsequent snapshot derives from a fully warm
// predecessor — the hardest case for the patcher.
func TestPatchedSnapshotMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(schema.New("p", "A", "B", "C"))
		for i := 0; i < 12; i++ {
			tab.MustInsert(Tuple{
				patchValue(rng.Intn(len(patchValues))),
				patchValue(rng.Intn(len(patchValues))),
				patchValue(rng.Intn(len(patchValues))),
			})
		}
		checkAgainstRebuild(t, tab)
		for step := 0; step < 60; step++ {
			ids := tab.IDs()
			switch op := rng.Intn(4); {
			case op == 0 || len(ids) == 0:
				tab.MustInsert(Tuple{
					patchValue(rng.Intn(len(patchValues))),
					patchValue(rng.Intn(len(patchValues))),
					patchValue(rng.Intn(len(patchValues))),
				})
			case op == 1:
				tab.Delete(ids[rng.Intn(len(ids))])
			case op == 2:
				if _, err := tab.SetCell(ids[rng.Intn(len(ids))], rng.Intn(3),
					patchValue(rng.Intn(len(patchValues)))); err != nil {
					t.Fatal(err)
				}
			default:
				if err := tab.Update(ids[rng.Intn(len(ids))], Tuple{
					patchValue(rng.Intn(len(patchValues))),
					patchValue(rng.Intn(len(patchValues))),
					patchValue(rng.Intn(len(patchValues))),
				}); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstRebuild(t, tab)
		}
	}
}

// fullDiff is the reference the touched-id pin must reproduce: the delta
// found by looking every predecessor row up in the new snapshot.
func fullDiff(prev, snap *Snapshot) (drops []int32, nAppend int, edits [][]cellEdit) {
	pos := make(map[TupleID]int32, len(snap.ids))
	for i, id := range snap.ids {
		pos[id] = int32(i)
	}
	edits = make([][]cellEdit, prev.schema.Arity())
	for i, id := range prev.ids {
		np, live := pos[id]
		if !live {
			drops = append(drops, int32(i))
			continue
		}
		for j := range edits {
			if !exactEqual(prev.rows[i][j], snap.rows[np][j]) {
				edits[j] = append(edits[j], cellEdit{prevPos: int32(i), newPos: np})
			}
		}
	}
	return drops, len(snap.ids) - len(prev.ids) + len(drops), edits
}

// TestPinMatchesFullDiff applies random batches of mutations between pins
// (so one pin sees repeated, deleted and re-edited ids) and holds the
// touched-id pin's recorded delta to the full diff of the two snapshots.
func TestPinMatchesFullDiff(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(schema.New("p", "A", "B", "C"))
		row := func() Tuple {
			return Tuple{patchValue(rng.Intn(len(patchValues))),
				patchValue(rng.Intn(len(patchValues))), patchValue(rng.Intn(len(patchValues)))}
		}
		for i := 0; i < 20; i++ {
			tab.MustInsert(row())
		}
		checkAgainstRebuild(t, tab)
		for step := 0; step < 40; step++ {
			prev := tab.Snapshot()
			for k := rng.Intn(8) + 1; k > 0; k-- {
				ids := tab.IDs()
				switch op := rng.Intn(4); {
				case op == 0 || len(ids) == 0:
					tab.MustInsert(row())
				case op == 1:
					tab.Delete(ids[rng.Intn(len(ids))])
				case op == 2:
					if _, err := tab.SetCell(ids[rng.Intn(len(ids))], rng.Intn(3),
						patchValue(rng.Intn(len(patchValues)))); err != nil {
						t.Fatal(err)
					}
				default:
					if err := tab.Update(ids[rng.Intn(len(ids))], row()); err != nil {
						t.Fatal(err)
					}
				}
			}
			snap := tab.Snapshot()
			p := snap.patch.Load()
			if p == nil || p.prev != prev {
				t.Fatalf("seed %d step %d: snapshot was not patched from its predecessor", seed, step)
			}
			drops, nAppend, edits := fullDiff(prev, snap)
			if !reflect.DeepEqual(p.drops, drops) || p.nAppend != nAppend || !reflect.DeepEqual(p.edits, edits) ||
				(p.remap != nil) != (len(drops) > 0) {
				t.Fatalf("seed %d step %d: pin recorded drops %v, %d appends, edits %v; full diff finds %v, %d, %v",
					seed, step, p.drops, p.nAppend, p.edits, drops, nAppend, edits)
			}
			checkAgainstRebuild(t, tab)
		}
	}
}

// TestUpdateRepresentationChange pins the subtlest delta: Update swapping
// INT 1 for FLOAT 1.0 changes the stored representation (and the columnar
// dictionary) even though the values compare Equal, so the patcher must
// see it.
func TestUpdateRepresentationChange(t *testing.T) {
	tab := NewTable(schema.New("p", "A"))
	tab.MustInsert(Tuple{types.NewFloat(1.0)})
	id := tab.MustInsert(Tuple{types.NewInt(1)})
	tab.MustInsert(Tuple{types.NewInt(1)})
	checkAgainstRebuild(t, tab)
	if err := tab.Update(id, Tuple{types.NewFloat(1.0)}); err != nil {
		t.Fatal(err)
	}
	checkAgainstRebuild(t, tab)
}

// TestPatchOpsAreODelta is the unit-level face of the D7 claim: serving a
// snapshot after k cell edits on a warm table must cost O(k) interner work,
// not a batch rebuild.
func TestPatchOpsAreODelta(t *testing.T) {
	const n, arity, edits = 2000, 3, 20
	tab := NewTable(schema.New("p", "A", "B", "C"))
	rng := rand.New(rand.NewSource(1))
	// Column B cycles through a 50-value domain, so every value's first
	// occurrence sits in the first 50 rows; the edits below touch only rows
	// past 1000 and swap within the domain, so the patcher never faces a
	// first-occurrence disturbance and must take the pure patch path.
	for i := 0; i < n; i++ {
		tab.MustInsert(Tuple{
			types.NewString("k" + string(rune('a'+rng.Intn(20)))),
			types.NewInt(int64(i % 50)),
			types.NewString("v" + string(rune('a'+rng.Intn(5)))),
		})
	}
	// Warm every artifact on the current version.
	snap := tab.Snapshot()
	for j := 0; j < arity; j++ {
		col := snap.Columnar().Col(j)
		col.PLI()
		col.EqProbe()
		col.PLIClassesByKey()
		col.EnsureKeys()
	}
	ids := tab.IDs()
	before := ReadBuildOps()
	for i := 0; i < edits; i++ {
		id := ids[1000+rng.Intn(len(ids)-1000)]
		row, _ := tab.Get(id)
		nv := (row[1].Int() + 1) % 50
		if _, err := tab.SetCell(id, 1, types.NewInt(nv)); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstRebuild(t, tab) // includes the cold rebuild's own cost
	ops := ReadBuildOps().Sub(before)
	if ops.PatchedSnapshots != 1 {
		t.Fatalf("PatchedSnapshots = %d, want 1 (ops: %+v)", ops.PatchedSnapshots, ops)
	}
	if ops.SharedColumns != arity-1 {
		t.Errorf("SharedColumns = %d, want %d (only column B changed)", ops.SharedColumns, arity-1)
	}
	if ops.PatchedColumns != 1 || ops.RebuiltColumns != 0 {
		t.Errorf("PatchedColumns = %d RebuiltColumns = %d, want 1/0", ops.PatchedColumns, ops.RebuiltColumns)
	}
	if ops.PatchedCells > edits {
		t.Errorf("PatchedCells = %d, want <= %d", ops.PatchedCells, edits)
	}
	// The serving path interned nothing; all interning belongs to the cold
	// rebuild the check performed (1 batch snapshot, arity batch columns).
	wantInterned := int64(n * arity)
	if ops.InternedCells != wantInterned || ops.BatchColumns != arity || ops.BatchSnapshots != 1 {
		t.Errorf("cold-side ops off: InternedCells=%d (want %d) BatchColumns=%d (want %d) BatchSnapshots=%d (want 1)",
			ops.InternedCells, wantInterned, ops.BatchColumns, arity, ops.BatchSnapshots)
	}
	if ops.PLIPatches != 1 {
		t.Errorf("PLIPatches = %d, want 1", ops.PLIPatches)
	}
}

func TestChangesSince(t *testing.T) {
	tab := NewTable(schema.New("p", "A", "B"))
	v0 := tab.Version()
	id := tab.MustInsert(strs("x", "y"))
	if _, err := tab.SetCell(id, 1, types.NewString("z")); err != nil {
		t.Fatal(err)
	}
	changed, rowsStable, ok := tab.ChangesSince(v0)
	if !ok || rowsStable || !changed[1] || changed[0] {
		t.Fatalf("ChangesSince(v0) = %v stable=%v ok=%v", changed, rowsStable, ok)
	}
	v2 := tab.Version()
	if _, err := tab.SetCell(id, 0, types.NewString("w")); err != nil {
		t.Fatal(err)
	}
	changed, rowsStable, ok = tab.ChangesSince(v2)
	if !ok || !rowsStable || !changed[0] || changed[1] {
		t.Fatalf("ChangesSince(v2) = %v stable=%v ok=%v", changed, rowsStable, ok)
	}
	// A no-op update (same representation) advances the version but logs
	// no changes.
	v3 := tab.Version()
	if err := tab.Update(id, strs("w", "z")); err != nil {
		t.Fatal(err)
	}
	if tab.Version() == v3 {
		t.Fatal("no-op update did not advance the version")
	}
	changed, rowsStable, ok = tab.ChangesSince(v3)
	if !ok || !rowsStable || changed[0] || changed[1] {
		t.Fatalf("ChangesSince(v3) = %v stable=%v ok=%v", changed, rowsStable, ok)
	}
	// Future versions are not answerable.
	if _, _, ok := tab.ChangesSince(tab.Version() + 1); ok {
		t.Error("ChangesSince answered for a future version")
	}
}

func TestChangesSinceLogOverflow(t *testing.T) {
	tab := NewTable(schema.New("p", "A"))
	id := tab.MustInsert(strs("x"))
	since := tab.Version()
	for i := 0; i < maxChangeLog+10; i++ {
		v := "a"
		if i%2 == 0 {
			v = "b"
		}
		if _, err := tab.SetCell(id, 0, types.NewString(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := tab.ChangesSince(since); ok {
		t.Error("ChangesSince answered past the evicted log floor")
	}
	// Recent intervals stay answerable after eviction.
	recent := tab.Version()
	if _, err := tab.SetCell(id, 0, types.NewString("q")); err != nil {
		t.Fatal(err)
	}
	changed, rowsStable, ok := tab.ChangesSince(recent)
	if !ok || !rowsStable || !changed[0] {
		t.Fatalf("ChangesSince(recent) = %v stable=%v ok=%v", changed, rowsStable, ok)
	}
}

// TestPatchAbandonedPastCap: a delta larger than maxPatchOps falls back to
// a batch build (and still serves correct data).
func TestPatchAbandonedPastCap(t *testing.T) {
	tab := NewTable(schema.New("p", "A"))
	id := tab.MustInsert(strs("x"))
	tab.Snapshot() // retained as the patch base
	for i := 0; i <= maxPatchOps; i++ {
		v := "a"
		if i%2 == 0 {
			v = "b"
		}
		if _, err := tab.SetCell(id, 0, types.NewString(v)); err != nil {
			t.Fatal(err)
		}
	}
	before := ReadBuildOps()
	tab.Snapshot()
	ops := ReadBuildOps().Sub(before)
	if ops.PatchedSnapshots != 0 || ops.BatchSnapshots != 1 {
		t.Errorf("past-cap delta: Patched=%d Batch=%d, want 0/1", ops.PatchedSnapshots, ops.BatchSnapshots)
	}
	checkAgainstRebuild(t, tab)
}

// TestPatchSharesUntouchedColumns: a patched snapshot shares untouched
// columns with its predecessor wholesale — pointer identity, caches and
// all.
func TestPatchSharesUntouchedColumns(t *testing.T) {
	tab := NewTable(schema.New("p", "A", "B"))
	id := tab.MustInsert(strs("x", "y"))
	tab.MustInsert(strs("x", "z"))
	prevCol := tab.Snapshot().Columnar().Col(0)
	if _, err := tab.SetCell(id, 1, types.NewString("q")); err != nil {
		t.Fatal(err)
	}
	if got := tab.Snapshot().Columnar().Col(0); got != prevCol {
		t.Error("untouched column was not shared with the predecessor")
	}
	checkAgainstRebuild(t, tab)
}

// warmAll serves the current snapshot and force-builds every lazy artifact
// of its columns, so the next version patches a fully warm predecessor.
func warmAll(tab *Table) {
	col := tab.Snapshot().Columnar()
	for j := 0; j < col.NumCols(); j++ {
		c := col.Col(j)
		c.PLI()
		c.EqProbe()
		c.PLIClassesByKey()
		c.EnsureKeys()
	}
}

// novelRows returns rows whose every cell is absent from suffixBase's
// columns, covering the interner's special slots: NULL, NaN, both bools,
// a FLOAT that joins an existing INT's Equal-class, and an INT/FLOAT pair
// that forms a new class.
func novelRows(tag string) []Tuple {
	b := []types.Value{types.Null, types.NewFloat(math.NaN()), types.NewBool(true),
		types.NewFloat(3.0), types.NewInt(500), types.NewFloat(500.0)}
	c := []types.Value{types.NewBool(false), types.NewFloat(2.5), types.NewString("new"),
		types.Null, types.NewInt(7), types.NewFloat(7.0)}
	rows := make([]Tuple, len(b))
	for k := range rows {
		rows[k] = Tuple{types.NewString(tag + string(rune('0'+k))), b[k], c[k]}
	}
	return rows
}

// suffixBase builds a warm 200-row table over small domains none of
// novelRows' values occur in.
func suffixBase() *Table {
	tab := NewTable(schema.New("p", "A", "B", "C"))
	for i := 0; i < 200; i++ {
		tab.MustInsert(Tuple{
			types.NewString("a" + string(rune('0'+i%10))),
			types.NewInt(int64(i % 7)),
			types.NewString("c" + string(rune('0'+i%5))),
		})
	}
	warmAll(tab)
	return tab
}

// TestPatchSuffixRemoval: rows carrying novel values are appended, served
// warm, and then removed again — deleted at once, deleted newest first,
// or overwritten with existing values. Their dictionary entries are the
// dictionary's suffix and lose every occurrence, so every column patches
// by truncation: nothing is rebuilt, the only interned cells are the
// appended ones, and every step is byte-identical to a cold rebuild.
func TestPatchSuffixRemoval(t *testing.T) {
	for _, mode := range []string{"delete-all", "delete-newest-first", "overwrite"} {
		t.Run(mode, func(t *testing.T) {
			tab := suffixBase()
			step := func(what string, wantInterned int64, mutate func()) {
				t.Helper()
				before := ReadBuildOps()
				mutate()
				warmAll(tab)
				ops := ReadBuildOps().Sub(before)
				if ops.RebuiltColumns != 0 || ops.BatchColumns != 0 || ops.PatchedSnapshots != 1 {
					t.Errorf("%s: rebuilt %d, batch %d columns, %d patched snapshots; want 0, 0, 1",
						what, ops.RebuiltColumns, ops.BatchColumns, ops.PatchedSnapshots)
				}
				if ops.InternedCells != wantInterned {
					t.Errorf("%s: interned %d cells, want %d", what, ops.InternedCells, wantInterned)
				}
				checkAgainstRebuild(t, tab)
			}
			for round := 0; round < 2; round++ {
				rows := novelRows("n")
				var ids []TupleID
				step("append", int64(len(rows)*3), func() {
					for _, r := range rows {
						ids = append(ids, tab.MustInsert(r))
					}
				})
				switch mode {
				case "delete-all":
					step("delete", 0, func() {
						for _, id := range ids {
							tab.Delete(id)
						}
					})
				case "delete-newest-first":
					for k := len(ids) - 1; k >= 0; k-- {
						step("delete", 0, func() { tab.Delete(ids[k]) })
					}
				default:
					step("overwrite", 0, func() {
						for k, id := range ids {
							if err := tab.Update(id, Tuple{types.NewString("a1"),
								types.NewInt(int64(k % 7)), types.NewString("c2")}); err != nil {
								t.Fatal(err)
							}
						}
					})
				}
			}
		})
	}
}

// TestPatchFirstOccurrenceRemovalRebuilds is the twin of
// TestPatchSuffixRemoval: removing a first occurrence whose value recurs
// later, or a dead entry that is not the dictionary's suffix, shifts the
// batch numbering, so the column must still rebuild — and still match.
func TestPatchFirstOccurrenceRemovalRebuilds(t *testing.T) {
	t.Run("value-recurs", func(t *testing.T) {
		tab := suffixBase()
		before := ReadBuildOps()
		tab.Delete(tab.IDs()[0]) // first "a0", 0 and "c0"; all recur
		warmAll(tab)
		if ops := ReadBuildOps().Sub(before); ops.RebuiltColumns != 3 {
			t.Errorf("rebuilt %d columns, want 3", ops.RebuiltColumns)
		}
		checkAgainstRebuild(t, tab)
	})
	t.Run("dead-not-suffix", func(t *testing.T) {
		tab := suffixBase()
		first := tab.MustInsert(novelRows("x")[0])
		tab.MustInsert(novelRows("y")[0])
		warmAll(tab)
		before := ReadBuildOps()
		tab.Delete(first)
		warmAll(tab)
		// Column A's "x0" dies below the live "y0"; B and C lose the first
		// of two NULL / FALSE occurrences. All three rebuild.
		if ops := ReadBuildOps().Sub(before); ops.RebuiltColumns != 3 {
			t.Errorf("rebuilt %d columns, want 3", ops.RebuiltColumns)
		}
		checkAgainstRebuild(t, tab)
	})
}
