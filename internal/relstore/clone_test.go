package relstore

import (
	"sync"
	"testing"

	"semandaq/internal/types"
)

// sourceState records what a Clone copy must never change about its
// source: version, pinned snapshot and rows (by exact representation).
type sourceState struct {
	ver  int64
	pin  *Snapshot
	ids  []TupleID
	rows []Tuple
}

func recordSource(tab *Table) sourceState {
	ids, rows := tab.Rows()
	return sourceState{ver: tab.Version(), pin: tab.Snapshot(), ids: ids, rows: rows}
}

func (s sourceState) check(t *testing.T, tab *Table, when string) {
	t.Helper()
	if tab.Version() != s.ver {
		t.Fatalf("%s: source version %d, want %d", when, tab.Version(), s.ver)
	}
	if tab.Snapshot() != s.pin {
		t.Fatalf("%s: source's pinned snapshot was replaced", when)
	}
	ids, rows := tab.Rows()
	if len(ids) != len(s.ids) {
		t.Fatalf("%s: source has %d rows, want %d", when, len(ids), len(s.ids))
	}
	for i := range ids {
		if ids[i] != s.ids[i] {
			t.Fatalf("%s: source row %d has id %d, want %d", when, i, ids[i], s.ids[i])
		}
		if err := diffTuple(rows[i], s.rows[i]); err != nil {
			t.Fatalf("%s: source row %d: %v", when, ids[i], err)
		}
	}
}

// TestCloneTwoSuccessors clones a table whose pinned snapshot has its
// columnar view, PLIs and every lazy cache built, then mutates source and
// copy differently. The copy's first pin is the inherited snapshot's
// columnar view at no build cost; both successors match their cold
// rebuilds; nothing done to the copy reaches the source; and the source's
// own next pin is still patched, not rebuilt.
func TestCloneTwoSuccessors(t *testing.T) {
	tab := suffixBase()
	src := recordSource(tab)
	cold := tab.RebuildSnapshot()

	before := ReadBuildOps()
	c := tab.Clone()
	if c.Version() != tab.Version() {
		t.Fatalf("copy version %d, source %d", c.Version(), tab.Version())
	}
	if c.Snapshot().Columnar() != src.pin.Columnar() {
		t.Fatal("copy's first pin did not take over the source's columnar view")
	}
	if ops := ReadBuildOps().Sub(before); ops != (BuildOps{}) {
		t.Fatalf("copy's first pin built artifacts: %+v", ops)
	}

	// The copy diverges: edits after every first occurrence, novel values
	// appended (the shared dictionaries and interner maps must not grow in
	// place), a deletion.
	ids := c.IDs()
	for k, id := range ids[150:160] {
		if _, err := c.SetCell(id, k%3, tab.Snapshot().Row(k)[k%3]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range novelRows("copy") {
		c.MustInsert(r)
	}
	c.Delete(ids[180])
	warmAll(c)
	checkAgainstRebuild(t, c)
	src.check(t, tab, "after the copy diverged")
	checkAgainstRebuild(t, tab)
	copyPin := c.Snapshot()

	// The source diverges the other way with an edit that disturbs no
	// first occurrence: its next pin must patch the shared predecessor.
	before = ReadBuildOps()
	if _, err := tab.SetCell(tab.IDs()[120], 1, types.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	warmAll(tab)
	ops := ReadBuildOps().Sub(before)
	if ops.PatchedSnapshots != 1 || ops.PatchedColumns != 1 || ops.RebuiltColumns != 0 || ops.BatchColumns != 0 {
		t.Errorf("source's next pin: %d patched snapshots, %d patched, %d rebuilt, %d batch columns; want 1, 1, 0, 0",
			ops.PatchedSnapshots, ops.PatchedColumns, ops.RebuiltColumns, ops.BatchColumns)
	}
	checkAgainstRebuild(t, tab)

	// Novel values of the source's own land in the same dictionary slots
	// the copy's did; neither successor may see the other's.
	for k := 0; k < 4; k++ {
		tab.MustInsert(Tuple{types.NewString("src" + string(rune('0'+k))),
			types.NewFloat(9.5 + float64(k)), types.NewString("s" + string(rune('0'+k)))})
	}
	warmAll(tab)
	checkAgainstRebuild(t, tab)
	if c.Snapshot() != copyPin {
		t.Fatal("the source's writes replaced the copy's pinned snapshot")
	}
	checkAgainstRebuild(t, c)
	if err := DiffSnapshots(src.pin, cold); err != nil {
		t.Fatalf("the shared predecessor no longer matches its rebuild: %v", err)
	}
}

// TestCloneUnbuiltKeepsSourcePatch clones at a version the source has
// pinned but whose columnar view is not built yet, so the pinned snapshot
// still carries its patch link. The copy then pins and builds first; the
// source's columnar view must still be derived by patching, not by a
// rebuild, and both must match their cold rebuilds.
func TestCloneUnbuiltKeepsSourcePatch(t *testing.T) {
	tab := suffixBase()
	if _, err := tab.SetCell(tab.IDs()[100], 2, types.NewString("c4")); err != nil {
		t.Fatal(err)
	}
	src := recordSource(tab) // pins without building the columnar view

	c := tab.Clone()
	if _, err := c.SetCell(c.IDs()[110], 0, types.NewString("a3")); err != nil {
		t.Fatal(err)
	}
	warmAll(c)
	checkAgainstRebuild(t, c)
	src.check(t, tab, "after the copy diverged")

	before := ReadBuildOps()
	tab.Columnar()
	ops := ReadBuildOps().Sub(before)
	if ops.PatchedColumns != 1 || ops.RebuiltColumns != 0 || ops.BatchColumns != 0 {
		t.Errorf("source's columnar view: %d patched, %d rebuilt, %d batch columns; want 1, 0, 0",
			ops.PatchedColumns, ops.RebuiltColumns, ops.BatchColumns)
	}
	checkAgainstRebuild(t, tab)
}

// TestCloneConcurrentWithSourceWrites clones a table over and over while a
// writer keeps editing and re-pinning the source, so copies fork snapshots
// whose artifacts the source is concurrently patching from; each copy then
// diverges and must still match its rebuild. Run under -race.
func TestCloneConcurrentWithSourceWrites(t *testing.T) {
	tab := suffixBase()
	ids := tab.IDs()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := tab.SetCell(ids[100+i], i%3, tab.Snapshot().Row(i % 10)[i%3]); err != nil {
				t.Error(err)
				return
			}
			warmAll(tab)
		}
	}()
	for i := 0; i < 40; i++ {
		c := tab.Clone()
		if _, err := c.SetCell(ids[150+i], (i+1)%3, patchValue(i)); err != nil {
			t.Fatal(err)
		}
		c.MustInsert(novelRows("c")[i%6])
		warmAll(c)
		checkAgainstRebuild(t, c)
	}
	wg.Wait()
	checkAgainstRebuild(t, tab)
}

// TestRowIsFrozen: Table.Row hands out the stored tuple without copying,
// and a later write swaps a fresh tuple in instead of changing it.
func TestRowIsFrozen(t *testing.T) {
	tab := NewTable(newCustomerTable().Schema())
	id := tab.MustInsert(strs("Mike", "UK", "Edinburgh", "EH2", "Mayfield", "44", "131"))
	row, ok := tab.Row(id)
	if !ok {
		t.Fatal("row not found")
	}
	if again, _ := tab.Row(id); &again[0] != &row[0] {
		t.Error("Row copied the stored tuple")
	}
	if _, err := tab.SetCell(id, 2, types.NewString("London")); err != nil {
		t.Fatal(err)
	}
	if row[2].Str() != "Edinburgh" {
		t.Errorf("a write changed a tuple handed out by Row: %v", row)
	}
	if _, ok := tab.Row(99); ok {
		t.Error("Row found a missing id")
	}
}
