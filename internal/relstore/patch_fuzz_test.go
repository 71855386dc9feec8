package relstore

import (
	"testing"

	"semandaq/internal/schema"
)

// FuzzSnapshotPatch decodes an arbitrary byte string into a mutation
// sequence over a seeded three-column table and asserts, after every single
// mutation, that the served (patched) snapshot is byte-identical to a cold
// batch rebuild — dictionaries, code vectors, occurrence bookkeeping, PLIs,
// probe vectors, key tables and class orders included. The per-version
// check force-builds every artifact, so each next version patches a fully
// warm predecessor.
//
// Byte vocabulary: each op reads an opcode byte (low two bits select
// insert/delete/setcell/update) and then value/row/column selector bytes
// from the stream; missing bytes read as zero. An opcode with bit 7 set
// instead clones the table and diverges: the copy takes over the source's
// pinned snapshot and applies one op of its own, and both successors must
// match their rebuilds while the source's rows, version and pinned
// snapshot stay untouched. With bit 5 set the clone happens at a version
// the source has pinned but not yet built columnar (the copy then inherits
// the pending patch link); with bit 6 set the program continues on the
// copy, otherwise on the source. The value domain is patchValues
// (patch_test.go), which packs the Equal-vs-exact corner cases (INT 1 /
// FLOAT 1.0, NULL, NaN) into eleven values.
func FuzzSnapshotPatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	// insert a few rows, edit cells, delete, update
	f.Add([]byte{0, 3, 4, 5, 0, 0, 1, 2, 2, 0, 1, 7, 1, 0, 3, 1, 8, 9, 10})
	// hammer one row with representation flips (INT 1 <-> FLOAT 1.0)
	f.Add([]byte{0, 3, 3, 3, 2, 0, 0, 4, 2, 0, 0, 3, 2, 0, 1, 4, 3, 0, 4, 4, 4})
	// interleave inserts and deletes so positions shift under the patcher
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 1, 0, 0, 5, 6, 7, 1, 1, 0, 8, 9, 10})
	// clone, edit the copy, keep editing the source; then clone unbuilt
	// and continue on the copy
	f.Add([]byte{0x80, 2, 0, 1, 4, 2, 1, 1, 3, 0xe0, 2, 3, 0, 9, 0, 7, 8, 9, 2, 0, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		runMutationSequence(t, data)
	})
}

// runMutationSequence is the shared driver behind FuzzSnapshotPatch and
// TestSnapshotPatchSeeds.
func runMutationSequence(t *testing.T, data []byte) {
	tab := NewTable(schema.New("f", "A", "B", "C"))
	for i := 0; i < 6; i++ {
		tab.MustInsert(Tuple{patchValue(i), patchValue(i + 1), patchValue(i + 2)})
	}
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	row := func() Tuple {
		return Tuple{patchValue(next()), patchValue(next()), patchValue(next())}
	}
	check := func(tab *Table) {
		if err := DiffSnapshots(tab.Snapshot(), tab.RebuildSnapshot()); err != nil {
			t.Fatalf("version %d after %d input bytes: %v", tab.Version(), pos, err)
		}
	}
	mutate := func(tab *Table, op int) {
		ids := tab.IDs()
		switch {
		case op%4 == 0 || len(ids) == 0:
			tab.MustInsert(row())
		case op%4 == 1:
			tab.Delete(ids[next()%len(ids)])
		case op%4 == 2:
			if _, err := tab.SetCell(ids[next()%len(ids)], next()%3, patchValue(next())); err != nil {
				t.Fatal(err)
			}
		default:
			if err := tab.Update(ids[next()%len(ids)], row()); err != nil {
				t.Fatal(err)
			}
		}
	}
	check(tab)
	var forked []*Table
	for pos < len(data) {
		op := next()
		if op&0x80 == 0 {
			mutate(tab, op)
			check(tab)
			continue
		}
		if op&0x20 != 0 {
			mutate(tab, next())
			tab.Snapshot() // pinned, columnar view not built
		}
		pin, ver := tab.Snapshot(), tab.Version()
		ids, rows := tab.Rows()
		c := tab.Clone()
		check(c)
		mutate(c, next())
		check(c)
		if tab.Version() != ver || tab.Snapshot() != pin {
			t.Fatalf("after %d input bytes: the copy's writes moved the source from version %d to %d or dropped its pinned snapshot",
				pos, ver, tab.Version())
		}
		gotIDs, gotRows := tab.Rows()
		if len(gotIDs) != len(ids) {
			t.Fatalf("after %d input bytes: the copy's writes changed the source's row count", pos)
		}
		for i := range ids {
			if gotIDs[i] != ids[i] || diffTuple(gotRows[i], rows[i]) != nil {
				t.Fatalf("after %d input bytes: the copy's writes changed source row %d", pos, ids[i])
			}
		}
		check(tab)
		forked = append(forked, tab, c)
		if op&0x40 != 0 {
			tab = c
		}
	}
	// Whatever either successor did later, every table's pinned snapshot
	// still matches its rebuild.
	for _, ft := range forked {
		check(ft)
	}
}
