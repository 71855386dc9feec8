// Columnar snapshots: an immutable, column-oriented view of a Table with
// per-attribute interned dictionaries. The row store (map[TupleID]Tuple)
// is the system of record; the hot read paths — detection group-builds and
// SQL-engine scans — walk these snapshots instead, because
//
//   - a column's values are interned once into a dense dictionary, so a
//     tuple's grouping key is a fixed-width vector of uint32 codes instead
//     of a length-prefixed string rebuilt per tuple per CFD;
//   - equality against a constant (a CFD pattern cell, a WHERE literal)
//     is one integer comparison after a single dictionary probe;
//   - the snapshot is versioned off Table.version, so every reader of an
//     unchanged table shares one materialization.
//
// Two code spaces per column. Exact codes intern by (kind, payload)
// identity, so Value(Code(i)) round-trips the stored value bit-for-bit and
// scans built from the snapshot are indistinguishable from row scans.
// Equal-class codes (EqCode) canonicalize across the value model's
// cross-kind numeric equality — INT 1 and FLOAT 1.0 are Equal and must
// land in one group — mirroring exactly the classes types.Value.Key()
// induces. Grouping and predicate pushdown use Equal-class codes;
// materialization uses exact codes. Codes are only meaningful within one
// snapshot: layers comparing keys across snapshots (the incremental
// tracker, cross-table joins) keep using the WriteGroupKey encoding.
package relstore

import (
	"math"
	"sync"
	"sync/atomic"

	"semandaq/internal/schema"
	"semandaq/internal/types"
)

// Column is one attribute's vector in a columnar snapshot: a dense code per
// row plus the dictionary the codes index. All fields are immutable after
// the snapshot is built; a Column is safe for concurrent use.
type Column struct {
	codes []uint32      // per row: exact dictionary code
	dict  []types.Value // exact code -> value (first occurrence wins)
	eq    []uint32      // exact code -> canonical Equal-class code
	// counts and first are the occurrence bookkeeping the delta patcher
	// (patch.go) decides on: counts[c] is how many rows carry exact code c,
	// first[c] the row index of c's first occurrence — the position that
	// fixes c's dictionary slot. Both are maintained by intern and by the
	// patch builders, so a patched column can itself be patched again.
	counts []int32
	first  []int32
	// keys materializes dict[code].Key() lazily (keysOnce): only columns
	// serving as a variable CFD's RHS ever need it, and skipping it at
	// build time saves one string allocation per distinct value on
	// high-cardinality columns.
	keysOnce sync.Once
	keys     []string
	// pli and probe are the column's position list index and per-row
	// Equal-class probe vector (pli.go), built lazily for the CFD miner and
	// shared by every discovery pass over this snapshot. pliClassCode maps a
	// PLI class index to its canonical dictionary code.
	pliOnce      sync.Once
	pli          *Partition
	pliClassCode []uint32
	// pliClassOf inverts pliClassCode: Equal-class canonical code -> PLI
	// class index, -1 for codes that are not an occurring class canonical.
	// Retained so the patcher can route row moves to their classes.
	pliClassOf []int32
	orderOnce  sync.Once
	classOrder []int
	probeOnce  sync.Once
	probe      []uint32
	// The ready flags mirror the sync.Once states above: each is set (with
	// release semantics) after its lazy artifact is built, so the delta
	// patcher can ask "did anyone build this on the previous version?"
	// without racing concurrent builders — a nil answer just means the
	// patched column leaves that artifact lazy too.
	keysReady  atomic.Bool
	pliReady   atomic.Bool
	orderReady atomic.Bool
	probeReady atomic.Bool
	// Interner state, retained so EqCodeOf stays O(1) after the build.
	// Strings, bools, NULL and NaN are their own Equal-classes; only the
	// numeric kinds collapse across each other, via byNumClass (keyed by
	// the int64 that Key() would render — INT payloads and integral
	// FLOATs share a slot, exactly the "d<n>" key class).
	byInt map[int64]uint32  // KindInt
	byFlt map[uint64]uint32 // KindFloat, keyed by Float64bits so -0.0
	// and 0.0 (and distinct NaN payloads) keep distinct exact codes
	byStr      map[string]uint32 // KindString
	byNumClass map[int64]uint32  // integral-number class -> canonical code
	nullCode   int64             // exact code of NULL, -1 if absent
	trueCode   int64             // exact code of TRUE, -1 if absent
	flsCode    int64             // exact code of FALSE, -1 if absent
	nanCode    int64             // canonical Equal-class code of NaN, -1 if absent
}

// newColumn returns an empty column with n rows of capacity.
func newColumn(n int) *Column {
	return &Column{
		codes:      make([]uint32, 0, n),
		byInt:      map[int64]uint32{},
		byFlt:      map[uint64]uint32{},
		byStr:      map[string]uint32{},
		byNumClass: map[int64]uint32{},
		nullCode:   -1,
		trueCode:   -1,
		flsCode:    -1,
		nanCode:    -1,
	}
}

// integralClass reports whether f belongs to an integral-number Equal
// class and which, mirroring the check types.Value.Key() performs.
func integralClass(f float64) (int64, bool) {
	if f == float64(int64(f)) {
		return int64(f), true
	}
	return 0, false
}

// intern appends v's exact code for the next row, growing the dictionary on
// first occurrence.
func (c *Column) intern(v types.Value) {
	var (
		code uint32
		ok   bool
	)
	switch v.Kind() {
	case types.KindNull:
		if c.nullCode >= 0 {
			code, ok = uint32(c.nullCode), true
		}
	case types.KindBool:
		if v.Bool() {
			if c.trueCode >= 0 {
				code, ok = uint32(c.trueCode), true
			}
		} else if c.flsCode >= 0 {
			code, ok = uint32(c.flsCode), true
		}
	case types.KindInt:
		code, ok = c.byInt[v.Int()]
	case types.KindFloat:
		code, ok = c.byFlt[math.Float64bits(v.Float())]
	case types.KindString:
		code, ok = c.byStr[v.Str()]
	}
	if !ok {
		code = c.addEntry(v)
	}
	c.counts[code]++
	c.codes = append(c.codes, code)
}

// exactCode looks v's exact dictionary code up without interning: ok is
// false when no stored value has v's exact (kind, payload) identity, even
// if an Equal value exists. This is the read-only face of intern's lookup,
// used by the patcher's guard checks.
func (c *Column) exactCode(v types.Value) (uint32, bool) {
	switch v.Kind() {
	case types.KindNull:
		if c.nullCode >= 0 {
			return uint32(c.nullCode), true
		}
	case types.KindBool:
		if v.Bool() {
			if c.trueCode >= 0 {
				return uint32(c.trueCode), true
			}
		} else if c.flsCode >= 0 {
			return uint32(c.flsCode), true
		}
	case types.KindInt:
		code, ok := c.byInt[v.Int()]
		return code, ok
	case types.KindFloat:
		code, ok := c.byFlt[math.Float64bits(v.Float())]
		return code, ok
	case types.KindString:
		code, ok := c.byStr[v.Str()]
		return code, ok
	}
	return 0, false
}

// exactEqual reports whether two values share their exact (kind, payload)
// representation — stricter than Equal, which collapses INT 1 / FLOAT 1.0
// and all NaNs. The patcher compares exactly: representation changes move
// dictionary entries even when the values are Equal.
func exactEqual(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case types.KindNull:
		return true
	case types.KindBool:
		return a.Bool() == b.Bool()
	case types.KindInt:
		return a.Int() == b.Int()
	case types.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case types.KindString:
		return a.Str() == b.Str()
	}
	return false
}

// addEntry registers a new dictionary entry and returns its code.
func (c *Column) addEntry(v types.Value) uint32 {
	code := uint32(len(c.dict))
	c.dict = append(c.dict, v)
	c.counts = append(c.counts, 0)
	c.first = append(c.first, int32(len(c.codes)))
	// Canonical Equal-class code: entries are their own class except
	// integral numbers, where INT n and FLOAT n share the "d<n>" key
	// class and the first occurrence wins.
	canon := code
	switch v.Kind() {
	case types.KindNull:
		c.nullCode = int64(code)
	case types.KindBool:
		if v.Bool() {
			c.trueCode = int64(code)
		} else {
			c.flsCode = int64(code)
		}
	case types.KindInt:
		c.byInt[v.Int()] = code
		if first, seen := c.byNumClass[v.Int()]; seen {
			canon = first
		} else {
			c.byNumClass[v.Int()] = code
		}
	case types.KindFloat:
		f := v.Float()
		c.byFlt[math.Float64bits(f)] = code
		switch {
		case math.IsNaN(f):
			// All NaNs are Equal (types.Value.Compare), whatever their
			// payload bits: the first one becomes the class canonical.
			if c.nanCode >= 0 {
				canon = uint32(c.nanCode)
			} else {
				c.nanCode = int64(code)
			}
		default:
			if k, integral := integralClass(f); integral {
				if first, seen := c.byNumClass[k]; seen {
					canon = first
				} else {
					c.byNumClass[k] = code
				}
			}
		}
	case types.KindString:
		c.byStr[v.Str()] = code
	}
	c.eq = append(c.eq, canon)
	return code
}

// forget removes entry code (holding v) from the interner state, the
// inverse of addEntry for a trailing entry no row carries any more. The
// caller owns the lookup maps and truncates the dictionary slices itself.
func (c *Column) forget(code uint32, v types.Value) {
	switch v.Kind() {
	case types.KindNull:
		c.nullCode = -1
	case types.KindBool:
		if v.Bool() {
			c.trueCode = -1
		} else {
			c.flsCode = -1
		}
	case types.KindInt:
		delete(c.byInt, v.Int())
		if c.byNumClass[v.Int()] == code {
			delete(c.byNumClass, v.Int())
		}
	case types.KindFloat:
		f := v.Float()
		delete(c.byFlt, math.Float64bits(f))
		if math.IsNaN(f) {
			if c.nanCode == int64(code) {
				c.nanCode = -1
			}
		} else if k, integral := integralClass(f); integral && c.byNumClass[k] == code {
			delete(c.byNumClass, k)
		}
	case types.KindString:
		delete(c.byStr, v.Str())
	}
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return len(c.codes) }

// Card returns the dictionary cardinality (distinct exact values).
func (c *Column) Card() int { return len(c.dict) }

// Code returns row i's exact dictionary code.
func (c *Column) Code(i int) uint32 { return c.codes[i] }

// Codes returns the full exact-code vector. The slice is the snapshot's
// backing storage: callers must not mutate it.
func (c *Column) Codes() []uint32 { return c.codes }

// EqCode returns row i's Equal-class code: two rows have the same EqCode
// iff their values are Equal under the types.Value model.
func (c *Column) EqCode(i int) uint32 { return c.eq[c.codes[i]] }

// EqOf maps an exact code to its Equal-class code.
func (c *Column) EqOf(code uint32) uint32 { return c.eq[code] }

// Value returns the dictionary value for an exact code.
func (c *Column) Value(code uint32) types.Value { return c.dict[code] }

// EnsureKeys materializes the per-code Key() table; callers that will sit
// in a loop over KeyOf should invoke it once up front.
func (c *Column) EnsureKeys() {
	c.keysOnce.Do(func() {
		keys := make([]string, len(c.dict))
		for i, v := range c.dict {
			keys[i] = v.Key()
		}
		c.keys = keys
		c.keysReady.Store(true)
	})
}

// KeyOf returns the precomputed Key() string for an exact code. Codes in
// one Equal-class share the key's content, so the result can stand in for
// row-value Key() calls in grouping maps.
func (c *Column) KeyOf(code uint32) string {
	c.EnsureKeys()
	return c.keys[code]
}

// EqCodeOf resolves an arbitrary value (a pattern constant, a WHERE
// literal) to its Equal-class code in this column, reporting whether any
// stored value Equals it. A false report means no row of the column can
// ever compare equal to v.
func (c *Column) EqCodeOf(v types.Value) (uint32, bool) {
	switch v.Kind() {
	case types.KindNull:
		if c.nullCode >= 0 {
			return uint32(c.nullCode), true
		}
	case types.KindBool:
		if v.Bool() {
			if c.trueCode >= 0 {
				return uint32(c.trueCode), true
			}
		} else if c.flsCode >= 0 {
			return uint32(c.flsCode), true
		}
	case types.KindInt:
		if code, ok := c.byNumClass[v.Int()]; ok {
			return code, true
		}
	case types.KindFloat:
		f := v.Float()
		if math.IsNaN(f) {
			if c.nanCode >= 0 {
				return uint32(c.nanCode), true
			}
			return 0, false
		}
		if k, integral := integralClass(f); integral {
			if code, ok := c.byNumClass[k]; ok {
				return code, true
			}
			return 0, false
		}
		if code, ok := c.byFlt[math.Float64bits(f)]; ok {
			return c.eq[code], true
		}
	case types.KindString:
		if code, ok := c.byStr[v.Str()]; ok {
			return code, true
		}
	}
	return 0, false
}

// NullCode returns the Equal-class (= exact) code of NULL and whether the
// column contains any NULLs.
func (c *Column) NullCode() (uint32, bool) {
	if c.nullCode < 0 {
		return 0, false
	}
	return uint32(c.nullCode), true
}

// Columnar is an immutable columnar snapshot of a table: the live tuples in
// insertion order, decomposed into per-attribute Columns. Snapshots are
// built by Table.Columnar and shared by every reader of the same table
// version; all methods are safe for concurrent use.
type Columnar struct {
	schema  *schema.Relation
	version int64
	ids     []TupleID
	cols    []*Column
}

// Schema returns the snapshot's relation schema.
func (c *Columnar) Schema() *schema.Relation { return c.schema }

// Version returns the table version the snapshot was built from.
func (c *Columnar) Version() int64 { return c.version }

// Len returns the number of rows.
func (c *Columnar) Len() int { return len(c.ids) }

// IDs returns the tuple IDs in insertion order. The slice is the snapshot's
// backing storage: callers must not mutate it.
func (c *Columnar) IDs() []TupleID { return c.ids }

// Col returns the column at schema position pos.
func (c *Columnar) Col(pos int) *Column { return c.cols[pos] }

// NumCols returns the number of columns (the schema arity).
func (c *Columnar) NumCols() int { return len(c.cols) }

// Row materializes row i as a fresh Tuple, bit-identical to the stored row
// (exact codes round-trip the original values).
func (c *Columnar) Row(i int) Tuple {
	row := make(Tuple, len(c.cols))
	for j, col := range c.cols {
		row[j] = col.dict[col.codes[i]]
	}
	return row
}

// Table.Columnar lives in snapshot.go: the columnar view is built lazily
// from the table's pinned row Snapshot, so both views of one version share
// ids, rows and the version stamp.
