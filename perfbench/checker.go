package main

import (
	"fmt"
	"sort"
)

// The checker is the benchmark's definition-level reference. It keeps its
// own copy of the rows, applies the writes the benchmark sends, and
// computes vio(t), the dirty tuples and the violation totals straight from
// the CFD semantics by brute-force grouping, sharing no code with the
// program under test:
//
//   - a tuple matching a constant-RHS pattern's LHS whose RHS differs is a
//     single-tuple violation; vio(t) gains 1 per such CFD;
//   - tuples matching a wildcard-RHS pattern's LHS that agree on the LHS
//     but not on the RHS form a dirty group; each member is one
//     multi-tuple violation and vio(t) gains the number of members whose
//     RHS differs from t's.

// rule is one CFD with a single RHS attribute; an empty pattern cell is
// the wildcard.
type rule struct {
	id       string
	lhs      []int
	rhs      int
	patterns []pattern
}

type pattern struct {
	lhs []string
	rhs string
}

func rulesFor(text string) []rule {
	rules := []rule{
		{"phi1", []int{aCNT, aZIP}, aCITY, []pattern{{[]string{"", ""}, ""}}},
		{"phi2", []int{aCNT, aZIP}, aSTR, []pattern{{[]string{"UK", ""}, ""}}},
		{"phi3", []int{aCC}, aCNT, []pattern{{[]string{"44"}, "UK"}, {[]string{"1"}, "US"}}},
	}
	if text == cfdsFull {
		rules = append(rules, rule{"phi4", []int{aCNT, aAC}, aCITY, []pattern{{[]string{"", ""}, ""}}})
	}
	return rules
}

// Stat is one CFD's statistics, as the server reports them.
type Stat struct {
	SingleTuple int `json:"singleTuple"`
	MultiTuple  int `json:"multiTuple"`
	Groups      int `json:"groups"`
}

// vkey identifies one violation record: extra is the pattern index of a
// single-tuple violation and the partner count of a multi-tuple one.
type vkey struct {
	cfd    string
	single bool
	tuple  int64
	extra  int
}

// Expected is the checker's answer for one table state.
type Expected struct {
	Tuples     int
	Vio        map[int64]int
	Violations int
	Groups     int
	MaxVio     int
	// AuditDirty counts the tuples the audit classifies dirty: a tuple
	// with a violation that has a single-tuple violation, or that is not
	// in the strict majority of every dirty group it belongs to.
	AuditDirty int
	PerCFD     map[string]Stat
	// Records counts every violation record, for stream checks.
	Records map[vkey]int
}

// Dirty returns the number of tuples with vio(t) > 0.
func (e *Expected) Dirty() int { return len(e.Vio) }

// TotalVio returns the sum of vio(t).
func (e *Expected) TotalVio() int {
	n := 0
	for _, v := range e.Vio {
		n += v
	}
	return n
}

// Checker holds its own copy of the table.
type Checker struct {
	rules []rule
	ids   []int64
	rows  [][arity]string
	pos   map[int64]int
	// Version is the table version the last write returned; every read
	// must be stamped with it.
	Version int64
}

// NewChecker copies the generated rows, which the server numbers from
// firstID in CSV order.
func NewChecker(cfdText string, rows [][arity]string, firstID int64) *Checker {
	c := &Checker{rules: rulesFor(cfdText), pos: make(map[int64]int, len(rows))}
	c.rows = append([][arity]string(nil), rows...)
	c.ids = make([]int64, len(rows))
	for i := range rows {
		c.ids[i] = firstID + int64(i)
		c.pos[c.ids[i]] = i
	}
	return c
}

// Len returns the live tuple count.
func (c *Checker) Len() int { return len(c.rows) }

// Row returns a live row.
func (c *Checker) Row(id int64) ([arity]string, bool) {
	i, ok := c.pos[id]
	if !ok {
		return [arity]string{}, false
	}
	return c.rows[i], true
}

// Set changes one cell.
func (c *Checker) Set(id int64, attr int, v string) error {
	i, ok := c.pos[id]
	if !ok {
		return fmt.Errorf("checker: set on missing tuple %d", id)
	}
	c.rows[i][attr] = v
	return nil
}

// Insert adds a row under the id the server assigned.
func (c *Checker) Insert(id int64, row [arity]string) error {
	if _, dup := c.pos[id]; dup {
		return fmt.Errorf("checker: server reused tuple id %d", id)
	}
	c.pos[id] = len(c.rows)
	c.ids = append(c.ids, id)
	c.rows = append(c.rows, row)
	return nil
}

// Delete removes a row.
func (c *Checker) Delete(id int64) error {
	i, ok := c.pos[id]
	if !ok {
		return fmt.Errorf("checker: delete of missing tuple %d", id)
	}
	last := len(c.rows) - 1
	c.rows[i], c.ids[i] = c.rows[last], c.ids[last]
	c.pos[c.ids[i]] = i
	c.rows, c.ids = c.rows[:last], c.ids[:last]
	delete(c.pos, id)
	return nil
}

func matches(p pattern, row *[arity]string, lhs []int) bool {
	for k, a := range lhs {
		if p.lhs[k] != "" && p.lhs[k] != row[a] {
			return false
		}
	}
	return true
}

// Expect computes the reference answer for the current rows; records
// selects whether the per-violation records are built too.
func (c *Checker) Expect(records bool) *Expected {
	e := &Expected{Tuples: len(c.rows), Vio: map[int64]int{}, PerCFD: map[string]Stat{}}
	// arguable marks group members in the strict majority of every dirty
	// group they are in; false marks a tuple the audit calls dirty.
	arguable := map[int64]bool{}
	if records {
		e.Records = map[vkey]int{}
	}
	for _, r := range c.rules {
		var st Stat
		var wild []pattern
		for _, p := range r.patterns {
			if p.rhs == "" {
				wild = append(wild, p)
			}
		}
		// Single-tuple violations.
		for i := range c.rows {
			row := &c.rows[i]
			fired := false
			for pi, p := range r.patterns {
				if p.rhs == "" || !matches(p, row, r.lhs) || row[r.rhs] == p.rhs {
					continue
				}
				fired = true
				e.Violations++
				if records {
					e.Records[vkey{r.id, true, c.ids[i], pi}]++
				}
			}
			if fired {
				st.SingleTuple++
				e.Vio[c.ids[i]]++
				arguable[c.ids[i]] = false
			}
		}
		// Multi-tuple violations: group the in-scope tuples on the LHS.
		if len(wild) > 0 {
			groups := map[string][]int{}
			for i := range c.rows {
				row := &c.rows[i]
				in := false
				for _, p := range wild {
					if matches(p, row, r.lhs) {
						in = true
						break
					}
				}
				if !in {
					continue
				}
				key := ""
				for _, a := range r.lhs {
					key += row[a] + "\x00"
				}
				groups[key] = append(groups[key], i)
			}
			for _, members := range groups {
				counts := map[string]int{}
				for _, i := range members {
					counts[c.rows[i][r.rhs]]++
				}
				if len(counts) < 2 {
					continue
				}
				st.Groups++
				for _, i := range members {
					partners := len(members) - counts[c.rows[i][r.rhs]]
					id := c.ids[i]
					if ok, seen := arguable[id]; !seen || ok {
						arguable[id] = 2*counts[c.rows[i][r.rhs]] > len(members)
					}
					st.MultiTuple++
					e.Violations++
					e.Vio[c.ids[i]] += partners
					if records {
						e.Records[vkey{r.id, false, c.ids[i], partners}]++
					}
				}
			}
		}
		e.Groups += st.Groups
		e.PerCFD[r.id] = st
	}
	for id, v := range e.Vio {
		e.MaxVio = max(e.MaxVio, v)
		if !arguable[id] {
			e.AuditDirty++
		}
	}
	return e
}

// cleanZips lists the zips no rule flags in the current rows, sorted; rows
// inserted into them stay clean, so inserts do not move the dirty share.
func (c *Checker) cleanZips(ds *Dataset) []string {
	e := c.Expect(false)
	bad := map[string]bool{}
	for id := range e.Vio {
		row, _ := c.Row(id)
		bad[row[aZIP]] = true
	}
	var out []string
	for _, zs := range ds.zips {
		for _, z := range zs {
			if !bad[z] {
				out = append(out, z)
			}
		}
	}
	sort.Strings(out)
	return out
}
