package repair

import (
	"slices"

	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// winnerHists memoises, for one repair run, the histogram of one attribute
// over one winner group's members: what planBreak reads to find the value a
// LHS cell must take to move a tuple into the winner's context. A memo is
// valid until the run writes another cell of its attribute (wrote bumps a
// per-attribute counter), so planBreak calls between such writes cost
// O(distinct values) instead of a rescan of the winner group, and a memo
// never misses a write.
type winnerHists struct {
	hists  map[histKey]*attrHist
	writes map[int]int // cell writes per schema position so far this run
}

type histKey struct {
	g   *detect.Group
	pos int
}

// attrHist counts a group's members per value key of one attribute. Key()
// folds INT 1 and FLOAT 1.0 together, yet planBreak must propose the exact
// value of the last member (in member order) holding the winning key, so
// last keeps it per key.
type attrHist struct {
	sorted []relstore.TupleID // members, ascending, for membership tests
	counts map[string]int
	last   map[string]types.Value
	stamp  int // writes[pos] when built
}

func newWinnerHists() *winnerHists {
	return &winnerHists{hists: map[histKey]*attrHist{}, writes: map[int]int{}}
}

// wrote records a cell write of attribute pos in the run's table.
func (w *winnerHists) wrote(pos int) { w.writes[pos]++ }

// hist returns g's histogram of attribute pos at the table's current state.
func (w *winnerHists) hist(work *relstore.Table, g *detect.Group, pos int) *attrHist {
	k := histKey{g, pos}
	if h := w.hists[k]; h != nil && h.stamp == w.writes[pos] {
		return h
	}
	h := &attrHist{
		sorted: g.Members,
		counts: map[string]int{},
		last:   map[string]types.Value{},
		stamp:  w.writes[pos],
	}
	if !slices.IsSorted(h.sorted) {
		h.sorted = slices.Sorted(slices.Values(g.Members))
	}
	for _, id := range g.Members {
		if row, ok := work.Row(id); ok {
			key := row[pos].Key()
			h.counts[key]++
			h.last[key] = row[pos]
		}
	}
	w.hists[k] = h
	return h
}

// majority returns the most frequent value among the members other than
// id (whose current value is own), ties broken by the smaller key, as the
// last member in member order holding that key has it; false when no other
// member remains. That last member may be id itself only when the winning
// key is own's, and then the caller discards the value as Equal to own.
func (h *attrHist) majority(id relstore.TupleID, own types.Value) (types.Value, bool) {
	ownKey := ""
	if _, isMember := slices.BinarySearch(h.sorted, id); isMember {
		ownKey = own.Key() // keys are never empty
	}
	bestKey, bestN := "", 0
	for k, n := range h.counts {
		if k == ownKey {
			n--
		}
		if n > bestN || (n == bestN && n > 0 && k < bestKey) {
			bestKey, bestN = k, n
		}
	}
	if bestN == 0 {
		return types.Value{}, false
	}
	return h.last[bestKey], true
}
