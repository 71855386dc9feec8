package repair

import (
	"sort"
	"strings"

	"semandaq/internal/cfd"
	"semandaq/internal/detect"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// IncRepairer implements the incremental repair of the VLDB 2007 paper
// (IncRepair): given a table that is already clean and a batch of fresh
// tuples ΔI, it restores consistency by modifying only the tuples of ΔI —
// the cleaned data is trusted and stays untouched. Semandaq's data monitor
// invokes it when updates arrive after cleansing.
//
// With many interacting CFDs (e.g. a discovered set), per-rule local fixes
// can tug a tuple in circles. IncRepair therefore resolves each tuple by
// EVIDENCE VOTING: every violated constant pattern and every violating
// group with a trusted majority proposes a (cell := value) fix, equal
// proposals accumulate votes, and the best-corroborated fix is applied —
// one per tuple per pass. A proposal that would revert an earlier change is
// handled by the same cost-from-original arbitration as BatchRepair,
// repairing a LHS cell to break the losing group membership instead.
type IncRepairer struct {
	Cost CostModel
	// MaxPasses caps the per-delta fixpoint. Default 15.
	MaxPasses int
}

// NewIncRepairer builds an incremental repairer with defaults.
func NewIncRepairer() *IncRepairer {
	return &IncRepairer{Cost: DefaultCostModel(), MaxPasses: 15}
}

// proposal is one candidate fix for a delta tuple.
type proposal struct {
	attr  string
	val   types.Value
	votes int
	cost  float64
	group *detect.Group // strongest group backing it (nil: constants only)
	cfdID string
}

// RepairDelta repairs the tuples in delta against the CFDs, in place,
// using the tracker's violation index (the tracker must wrap tab). Only
// delta tuples are modified. It returns the modifications applied.
func (ir *IncRepairer) RepairDelta(tr *detect.Tracker, tab *relstore.Table, cfds []*cfd.CFD, delta []relstore.TupleID) ([]Modification, error) {
	maxPasses := ir.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 15
	}
	inDelta := make(map[relstore.TupleID]bool, len(delta))
	for _, id := range delta {
		inDelta[id] = true
	}
	sc := tab.Schema()
	var mods []Modification
	// history: every value each delta cell has held during this run.
	history := map[cellKey][]types.Value{}
	lastGroup := map[cellKey]*detect.Group{}
	hists := newWinnerHists()

	held := func(ck cellKey, v types.Value) bool {
		for _, x := range history[ck] {
			if x.Equal(v) {
				return true
			}
		}
		return false
	}

	set := func(id relstore.TupleID, attr string, val types.Value, g *detect.Group, cfdID, reason string) error {
		pos := sc.MustPos(attr)
		row, ok := tab.Row(id)
		if !ok || row[pos].Equal(val) {
			return nil
		}
		old := row[pos]
		ck := cellKey{id, strings.ToLower(attr)}
		if len(history[ck]) == 0 {
			history[ck] = append(history[ck], old)
		}
		if _, err := tr.SetCell(id, attr, val); err != nil {
			return err
		}
		hists.wrote(pos)
		history[ck] = append(history[ck], val)
		lastGroup[ck] = g
		mods = append(mods, Modification{
			TupleID: id, Attr: attr, Old: old, New: val,
			Cost: ir.Cost.Cost(id, attr, old, val), CFDID: cfdID, Reason: reason,
		})
		return nil
	}

	for pass := 0; pass < maxPasses; pass++ {
		rep := tr.Report()
		before := len(mods)

		// Gather proposals per delta tuple.
		props := map[relstore.TupleID]map[string]*proposal{} // key: attr|valKey
		add := func(id relstore.TupleID, attr string, val types.Value, g *detect.Group, cfdID string) {
			row, ok := tab.Row(id)
			if !ok {
				return
			}
			pos := sc.MustPos(attr)
			if row[pos].Equal(val) {
				return
			}
			m := props[id]
			if m == nil {
				m = map[string]*proposal{}
				props[id] = m
			}
			key := strings.ToLower(attr) + "|" + val.Key()
			p := m[key]
			if p == nil {
				p = &proposal{attr: attr, val: val,
					cost:  ir.Cost.Cost(id, attr, row[pos], val),
					cfdID: cfdID}
				m[key] = p
			}
			p.votes++
			if g != nil && (p.group == nil || len(g.Members) > len(p.group.Members)) {
				p.group = g
			}
		}

		// Constant-pattern violations vote for the pattern constant.
		for _, v := range rep.Violations {
			if v.Kind != detect.SingleTuple || !inDelta[v.TupleID] {
				continue
			}
			add(v.TupleID, v.Attr, v.Expected, nil, v.CFDID)
		}
		// Violating groups vote: fixed-majority value for delta members,
		// or the cheapest merge value for all-delta groups.
		for _, g := range rep.Groups {
			pos := sc.MustPos(g.Attr)
			var deltaMembers, fixedMembers []relstore.TupleID
			for _, id := range g.Members {
				if inDelta[id] {
					deltaMembers = append(deltaMembers, id)
				} else {
					fixedMembers = append(fixedMembers, id)
				}
			}
			if len(deltaMembers) == 0 {
				continue // pre-existing conflict among trusted tuples
			}
			var target types.Value
			ok := false
			if len(fixedMembers) > 0 {
				target, ok = majorityValue(tab, fixedMembers, pos)
			} else {
				target, ok = cheapestMerge(ir.Cost, tab, deltaMembers, g.Attr, pos)
			}
			if !ok {
				continue
			}
			for _, id := range deltaMembers {
				add(id, g.Attr, target, g, g.CFDID)
			}
		}

		// Apply the best-corroborated proposal per tuple.
		ids := make([]relstore.TupleID, 0, len(props))
		for id := range props {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			var list []*proposal
			for _, p := range props[id] {
				list = append(list, p)
			}
			sort.SliceStable(list, func(i, j int) bool {
				if list[i].votes != list[j].votes {
					return list[i].votes > list[j].votes
				}
				if list[i].cost != list[j].cost {
					return list[i].cost < list[j].cost
				}
				if !list[i].val.Equal(list[j].val) {
					return list[i].val.Key() < list[j].val.Key()
				}
				return list[i].attr < list[j].attr
			})
			applied := false
			for _, p := range list {
				ck := cellKey{id, strings.ToLower(p.attr)}
				if !held(ck, p.val) {
					if err := set(id, p.attr, p.val, p.group, p.cfdID, "inc: "+reasonOf(p)); err != nil {
						return nil, err
					}
					applied = true
					break
				}
			}
			if applied {
				continue
			}
			// Every proposal reverts an earlier change: oscillation.
			// Arbitrate the top proposal against the cell's current state
			// by total cost from the original value; the loser's group
			// membership is broken via a LHS cell (as in BatchRepair).
			p := list[0]
			ck := cellKey{id, strings.ToLower(p.attr)}
			orig := history[ck][0]
			prev := lastGroup[ck]
			row, ok := tab.Row(id)
			if !ok {
				continue
			}
			pos := sc.MustPos(p.attr)
			const unbreakable = 1e9
			costKeep := ir.Cost.Cost(id, p.attr, orig, row[pos])
			breakKeep := planBreak(ir.Cost, tab, hists, id, p.group, prev)
			if breakKeep == nil {
				costKeep += unbreakable
			} else {
				costKeep += breakKeep.cost
			}
			costApply := ir.Cost.Cost(id, p.attr, orig, p.val)
			breakApply := planBreak(ir.Cost, tab, hists, id, prev, p.group)
			if breakApply == nil {
				costApply += unbreakable
			} else {
				costApply += breakApply.cost
			}
			if costKeep <= costApply {
				if breakKeep != nil {
					ck2 := cellKey{id, strings.ToLower(breakKeep.attr)}
					if !held(ck2, breakKeep.val) {
						if err := set(id, breakKeep.attr, breakKeep.val, prev, p.cfdID,
							"inc: break membership via "+breakKeep.attr); err != nil {
							return nil, err
						}
					}
				}
				continue
			}
			if err := set(id, p.attr, p.val, p.group, p.cfdID, "inc: arbitrated merge"); err != nil {
				return nil, err
			}
			if breakApply != nil {
				ck2 := cellKey{id, strings.ToLower(breakApply.attr)}
				if !held(ck2, breakApply.val) {
					if err := set(id, breakApply.attr, breakApply.val, p.group, p.cfdID,
						"inc: break membership via "+breakApply.attr); err != nil {
						return nil, err
					}
				}
			}
		}

		if len(mods) == before {
			break
		}
	}
	return mods, nil
}

func reasonOf(p *proposal) string {
	if p.group != nil {
		return "align with clean data"
	}
	return "constant pattern"
}

// majorityValue returns the most frequent value of the given cell position
// among the listed tuples (ties broken by value key).
func majorityValue(tab *relstore.Table, ids []relstore.TupleID, pos int) (types.Value, bool) {
	counts := map[string]int{}
	rep := map[string]types.Value{}
	for _, id := range ids {
		row, ok := tab.Row(id)
		if !ok {
			continue
		}
		k := row[pos].Key()
		counts[k]++
		rep[k] = row[pos]
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bestN := 0
	var best types.Value
	for _, k := range keys {
		if counts[k] > bestN {
			bestN = counts[k]
			best = rep[k]
		}
	}
	return best, bestN > 0
}

// cheapestMerge returns the value among the members' current values that
// minimizes the total change cost.
func cheapestMerge(cost CostModel, tab *relstore.Table, ids []relstore.TupleID, attr string, pos int) (types.Value, bool) {
	vals := map[relstore.TupleID]types.Value{}
	var distinct []types.Value
	seen := map[string]bool{}
	for _, id := range ids {
		row, ok := tab.Row(id)
		if !ok {
			continue
		}
		vals[id] = row[pos]
		if !seen[row[pos].Key()] {
			seen[row[pos].Key()] = true
			distinct = append(distinct, row[pos])
		}
	}
	bestCost := -1.0
	var best types.Value
	for _, cand := range distinct {
		total := 0.0
		for _, id := range ids {
			total += cost.Cost(id, attr, vals[id], cand)
		}
		if bestCost < 0 || total < bestCost ||
			(total == bestCost && cand.Key() < best.Key()) {
			best, bestCost = cand, total
		}
	}
	return best, bestCost >= 0
}
