// Factorised violation reports: the PLI partitions the columnar layer
// already maintains *are* a factorised representation of the relation, so
// multi-tuple violations don't need exploding into per-tuple rows and
// per-member maps to be reported. A FactorGroup carries the group's row
// refs (on the common all-wildcard path a zero-copy alias of the LHS
// partition class) plus an RHS histogram; everything per-member — the
// member's RHS key, its partner count, its Violation row — is derivable
// in O(1) from the columnar dictionaries, so reporting a 10k-member dirty
// group allocates O(distinct RHS values), not O(members).
//
// The factorised report is the primary form; Explode() lowers it to the
// exact legacy Report (byte-identity is the oracle, enforced by the fuzz
// and cross-check tiers), and WriteNDJSON streams it one group per line
// without ever materializing members. Audit and repair consume the
// factorised form directly (AuditFactorised, repair.Repairer); calling
// Explode() inside those hot paths is forbidden by the noexplode vet
// analyzer.
package detect

import (
	"context"
	"encoding/json"
	"io"
	"sort"

	"semandaq/internal/cfd"
	"semandaq/internal/relstore"
	"semandaq/internal/types"
)

// FactorGroup is one multi-tuple violation group in factorised form: the
// rows sharing an LHS value (a partition class), the histogram of their
// RHS value keys, and the column refs needed to resolve any member's RHS
// lazily. It carries no per-member maps.
type FactorGroup struct {
	CFDID string
	// Attr is the RHS attribute the group disagrees on.
	Attr string
	// LHSAttrs names the embedded FD's LHS attributes (parallel to
	// LHSValues).
	LHSAttrs []string
	// LHSValues is the shared LHS value vector (exact values of the first
	// member, matching the legacy Group contract).
	LHSValues []types.Value
	// Rows lists the members as ascending snapshot row indexes. On the
	// all-wildcard fast path this aliases the LHS partition class's
	// backing storage — callers must not mutate it.
	Rows []int32
	// RHSCounts counts members per RHS value key; MajorityKey is the key
	// of the largest sub-group (ties broken by key order).
	RHSCounts   map[string]int
	MajorityKey string

	rhsCol *relstore.Column
	ids    []relstore.TupleID
}

// Size returns the member count.
func (g *FactorGroup) Size() int { return len(g.Rows) }

// MajoritySize returns the size of the largest agreeing sub-group.
func (g *FactorGroup) MajoritySize() int { return g.RHSCounts[g.MajorityKey] }

// MemberAt returns the i-th member's tuple ID.
func (g *FactorGroup) MemberAt(i int) relstore.TupleID { return g.ids[g.Rows[i]] }

// RHSKeyAt returns the i-th member's RHS value key, resolved from the
// columnar dictionary in O(1) — the factorised replacement for the legacy
// RHSOf map.
func (g *FactorGroup) RHSKeyAt(i int) string {
	return g.rhsCol.KeyOf(g.rhsCol.Code(int(g.Rows[i])))
}

// PartnersAt returns the i-th member's vio(t) increment: the number of
// members disagreeing with it.
func (g *FactorGroup) PartnersAt(i int) int {
	return len(g.Rows) - g.RHSCounts[g.RHSKeyAt(i)]
}

// Members materializes the member tuple IDs, in snapshot order.
func (g *FactorGroup) Members() []relstore.TupleID {
	return g.AppendMembers(make([]relstore.TupleID, 0, len(g.Rows)))
}

// AppendMembers appends the member tuple IDs to dst (the allocation-free
// form for consumers reusing a buffer across groups).
func (g *FactorGroup) AppendMembers(dst []relstore.TupleID) []relstore.TupleID {
	for _, r := range g.Rows {
		dst = append(dst, g.ids[r])
	}
	return dst
}

// FactorReport is the factorised detection result: single-tuple
// violations stay explicit (they are one row each by nature), multi-tuple
// violations are factorised into FactorGroups. PerCFD statistics match
// the legacy report's exactly. Ordering is deterministic: violations in
// the legacy sort order, groups by (CFDID, LHS key) — the same order
// finish() gives the exploded report.
type FactorReport struct {
	Table      string
	TupleCount int
	// Version is the pinned snapshot version the report describes.
	Version    int64
	Violations []Violation
	PerCFD     map[string]*CFDStats
	FactorGroups []*FactorGroup
}

// DirtyGroups returns the number of factor groups.
func (fr *FactorReport) DirtyGroups() int { return len(fr.FactorGroups) }

// DetectFactorised evaluates the CFDs over one pinned snapshot and
// returns the factorised report. CFDs whose variable patterns include an
// all-wildcard row (plain FDs — the common case, and everything
// discovery's variable lattice emits globally) group through the LHS
// columns' cached PLI partitions: the group rows are partition classes,
// zero-copy, and only the RHS histogram is computed per class. Patterns
// with LHS constants fall back to a code-filtered scan. Either way no
// per-member map or per-member violation row is built.
func DetectFactorised(ctx context.Context, rsnap *relstore.Snapshot, cfds []*cfd.CFD) (*FactorReport, error) {
	preps, err := prepare(rsnap.Schema(), cfds)
	if err != nil {
		return nil, err
	}
	snap := rsnap.Columnar()
	fr := &FactorReport{
		Table:      snap.Schema().Name,
		TupleCount: snap.Len(),
		Version:    snap.Version(),
		PerCFD:     make(map[string]*CFDStats),
	}
	ids := snap.IDs()
	for i := range preps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cp := newColPrep(preps[i], snap)
		st := &CFDStats{}
		fr.PerCFD[cp.p.c.ID] = st
		if len(cp.constPats) > 0 {
			if err := factorConstScan(ctx, &cp, ids, fr, st); err != nil {
				return nil, err
			}
		}
		if len(cp.varPats) == 0 {
			continue
		}
		if hasAllWildcardVar(&cp) {
			err = factorFromPartitions(ctx, snap, &cp, ids, fr, st)
		} else {
			err = factorFromScan(ctx, &cp, ids, fr, st)
		}
		if err != nil {
			return nil, err
		}
	}
	sortViolations(fr.Violations)
	sort.Slice(fr.FactorGroups, func(i, j int) bool {
		a, b := fr.FactorGroups[i], fr.FactorGroups[j]
		if a.CFDID != b.CFDID {
			return a.CFDID < b.CFDID
		}
		return lhsKey(a.LHSValues) < lhsKey(b.LHSValues)
	})
	return fr, nil
}

// factorConstScan finds the single-tuple violations for one CFD — the
// same code-filtered scan the columnar detector runs.
func factorConstScan(ctx context.Context, cp *colPrep, ids []relstore.TupleID,
	fr *FactorReport, st *CFDStats) error {
	for idx := range ids {
		if idx%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		var fired bool
		fr.Violations, fired = appendConstViolationsColumnar(fr.Violations, cp, idx, ids[idx])
		if fired {
			st.SingleTuple++
		}
	}
	return nil
}

// hasAllWildcardVar reports whether some variable pattern's LHS is all
// wildcards — then every row matches the variable side and grouping is
// exactly the LHS partition.
func hasAllWildcardVar(cp *colPrep) bool {
	for pi := range cp.varPats {
		pat := &cp.varPats[pi]
		if pat.dead {
			continue
		}
		all := true
		for k := range pat.lhs {
			if !pat.lhs[k].wild {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// factorFromPartitions is the fast path: the LHS partition (the first LHS
// column's cached PLI, refined by Intersect per further attribute) is the
// grouping — each multi-row class is a candidate group whose rows are
// emitted by reference.
func factorFromPartitions(ctx context.Context, snap *relstore.Columnar, cp *colPrep,
	ids []relstore.TupleID, fr *FactorReport, st *CFDStats) error {
	part := cp.lhsCols[0].PLI()
	for _, col := range cp.lhsCols[1:] {
		if err := ctx.Err(); err != nil {
			return err
		}
		part = part.Intersect(col.EqProbe())
	}
	codeCounts := make(map[uint32]int, 8)
	seen := 0
	for c := 0; c < part.NumClasses(); c++ {
		rows := part.Class(c)
		if len(rows) < 2 {
			continue
		}
		if seen += len(rows); seen >= cancelStride {
			seen = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		emitFactorGroup(cp, rows, codeCounts, ids, fr, st)
	}
	return nil
}

// factorFromScan is the fallback for variable patterns with LHS
// constants: a code-filtered scan routes matching rows into per-LHS-class
// row lists (no per-member maps), then each list factorises like a
// partition class.
func factorFromScan(ctx context.Context, cp *colPrep, ids []relstore.TupleID,
	fr *FactorReport, st *CFDStats) error {
	rowsByClass := map[string][]int32{}
	var order []string // first-occurrence order, for deterministic emission
	keyBuf := make([]byte, 4*len(cp.lhsCols))
	for idx := range ids {
		if idx%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !matchesVarColumnar(cp, idx) {
			continue
		}
		packLHSCodes(keyBuf, cp, idx)
		k := string(keyBuf)
		if _, ok := rowsByClass[k]; !ok {
			order = append(order, k)
		}
		rowsByClass[k] = append(rowsByClass[k], int32(idx))
	}
	codeCounts := make(map[uint32]int, 8)
	for _, k := range order {
		rows := rowsByClass[k]
		if len(rows) < 2 {
			continue
		}
		emitFactorGroup(cp, rows, codeCounts, ids, fr, st)
	}
	return nil
}

// emitFactorGroup computes one candidate group's RHS histogram over exact
// dictionary codes and, when the group disagrees, appends the factorised
// group. codeCounts is the caller's reusable scratch map.
func emitFactorGroup(cp *colPrep, rows []int32, codeCounts map[uint32]int,
	ids []relstore.TupleID, fr *FactorReport, st *CFDStats) {
	// Purity pre-check in raw codes: a clean group (the overwhelmingly
	// common case) costs zero allocations.
	rhs := cp.rhsCol
	pure := true
	first := rhs.Code(int(rows[0]))
	for _, r := range rows[1:] {
		if rhs.Code(int(r)) != first {
			pure = false
			break
		}
	}
	if pure {
		return
	}
	clear(codeCounts)
	for _, r := range rows {
		codeCounts[rhs.Code(int(r))]++
	}
	counts := make(map[string]int, len(codeCounts))
	for code, n := range codeCounts {
		counts[rhs.KeyOf(code)] += n
	}
	if len(counts) <= 1 {
		return // distinct codes rendered one key (cannot happen; belt and braces)
	}
	lhsVals := make([]types.Value, len(cp.lhsCols))
	for k, col := range cp.lhsCols {
		lhsVals[k] = col.Value(col.Code(int(rows[0])))
	}
	fr.FactorGroups = append(fr.FactorGroups, &FactorGroup{
		CFDID:       cp.p.c.ID,
		Attr:        cp.p.c.RHS[0],
		LHSAttrs:    append([]string(nil), cp.p.c.LHS...),
		LHSValues:   lhsVals,
		Rows:        rows,
		RHSCounts:   counts,
		MajorityKey: majorityKey(counts),
		rhsCol:      rhs,
		ids:         ids,
	})
	st.Groups++
	st.MultiTuple += len(rows)
}

// AsGroup materializes the legacy Group view of one factor group WITHOUT
// the per-member RHSOf map — Members and the histogram only, which is all
// the repair planner consumes. Per-member RHS keys stay lazy (RHSKeyAt);
// consumers needing the full map should Explode the report instead.
func (g *FactorGroup) AsGroup() *Group {
	counts := make(map[string]int, len(g.RHSCounts))
	for k, n := range g.RHSCounts {
		counts[k] = n
	}
	return &Group{
		CFDID:       g.CFDID,
		Attr:        g.Attr,
		LHSAttrs:    append([]string(nil), g.LHSAttrs...),
		LHSValues:   append([]types.Value(nil), g.LHSValues...),
		Members:     g.Members(),
		RHSCounts:   counts,
		MajorityKey: g.MajorityKey,
	}
}

// Explode lowers the factorised report to the exact legacy Report: every
// member's Violation row, the RHSOf maps, vio(t) and the finish() sort
// order — byte-identical (DeepEqual) to what the legacy engines produce
// over the same snapshot. It is the compatibility shim for consumers that
// still want the exploded form; hot paths consume the factorised report
// directly instead (the noexplode analyzer enforces this).
func (fr *FactorReport) Explode() *Report {
	rep := &Report{
		Table:      fr.Table,
		TupleCount: fr.TupleCount,
		Version:    fr.Version,
		PerCFD:     make(map[string]*CFDStats, len(fr.PerCFD)),
	}
	for id, st := range fr.PerCFD {
		cp := *st
		rep.PerCFD[id] = &cp
	}
	total := 0
	for _, g := range fr.FactorGroups {
		total += len(g.Rows)
	}
	if len(fr.Violations)+total > 0 {
		rep.Violations = make([]Violation, 0, len(fr.Violations)+total)
		rep.Violations = append(rep.Violations, fr.Violations...)
	}
	for _, g := range fr.FactorGroups {
		members := g.Members()
		rhsOf := make(map[relstore.TupleID]string, len(members))
		counts := make(map[string]int, len(g.RHSCounts))
		for k, n := range g.RHSCounts {
			counts[k] = n
		}
		for i, id := range members {
			rk := g.RHSKeyAt(i)
			rhsOf[id] = rk
			rep.Violations = append(rep.Violations, Violation{
				CFDID:    g.CFDID,
				Kind:     MultiTuple,
				Pattern:  -1,
				TupleID:  id,
				Attr:     g.Attr,
				Partners: len(members) - g.RHSCounts[rk],
			})
		}
		rep.Groups = append(rep.Groups, &Group{
			CFDID:       g.CFDID,
			Attr:        g.Attr,
			LHSAttrs:    append([]string(nil), g.LHSAttrs...),
			LHSValues:   append([]types.Value(nil), g.LHSValues...),
			Members:     members,
			RHSOf:       rhsOf,
			RHSCounts:   counts,
			MajorityKey: g.MajorityKey,
		})
	}
	finish(rep)
	return rep
}

// WriteNDJSON streams the factorised report: a header line, one line per
// single-tuple violation, one line per factor group (member count + RHS
// histogram — members stay factorised), and a terminal line. Lines are
// self-describing JSON objects keyed "header", "violation", "group",
// "done".
func (fr *FactorReport) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"header": map[string]any{
		"table":   fr.Table,
		"tuples":  fr.TupleCount,
		"version": fr.Version,
	}}); err != nil {
		return err
	}
	for i := range fr.Violations {
		v := &fr.Violations[i]
		if err := enc.Encode(map[string]any{"violation": map[string]any{
			"cfd":      v.CFDID,
			"kind":     v.Kind.String(),
			"pattern":  v.Pattern,
			"tuple":    int64(v.TupleID),
			"attr":     v.Attr,
			"expected": v.Expected.String(),
			"got":      v.Got.String(),
		}}); err != nil {
			return err
		}
	}
	for _, g := range fr.FactorGroups {
		lhs := make([]string, len(g.LHSValues))
		for i, v := range g.LHSValues {
			lhs[i] = v.String()
		}
		if err := enc.Encode(map[string]any{"group": map[string]any{
			"cfd":        g.CFDID,
			"attr":       g.Attr,
			"lhs_attrs":  g.LHSAttrs,
			"lhs":        lhs,
			"members":    len(g.Rows),
			"rhs_counts": g.RHSCounts,
			"majority":   g.MajorityKey,
		}}); err != nil {
			return err
		}
	}
	return enc.Encode(map[string]any{"done": true,
		"violations": len(fr.Violations), "groups": len(fr.FactorGroups)})
}

// sortViolations applies the canonical report order (the finish() sort).
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.TupleID != b.TupleID {
			return a.TupleID < b.TupleID
		}
		if a.CFDID != b.CFDID {
			return a.CFDID < b.CFDID
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Pattern < b.Pattern
	})
}
