package rewrite

import (
	"fmt"
	"math"
	"strings"

	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
)

// This file is the planner's cardinality-propagating cost estimator.
// Instead of the old purely structural constants (product=+10,
// group=+20, ...), every operator's expense is derived from the
// estimated cardinality of its inputs — seeded, when decomposition
// statistics are available, with the actual certain/alternative tuple
// counts of the base relations — times the estimated world multiplier
// its input carries: choice-of and repair-by-key multiply worlds,
// group-worlds-by pairs them quadratically, and poss/cert collapse them
// back to one. The absolute numbers still only matter relative to one
// another; callers must never pin them.

// TableStat is the planner's view of one base relation, extracted from
// wsd.Stats (StatsOf) or supplied directly in tests.
type TableStat struct {
	// Certain and Alternative are the tuple counts of the relation's
	// certain part and of all alternatives' contributions across
	// components.
	Certain, Alternative float64
	// Components is the number of decomposition components contributing
	// to the relation.
	Components int
}

// Stats maps relation names to their decomposition statistics. A nil
// map (or a missing entry) falls back to defaultCard tuples per
// relation, which reproduces a purely structural — but still
// cardinality-shaped — model.
type Stats map[string]TableStat

// StatsOf extracts planner statistics from a decomposition — the
// adapter between the wsd.Stats snapshots carry and the name-keyed
// view the estimator propagates. The map depends on the decomposition
// alone, so it is built once and kept with it (wsd.DecompDB.Derived):
// callers share it and must not modify it.
func StatsOf(db *wsd.DecompDB) Stats {
	return db.Derived([]byte("rewrite.stats"), func() any { return statsOf(db) }).(Stats)
}

func statsOf(db *wsd.DecompDB) Stats {
	s := db.Stats()
	out := make(Stats, len(db.Names))
	for i, name := range db.Names {
		r := s.Rel(i)
		out[name] = TableStat{
			Certain:     float64(r.Certain),
			Alternative: float64(r.Alternative),
			Components:  r.Components,
		}
	}
	return out
}

// Selectivity defaults per predicate class, and the cardinality assumed
// for relations without statistics.
const (
	selEq       = 0.1  // equality conjunct
	selNe       = 0.9  // inequality
	selRange    = 0.33 // <, <=, >, >=
	selDefault  = 0.5  // anything else (Not, unknown)
	distinctFrc = 0.2  // distinct-value fraction for choice-of world growth
	defaultCard = 100  // tuples assumed for a relation with no stats
	costCeil    = 1e15 // clamp: comparisons stay total, no Inf/NaN
)

// selectivity estimates the fraction of tuples a predicate keeps.
func selectivity(p ra.Pred) float64 {
	switch n := p.(type) {
	case ra.True:
		return 1
	case ra.Cmp:
		switch n.Op {
		case ra.OpEq:
			return selEq
		case ra.OpNe:
			return selNe
		default:
			return selRange
		}
	case ra.And:
		return selectivity(n.L) * selectivity(n.R)
	case ra.Or:
		s := selectivity(n.L) + selectivity(n.R)
		if s > 1 {
			return 1
		}
		return s
	case ra.Not:
		return 1 - selectivity(n.P)
	}
	return selDefault
}

// probedTable mirrors the factorized engine's access-path choice
// (wsdexec's selection): a σ with a `column = constant` conjunct — a
// parameter slot counts, it is a constant by the time the plan runs —
// directly over a base relation, renames aside, probes the cached hash
// index of every stored piece of at least relation.IndexProbeMin
// tuples. The statistics know one piece's size, the certain part; it
// returns that relation's statistics when the certain part qualifies.
func probedTable(n *wsa.Select, st Stats) (TableStat, bool) {
	from := n.From
	for {
		r, ok := from.(*wsa.Rename)
		if !ok {
			break
		}
		from = r.From
	}
	rel, ok := from.(*wsa.Rel)
	if !ok {
		return TableStat{}, false
	}
	t, ok := st[rel.Name]
	if !ok || t.Certain < relation.IndexProbeMin || !hasEqConst(n.Pred) {
		return TableStat{}, false
	}
	return t, true
}

// hasEqConst reports a `column = constant` comparison among the
// predicate's top-level conjuncts.
func hasEqConst(p ra.Pred) bool {
	for _, c := range conjuncts(p, nil) {
		if n, ok := c.(ra.Cmp); ok && n.Op == ra.OpEq && n.Left.IsCol != n.Right.IsCol {
			return true
		}
	}
	return false
}

func clamp(x float64) float64 {
	if x > costCeil {
		return costCeil
	}
	if x < 0 || x != x { // negative or NaN: defensive
		return 0
	}
	return x
}

// wfac damps a world multiplier into a cost factor: factorized
// evaluation is largely world-count-independent (cost follows pieces,
// not worlds), so carrying worlds linearly into cost would both
// misprice the native engine and wall off the uphill intermediate
// states the equivalence search must pass through (hoisting a close
// above a choice-of so equation (11) can absorb it). Logarithmic
// scaling keeps world growth strictly penalized while leaving those
// paths reachable under the branch-and-bound bound.
func wfac(worlds float64) float64 {
	if worlds <= 1 {
		return 1
	}
	return 1 + math.Log2(worlds)
}

// estimate is the propagated (cardinality, world multiplier, cost)
// triple of a subplan: card is the estimated tuple count of the output
// per world, worlds the estimated factor by which the subplan's
// operators multiplied the world count (choice-of, repair; closes
// collapse it back to 1), and cost the cumulative work — per-operator
// work is the input cardinality scaled by the worlds it exists in.
type estimate struct {
	card   float64
	worlds float64
	cost   float64
}

// estimateOn propagates estimates bottom-up.
func estimateOn(q wsa.Expr, st Stats) estimate {
	switch n := q.(type) {
	case *wsa.Rel:
		card := float64(defaultCard)
		if t, ok := st[n.Name]; ok {
			card = t.Certain + t.Alternative
		}
		return estimate{card: card, worlds: 1, cost: card}
	case *wsa.Select:
		in := estimateOn(n.From, st)
		sel := selectivity(n.Pred)
		// A scan visits every input tuple; an index probe visits the
		// matches of the certain part and scans only the alternatives.
		visited := in.card
		if t, ok := probedTable(n, st); ok {
			visited -= t.Certain * (1 - sel)
		}
		return estimate{
			card:   clamp(in.card * sel),
			worlds: in.worlds,
			cost:   clamp(in.cost + visited*wfac(in.worlds)),
		}
	case *wsa.Project:
		in := estimateOn(n.From, st)
		return estimate{card: in.card, worlds: in.worlds,
			cost: clamp(in.cost + in.card*wfac(in.worlds))}
	case *wsa.Rename:
		in := estimateOn(n.From, st)
		return estimate{card: in.card, worlds: in.worlds,
			cost: clamp(in.cost + 0.1*in.card*wfac(in.worlds))}
	case *wsa.BinOp:
		l, r := estimateOn(n.L, st), estimateOn(n.R, st)
		w := clamp(l.worlds * r.worlds)
		var card float64
		switch n.Kind {
		case wsa.OpProduct:
			card = clamp(l.card * r.card)
		case wsa.OpUnion:
			card = clamp(l.card + r.card)
		case wsa.OpIntersect:
			card = l.card
			if r.card < card {
				card = r.card
			}
			card *= 0.5
		case wsa.OpDiff:
			card = l.card * 0.7
		default:
			card = clamp(l.card + r.card)
		}
		return estimate{card: card, worlds: w,
			cost: clamp(l.cost + r.cost + (l.card+r.card+card)*wfac(w))}
	case *wsa.Join:
		l, r := estimateOn(n.L, st), estimateOn(n.R, st)
		w := clamp(l.worlds * r.worlds)
		card := clamp(l.card * r.card * selectivity(n.Pred))
		return estimate{card: card, worlds: w,
			cost: clamp(l.cost + r.cost + (l.card+r.card+card)*wfac(w))}
	case *wsa.Choice:
		in := estimateOn(n.From, st)
		// choice-of splits every world by the distinct values of the
		// chosen attributes: the world multiplier grows by the estimated
		// distinct count, and the split itself touches every input tuple
		// in every world.
		distinct := in.card * distinctFrc
		if distinct < 2 {
			distinct = 2
		}
		return estimate{
			card:   in.card,
			worlds: clamp(in.worlds * distinct),
			cost:   clamp(in.cost + in.card*wfac(in.worlds) + distinct),
		}
	case *wsa.Group:
		in := estimateOn(n.From, st)
		// group-worlds-by pairs worlds: quadratic in the world-scaled
		// input — the dominating operator of the algebra, as in the old
		// structural model, but now proportional to what it actually
		// touches.
		wcard := clamp(in.card * wfac(in.worlds))
		return estimate{card: in.card, worlds: in.worlds,
			cost: clamp(in.cost + wcard*(1+0.1*wcard))}
	case *wsa.Close:
		in := estimateOn(n.From, st)
		card := in.card
		if n.Kind == wsa.CloseCert {
			card *= 0.5
		}
		// poss/cert collapse the world-set to a single certain answer:
		// everything above a close is evaluated once, which is why
		// pushing closes down (equations (11), (15), (16)) wins.
		return estimate{card: card, worlds: 1,
			cost: clamp(in.cost + in.card*wfac(in.worlds))}
	case *wsa.RepairKey:
		in := estimateOn(n.From, st)
		// repair-by-key multiplies worlds per key-violating group and
		// rescans the input per choice.
		dups := in.card * distinctFrc
		if dups < 2 {
			dups = 2
		}
		return estimate{
			card:   in.card,
			worlds: clamp(in.worlds * dups),
			cost:   clamp(in.cost + 4*in.card*wfac(in.worlds) + dups),
		}
	}
	return estimate{card: defaultCard, worlds: 1, cost: defaultCard}
}

// Cost estimates the evaluation expense of a WSA plan with no
// decomposition statistics (base relations assume defaultCard tuples).
// The absolute numbers only matter relative to one another; callers
// must compare plans, never pin values.
func Cost(q wsa.Expr) float64 { return CostOn(q, nil) }

// CostOn estimates the evaluation expense of a WSA plan under the given
// decomposition statistics.
func CostOn(q wsa.Expr, st Stats) float64 { return estimateOn(q, st).cost }

// EstimateCard returns the estimated output cardinality (tuples per
// world) of a plan under the given statistics — the per-operator number
// EXPLAIN prints and EXPLAIN ANALYZE compares against actual output.
func EstimateCard(q wsa.Expr, st Stats) float64 { return estimateOn(q, st).card }

// opLabel is a short operator name for estimate rendering.
func opLabel(q wsa.Expr) string {
	switch n := q.(type) {
	case *wsa.Rel:
		return "rel " + n.Name
	case *wsa.Select:
		return "select " + n.Pred.String()
	case *wsa.Project:
		return "project " + strings.Join(n.Columns, ",")
	case *wsa.Rename:
		return "rename"
	case *wsa.BinOp:
		switch n.Kind {
		case wsa.OpProduct:
			return "product"
		case wsa.OpUnion:
			return "union"
		case wsa.OpIntersect:
			return "intersect"
		default:
			return "diff"
		}
	case *wsa.Join:
		return "join " + n.Pred.String()
	case *wsa.Choice:
		return "choice-of " + strings.Join(n.Attrs, ",")
	case *wsa.Group:
		return "group-worlds-by"
	case *wsa.Close:
		if n.Kind == wsa.CloseCert {
			return "cert"
		}
		return "poss"
	case *wsa.RepairKey:
		return "repair-by-key " + strings.Join(n.Attrs, ",")
	}
	return "op"
}

// ExplainEstimates renders the plan operator by operator — root first,
// children indented — with the estimated cost and output cardinality of
// every subplan, the EXPLAIN surface for plan-choice inspection.
func ExplainEstimates(q wsa.Expr, st Stats) string {
	var b strings.Builder
	var walk func(q wsa.Expr, depth int)
	walk = func(q wsa.Expr, depth int) {
		e := estimateOn(q, st)
		fmt.Fprintf(&b, "%s%s  (cost=%.1f rows=%.1f worlds=%.1fx)\n",
			strings.Repeat("  ", depth), opLabel(q), e.cost, e.card, e.worlds)
		for _, c := range children(q) {
			walk(c, depth+1)
		}
	}
	walk(q, 0)
	return strings.TrimRight(b.String(), "\n")
}
