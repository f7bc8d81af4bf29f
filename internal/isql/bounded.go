package isql

import (
	"math/big"

	"worldsetdb/internal/store"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
)

// The bounded arm: the one way a statement reaches the session's own
// world-at-a-time evaluator. Statements outside the clean World-set
// Algebra fragment — selects and create-table-as with aggregation,
// expression subqueries, divide-by or the query form of
// group-worlds-by, and DELETE/UPDATE whose predicate or SET holds a
// subquery — are evaluated world by world, but a statement only reads
// the relations its tree mentions, so only the region of the
// decomposition those relations depend on is enumerated (wsd.Region,
// the enumeration wsdexec's fallback and the store's engine override
// share), and each of its worlds holds only the region's relation
// closure — the mentioned relations plus whatever the region's
// components contribute to — never a copy of the rest of the catalog:
// an aggregate over, or a subquery delete from, one 3-alternative
// component costs 3 small worlds on a 2^40-world catalog of any width,
// not 2^40. The "legacy" comparison engine is this same arm with every
// component in the region (see Session.native).

// stmtRelations records into the set every base relation the statement
// can read or write: a select's (or create-table-as query's) from
// items, following views, derived tables, expression subqueries, the
// divide-by item and the group-worlds-by query; a DELETE's or UPDATE's
// target table plus whatever its where and set expressions read.
func (s *Session) stmtRelations(st Statement, into map[string]bool) {
	// Views reference only earlier views (creation validates the body
	// against the catalog of its time), so expansion terminates; the set
	// just dedups repeated mentions.
	expandedViews := map[string]bool{}
	var visit func(node any) bool
	visit = func(node any) bool {
		switch n := node.(type) {
		case *DeleteStmt:
			into[n.Table] = true
		case *UpdateStmt:
			into[n.Table] = true
		case FromItem:
			v, isView := s.views[n.Table]
			switch {
			case n.Sub != nil: // a derived table: the walk enters it
			case !isView:
				into[n.Table] = true
			case !expandedViews[n.Table]:
				expandedViews[n.Table] = true
				walkSelect(v, visit)
			}
		}
		return true
	}
	walkStmt(st, visit)
}

// execBounded runs one statement through the bounded arm, for all four
// statement kinds that can land here. It accounts the statement under
// op (the fragment feature — or comparison engine — that routed it
// here) and times all of its work in one exec.bounded span, enumerates
// the region of base the statement's relations depend on and hands it to
// eval, which returns the evaluated world-set and, for DML, the number
// of tuples it modified summed over those worlds. The worlds hold the
// region's relation closure, not the catalog, so eval finds relations
// by name, never by catalog index. A read (tx nil) answers with the
// distinct last relations. A write re-factorizes the local result with
// the relations outside the closure and the components outside the
// region spliced back, normalizes and stages the catalog on tx — one
// entangled step never enumerates, or de-factorizes, more than the
// components the statement reads — and weights the modified count by
// the worlds each local world stands for. The closure keeps the local
// worlds as distinct as the full ones, so that count is exact.
func (s *Session) execBounded(tx *store.Tx, base *wsd.DecompDB, st Statement, op string,
	eval func(*worldset.WorldSet) (*worldset.WorldSet, int, error)) (*Result, error) {
	s.Stats.recordLegacy(op)
	sp := s.span.Child("exec.bounded").Set("fragment-op", op)
	defer sp.End()
	refs := map[string]bool{}
	s.stmtRelations(st, refs)
	// The comparison engine enumerates the whole world-set by design.
	region := wsd.RegionOf(base, refs, !s.native())
	ws, err := region.Enumerate(s.maxWorlds())
	if err != nil {
		return nil, err
	}
	sp.SetInt("components", int64(len(region.Deps)))
	out, modified, err := eval(ws)
	if err != nil {
		return nil, err
	}
	if tx == nil {
		return &Result{Answers: wsa.DistinctLast(out), Decomp: base}, nil
	}
	db, err := region.Refactor(out)
	if err != nil {
		return nil, err
	}
	db = db.Normalize()
	tx.SetDB(db)
	each := region.OutsideWorlds()
	return &Result{Decomp: db, Affected: satInt(each.Mul(each, big.NewInt(int64(modified))))}, nil
}
