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
// the relations its tree mentions, and the decomposition's components
// are independent, so only the components that contribute to those
// relations are enumerated: one world per combination of the dependent
// components' alternatives, each carrying the certain tuples plus the
// dependent contributions. The enumeration cost is the product of just
// the dependent components' alternative counts — the same locality
// bound wsdexec's component merging gives the native operators — so an
// aggregate over, or a subquery delete from, one 3-alternative
// component costs 3 worlds on a 2^40-world catalog, not 2^40. The
// "legacy" comparison engine is this same arm with every component
// counted dependent (see Session.native).

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

// dependentComponents returns, in ascending order, the components
// contributing at least one tuple to any of the given relation indices
// — the components whose choices the statement's answer can depend on
// — or, with all set, every component.
func dependentComponents(db *wsd.DecompDB, refIdx map[int]bool, all bool) []int {
	var deps []int
	for ci, c := range db.Components {
		dep := all
		for _, a := range c.Alternatives {
			for ri, r := range a.Rels {
				if refIdx[ri] && r != nil && r.Len() > 0 {
					dep = true
					break
				}
			}
			if dep {
				break
			}
		}
		if dep {
			deps = append(deps, ci)
		}
	}
	return deps
}

// boundedInput builds the world-set the evaluator runs the statement
// on: one world per combination of the dependent components'
// alternatives, every relation holding its certain tuples plus the
// dependent contributions. Relations no dependent component touches are
// exactly their full per-world content; the others the statement never
// reads. The enumeration refuses to exceed the session budget with the
// *wsd.BudgetError Expand reports — measured against the dependent
// combination count, not the catalog's world count.
func (s *Session) boundedInput(db *wsd.DecompDB, st Statement) (*worldset.WorldSet, []int, error) {
	refs := map[string]bool{}
	s.stmtRelations(st, refs)
	refIdx := map[int]bool{}
	for name := range refs {
		if i := db.IndexOf(name); i >= 0 {
			refIdx[i] = true
		}
	}
	// The comparison engine enumerates the whole world-set by design.
	deps := dependentComponents(db, refIdx, !s.native())
	// A component with no alternatives (dependent or not) empties the
	// represented world-set; the bounded enumeration must agree.
	if db.Worlds().Sign() == 0 {
		return worldset.New(db.Names, db.Schemas), deps, nil
	}
	local := &wsd.DecompDB{Names: db.Names, Schemas: db.Schemas, Certain: db.Certain}
	for _, ci := range deps {
		local.Components = append(local.Components, db.Components[ci])
	}
	ws, err := local.Expand(s.maxWorlds())
	return ws, deps, err
}

// execBounded runs one statement through the bounded arm, for all four
// statement kinds that can land here. It accounts the statement under
// op (the fragment feature — or comparison engine — that routed it
// here) and times all of its work in one exec.bounded span, builds the
// bounded input of base and hands it to eval, which returns the
// evaluated world-set and, for DML, the number of tuples it modified
// summed over those worlds. A read (tx nil) answers with the distinct
// last relations. A write re-factorizes the local result, splices the
// components it did not enumerate back, normalizes and stages the
// catalog on tx — one entangled step never enumerates, or
// de-factorizes, more than the components the statement reads — and
// weights the modified count by the worlds each local world stands for.
func (s *Session) execBounded(tx *store.Tx, base *wsd.DecompDB, st Statement, op string,
	eval func(*worldset.WorldSet) (*worldset.WorldSet, int, error)) (*Result, error) {
	s.Stats.recordLegacy(op)
	sp := s.span.Child("exec.bounded").Set("fragment-op", op)
	defer sp.End()
	ws, deps, err := s.boundedInput(base, st)
	if err != nil {
		return nil, err
	}
	sp.SetInt("components", int64(len(deps)))
	out, modified, err := eval(ws)
	if err != nil {
		return nil, err
	}
	if tx == nil {
		return &Result{Answers: wsa.DistinctLast(out), Decomp: base}, nil
	}
	db, err := wsd.Refactor(out)
	if err != nil {
		return nil, err
	}
	db, each := spliceIndependent(db, base, deps)
	db = db.Normalize()
	tx.SetDB(db)
	return &Result{Decomp: db, Affected: satInt(each.Mul(each, big.NewInt(int64(modified))))}, nil
}

// spliceIndependent re-attaches the components the bounded evaluation
// did not enumerate to the re-factorized local result, and returns with
// it the number of full worlds each local world stands for (the product
// of their alternative counts). Sound because the statement read none
// of their contributions: every full world is a local world plus the
// independent contributions, and the components stay independent of the
// local result's.
func spliceIndependent(local, base *wsd.DecompDB, deps []int) (*wsd.DecompDB, *big.Int) {
	depSet := map[int]bool{}
	for _, ci := range deps {
		depSet[ci] = true
	}
	each := big.NewInt(1)
	var m big.Int
	for ci, c := range base.Components {
		if !depSet[ci] {
			local.Components = append(local.Components, c)
			each.Mul(each, m.SetInt64(int64(len(c.Alternatives))))
		}
	}
	return local, each
}
