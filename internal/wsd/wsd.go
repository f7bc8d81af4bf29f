// Package wsd implements world-set decompositions, the compact
// representation system the paper's conclusion proposes as an
// implementation substrate for I-SQL ("another research direction is to
// implement I-SQL on top of an existing representation system for
// finite world-sets, like databases with lineage and uncertainty or
// world-set decompositions" — the latter is reference [4], the authors'
// companion ICDE 2007 paper, which grew into MayBMS).
//
// A DecompDB (decompdb.go) represents a world-set over relations
// ⟨R1, …, Rk⟩ as a product of independent components: per-relation
// certain tuples present in every world, plus components each offering
// a set of alternatives, one of which every world picks; an
// alternative may contribute tuples to several relations at once. It
// has ∏ |Components[i]| worlds while occupying only Σ |Components[i]|
// space — exponentially more succinct than both the explicit world-set
// and the inlined representation of Definition 5.1.
//
// The package provides the repair-by-key decomposition (each key group
// is an independent component, so the §2 census view scales to 2^40
// repairs without enumeration), the copy-on-write edits the catalog
// runs on (decompops.go), the factorization of explicit world-sets back
// into components (Refactor), dependency regions that enumerate only
// the components a query reads (region.go), and the expansion back to
// worlds (budget-guarded via a typed BudgetError). DecompDB is the
// input and output representation of internal/wsdexec, the engine that
// evaluates World-set Algebra on decompositions — possible and certain
// answers included — without ever enumerating rep(D).
package wsd

import (
	"fmt"
	"math/big"

	"worldsetdb/internal/relation"
)

// DefaultExpandBudget is the world budget applied by DecompDB.Expand
// and Region.Enumerate when the caller passes 0: the whole point of the
// representation is that expansion is usually infeasible, so
// enumeration is refused beyond this many worlds unless the caller
// explicitly raises the budget.
const DefaultExpandBudget = 1 << 20

// BudgetError reports that an expansion was refused because the
// decomposition represents more worlds than the caller's budget. It is
// a dedicated type so callers can tell "too big to enumerate" apart
// from genuine failures (schema mismatches, empty world-sets): the
// factorized engine in internal/wsdexec refuses a merge or refinement
// beyond its budget with an error that unwraps to it, and benchmarks
// use it to assert that no enumeration happened.
type BudgetError struct {
	// Worlds is the exact represented world count.
	Worlds *big.Int
	// Budget is the limit that was exceeded.
	Budget int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("wsd: %s worlds exceed the expansion budget %d", e.Worlds, e.Budget)
}

// RepairByKey builds the one-relation decomposition of the §2 repair
// view directly: every group of tuples sharing a key value is an
// independent component whose alternatives are the individual tuples;
// singleton groups are certain. The construction is linear in the input
// and represents ∏ |group| worlds.
func RepairByKey(name string, rel *relation.Relation, keyAttrs []string) (*DecompDB, error) {
	idx, err := rel.Schema().Indexes(keyAttrs)
	if err != nil {
		return nil, err
	}
	groups := relation.NewGroupMap(idx, rel.Len())
	for _, t := range rel.Tuples() {
		groups.Add(t)
	}
	db := NewDecompDB([]string{name}, []relation.Schema{rel.Schema()})
	for _, g := range groups.Groups() {
		if len(g.Rows) == 1 {
			db.Certain[0].Insert(g.Rows[0])
			continue
		}
		comp := DBComponent{Alternatives: make([]DBAlternative, len(g.Rows))}
		for ai, t := range g.Rows {
			comp.Alternatives[ai] = DBAlternative{Rels: map[int]*relation.Relation{0: relation.FromRows(rel.Schema(), t)}}
		}
		db.Components = append(db.Components, comp)
	}
	return db, nil
}
