package wsd

import (
	"math/big"
	"slices"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/worldset"
)

// Region is the part of a decomposition a statement can depend on: the
// components contributing at least one tuple to a relation the statement
// mentions. The decomposition's components are independent, so a
// statement that cannot run on the factored form is evaluated over the
// region alone — one world per combination of the region's alternatives
// — and the components outside it are re-attached to the re-factorized
// result unchanged. The enumeration cost is the product of just the
// region's alternative counts: the same locality bound component merging
// gives the native operators. It is the one enumeration a statement can
// reach — the session's bounded arm, the factorized engine's fallback and
// the store's engine override all go through it.
//
// The enumerated worlds hold only the region's relation closure: the
// relations the statement mentions plus every relation a region
// component contributes to, in catalog order. The mentioned ones are what
// the statement reads; the others ride along so that every world stays
// distinct (two alternatives differing only in an unmentioned relation
// would otherwise collapse into one world, and a write would lose the
// component's contributions there and count its modifications over too
// few worlds). Every other relation is certain in every region world and
// never read, so it is not copied into any of them: Refactor splices it
// back by pointer.
type Region struct {
	db *DecompDB
	// Deps lists the region's components, ascending by index into the
	// decomposition's Components.
	Deps []int
	// rels is the relation closure, ascending by index into the
	// decomposition's Names.
	rels []int
}

// RegionOf returns the region of db the named relations depend on, or,
// with all set, the region holding every component (the whole-world-set
// comparison engine). Names db does not hold are ignored. The region's
// components come from the decomposition's cached piece lists of the
// named relations, so finding them does not visit the components the
// statement cannot depend on.
func RegionOf(db *DecompDB, rels map[string]bool, all bool) *Region {
	rg := &Region{db: db}
	inClosure := make([]bool, len(db.Names))
	for name := range rels {
		if i := db.IndexOf(name); i >= 0 {
			inClosure[i] = true
			for _, p := range db.Pieces(i) {
				rg.Deps = append(rg.Deps, p.Comp)
			}
		}
	}
	if all {
		rg.Deps = rg.Deps[:0]
		for ci := range db.Components {
			rg.Deps = append(rg.Deps, ci)
		}
	}
	slices.Sort(rg.Deps)
	rg.Deps = slices.Compact(rg.Deps)
	for _, ci := range rg.Deps {
		for _, a := range db.Components[ci].Alternatives {
			for ri, r := range a.Rels {
				if r != nil && r.Len() > 0 {
					inClosure[ri] = true
				}
			}
		}
	}
	for ri, in := range inClosure {
		if in {
			rg.rels = append(rg.rels, ri)
		}
	}
	return rg
}

// Enumerate expands the region: one world per combination of its
// components' alternatives, over the relation closure — each relation
// holding its certain tuples plus the region's contributions, which for
// the relations the statement mentions is exactly their full per-world
// content. Beyond budget it refuses with the *BudgetError DecompDB.Expand
// reports, measured against the region's combination count, not the
// decomposition's world count.
func (rg *Region) Enumerate(budget int) (*worldset.WorldSet, error) {
	db, n := rg.db, len(rg.rels)
	local := &DecompDB{Names: make([]string, n), Schemas: make([]relation.Schema, n), Certain: make([]*relation.Relation, n)}
	toLocal := make(map[int]int, n)
	for li, ri := range rg.rels {
		local.Names[li], local.Schemas[li], local.Certain[li] = db.Names[ri], db.Schemas[ri], db.Certain[ri]
		toLocal[ri] = li
	}
	// A component with no alternatives (in the region or not) empties the
	// represented world-set; the region's enumeration must agree.
	if rg.empty() {
		return worldset.New(local.Names, local.Schemas), nil
	}
	for _, ci := range rg.Deps {
		local.Components = append(local.Components, remapComponent(db.Components[ci], toLocal))
	}
	return local.Expand(budget)
}

// empty reports whether the decomposition holds a component with no
// alternatives, which makes its represented world-set empty.
func (rg *Region) empty() bool {
	for _, c := range rg.db.Components {
		if len(c.Alternatives) == 0 {
			return true
		}
	}
	return false
}

// Refactor re-factorizes a world-set evaluated from the region's
// enumeration and re-attaches what lies outside the region. Relations
// outside the closure come back at their catalog positions by pointer;
// relations the evaluation appended after the closure (an answer, a
// create-table-as target) follow the catalog's, in their order; and the
// components outside the region follow the re-factorized ones with their
// relation indexes unchanged. Sound because the evaluation read none of
// the outside contributions: every full world is a region world plus
// those contributions, and the outside components stay independent of
// the result's.
func (rg *Region) Refactor(out *worldset.WorldSet) (*DecompDB, error) {
	local, err := Refactor(out)
	if err != nil {
		return nil, err
	}
	db, n := rg.db, len(rg.rels)
	res := &DecompDB{
		Names:   append(append([]string{}, db.Names...), local.Names[n:]...),
		Schemas: append(append([]relation.Schema{}, db.Schemas...), local.Schemas[n:]...),
		Certain: append(append([]*relation.Relation{}, db.Certain...), local.Certain[n:]...),
	}
	if out.Len() == 0 {
		// The empty world-set refactors to empty certain parts throughout.
		for ri, s := range db.Schemas {
			res.Certain[ri] = relation.New(s)
		}
	}
	toGlobal := make(map[int]int, len(local.Names))
	for li := range local.Names {
		ri := len(db.Names) + li - n
		if li < n {
			ri = rg.rels[li]
		}
		toGlobal[li] = ri
		res.Names[ri], res.Schemas[ri], res.Certain[ri] = local.Names[li], local.Schemas[li], local.Certain[li]
	}
	for _, c := range local.Components {
		res.Components = append(res.Components, remapComponent(c, toGlobal))
	}
	deps := rg.Deps
	for ci, c := range db.Components {
		if len(deps) > 0 && deps[0] == ci {
			deps = deps[1:]
			continue
		}
		res.Components = append(res.Components, c)
	}
	return res, nil
}

// OutsideWorlds returns the number of full worlds each region world
// stands for: the product of the alternative counts of the components
// outside the region.
func (rg *Region) OutsideWorlds() *big.Int {
	each := big.NewInt(1)
	var m big.Int
	deps := rg.Deps
	for ci, c := range rg.db.Components {
		if len(deps) > 0 && deps[0] == ci {
			deps = deps[1:]
			continue
		}
		each.Mul(each, m.SetInt64(int64(len(c.Alternatives))))
	}
	return each
}

// remapComponent returns c with every alternative's relation indexes
// translated through to, sharing the contributed relations.
func remapComponent(c DBComponent, to map[int]int) DBComponent {
	out := DBComponent{ID: c.ID, Alternatives: make([]DBAlternative, len(c.Alternatives))}
	for a, alt := range c.Alternatives {
		rels := make(map[int]*relation.Relation, len(alt.Rels))
		for ri, r := range alt.Rels {
			if r != nil && r.Len() > 0 {
				rels[to[ri]] = r
			}
		}
		out.Alternatives[a] = DBAlternative{Rels: rels}
	}
	return out
}
