package wsd

import (
	"math/big"

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
type Region struct {
	db *DecompDB
	// Deps lists the region's components, ascending by index into the
	// decomposition's Components.
	Deps []int
}

// RegionOf returns the region of db the named relations depend on, or,
// with all set, the region holding every component (the whole-world-set
// comparison engine). Names db does not hold are ignored.
func RegionOf(db *DecompDB, rels map[string]bool, all bool) *Region {
	refIdx := map[int]bool{}
	for name := range rels {
		if i := db.IndexOf(name); i >= 0 {
			refIdx[i] = true
		}
	}
	rg := &Region{db: db}
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
			rg.Deps = append(rg.Deps, ci)
		}
	}
	return rg
}

// Enumerate expands the region: one world per combination of its
// components' alternatives, every relation holding its certain tuples
// plus the region's contributions. Relations no component of the region
// touches are exactly their full per-world content; the others the
// statement never reads. Beyond budget it refuses with the *BudgetError
// DecompDB.Expand reports, measured against the region's combination
// count, not the decomposition's world count.
func (rg *Region) Enumerate(budget int) (*worldset.WorldSet, error) {
	db := rg.db
	// A component with no alternatives (in the region or not) empties the
	// represented world-set; the region's enumeration must agree.
	if db.Worlds().Sign() == 0 {
		return worldset.New(db.Names, db.Schemas), nil
	}
	local := &DecompDB{Names: db.Names, Schemas: db.Schemas, Certain: db.Certain}
	for _, ci := range rg.Deps {
		local.Components = append(local.Components, db.Components[ci])
	}
	return local.Expand(budget)
}

// Refactor re-factorizes a world-set evaluated from the region's
// enumeration and re-attaches the components outside the region, returning
// with the decomposition the number of full worlds each region world
// stands for (the product of the outside components' alternative
// counts). Sound because the evaluation read none of their
// contributions: every full world is a region world plus the outside
// contributions, and those components stay independent of the result's.
func (rg *Region) Refactor(out *worldset.WorldSet) (*DecompDB, *big.Int, error) {
	db, err := Refactor(out)
	if err != nil {
		return nil, nil, err
	}
	each := big.NewInt(1)
	var m big.Int
	deps := rg.Deps
	for ci, c := range rg.db.Components {
		if len(deps) > 0 && deps[0] == ci {
			deps = deps[1:]
			continue
		}
		db.Components = append(db.Components, c)
		each.Mul(each, m.SetInt64(int64(len(c.Alternatives))))
	}
	return db, each, nil
}
