package wsd

import (
	"math/big"
	"slices"

	"worldsetdb/internal/relation"
)

// This file holds the structural algebra the decomposition-native
// catalog (internal/store) runs on: copy-on-write edits of a DecompDB —
// adding, dropping, renaming and mapping relations — plus the
// normalization pass that keeps world counts exact after edits, the
// per-relation instance enumeration that answers "distinct instances
// across worlds" without expanding unrelated components, and the
// presence count that weights DML effects by worlds in O(#components).
// All operations are pure: they return new DecompDB values sharing
// every untouched relation with the receiver, so catalog snapshots stay
// immutable.

// clone returns a shallow structural copy: fresh slices (and fresh
// alternative maps) sharing every relation instance.
func (db *DecompDB) clone() *DecompDB {
	out := &DecompDB{
		Names:   append([]string{}, db.Names...),
		Schemas: append([]relation.Schema{}, db.Schemas...),
		Certain: append([]*relation.Relation{}, db.Certain...),
	}
	for _, c := range db.Components {
		comp := DBComponent{ID: c.ID, Alternatives: make([]DBAlternative, len(c.Alternatives))}
		for ai, a := range c.Alternatives {
			rels := make(map[int]*relation.Relation, len(a.Rels))
			for ri, r := range a.Rels {
				rels[ri] = r
			}
			comp.Alternatives[ai] = DBAlternative{Rels: rels}
		}
		out.Components = append(out.Components, comp)
	}
	return out
}

// WithCertain returns a decomposition identical to db except that
// relation i's certain tuples are replaced by r.
func (db *DecompDB) WithCertain(i int, r *relation.Relation) *DecompDB {
	out := db.clone()
	out.Certain[i] = r
	return out
}

// WithRelation returns the decomposition extended by a new relation
// holding the given certain tuples in every world (components are
// unchanged: the new relation is certain).
func (db *DecompDB) WithRelation(name string, schema relation.Schema, r *relation.Relation) *DecompDB {
	out := db.clone()
	out.Names = append(out.Names, name)
	out.Schemas = append(out.Schemas, schema)
	if r == nil {
		r = relation.New(schema)
	}
	out.Certain = append(out.Certain, r)
	return out
}

// RenameRelation returns the decomposition with relation i renamed.
func (db *DecompDB) RenameRelation(i int, name string) *DecompDB {
	out := db.clone()
	out.Names[i] = name
	return out
}

// DropRelation returns the decomposition without relation i: certain
// tuples and every alternative's contribution to i are removed, and
// the remaining contributions re-keyed. Callers should Normalize the
// result: alternatives that differed only in the dropped relation
// become duplicates, and collapsing them is what makes the represented
// world count match the world-set semantics of dropping a relation.
func (db *DecompDB) DropRelation(i int) *DecompDB {
	out := &DecompDB{
		Names:   append(append([]string{}, db.Names[:i]...), db.Names[i+1:]...),
		Schemas: append(append([]relation.Schema{}, db.Schemas[:i]...), db.Schemas[i+1:]...),
		Certain: append(append([]*relation.Relation{}, db.Certain[:i]...), db.Certain[i+1:]...),
	}
	for _, c := range db.Components {
		comp := DBComponent{ID: c.ID, Alternatives: make([]DBAlternative, len(c.Alternatives))}
		for ai, a := range c.Alternatives {
			rels := make(map[int]*relation.Relation, len(a.Rels))
			for ri, r := range a.Rels {
				switch {
				case ri < i:
					rels[ri] = r
				case ri > i:
					rels[ri-1] = r
				}
			}
			comp.Alternatives[ai] = DBAlternative{Rels: rels}
		}
		out.Components = append(out.Components, comp)
	}
	return out
}

// MapRelation applies fn to every piece of relation i — the certain
// tuples and each alternative's contribution — and returns the rebuilt
// decomposition. Because a world's instance of i is the union of its
// pieces, any per-tuple map or filter (selection, deletion, update with
// tuple-local predicates) distributes over the pieces, so the result
// represents exactly the world-set obtained by applying the operation
// in every world. fn must be pure and must not mutate its input.
func (db *DecompDB) MapRelation(i int, fn func(*relation.Relation) (*relation.Relation, error)) (*DecompDB, error) {
	out := db.clone()
	r, err := fn(out.Certain[i])
	if err != nil {
		return nil, err
	}
	out.Certain[i] = r
	for ci := range out.Components {
		for ai := range out.Components[ci].Alternatives {
			alt := out.Components[ci].Alternatives[ai]
			if p := alt.Rels[i]; p != nil {
				np, err := fn(p)
				if err != nil {
					return nil, err
				}
				if np.Len() == 0 {
					delete(alt.Rels, i)
				} else {
					alt.Rels[i] = np
				}
			}
		}
	}
	return out, nil
}

// Normalize returns an equivalent decomposition with redundant
// structure removed, in three passes per component:
//
//   - tuples of an alternative already certain in the same relation are
//     dropped (they are present everywhere regardless of the choice);
//   - alternatives with identical contributions across all relations
//     collapse to one (set semantics: they select identical worlds);
//   - components left with a single alternative fold that alternative's
//     contributions into the certain relations and disappear.
//
// Components with no alternatives (the empty world-set) are kept.
// After edits that can make worlds coincide within a component
// (dropping a relation, deleting tuples), Normalize restores the exact
// represented world count; duplicate worlds arising across distinct
// components are not detected (Worlds is an upper bound there, and
// expansion still deduplicates). The result shares unmodified relations
// with db.
func (db *DecompDB) Normalize() *DecompDB {
	out := &DecompDB{
		Names:   append([]string{}, db.Names...),
		Schemas: append([]relation.Schema{}, db.Schemas...),
		Certain: append([]*relation.Relation{}, db.Certain...),
	}
	certOwned := make([]bool, len(out.Certain)) // true once cloned for folding
	foldInto := func(ri int, r *relation.Relation) {
		if r == nil || r.Len() == 0 {
			return
		}
		if !certOwned[ri] {
			out.Certain[ri] = out.Certain[ri].Clone()
			certOwned[ri] = true
		}
		r.Each(func(t relation.Tuple) { out.Certain[ri].Insert(t) })
	}
	for _, c := range db.Components {
		if len(c.Alternatives) == 0 {
			out.Components = append(out.Components, DBComponent{ID: c.ID})
			continue
		}
		comp := DBComponent{ID: c.ID, Alternatives: distinctStripped(c, out.Certain)}
		if len(comp.Alternatives) == 1 {
			for ri, r := range comp.Alternatives[0].Rels {
				foldInto(ri, r)
			}
			continue
		}
		out.Components = append(out.Components, comp)
	}
	// Pre-fill the planner statistics: one extra O(size) pass over
	// structure this function just built, so every normalized snapshot
	// answers Stats() without computing anything at read time.
	out.stats.Store(out.computeStats())
	return out
}

// InsertCertain returns db with the tuples ts made certain in relation
// i, re-normalized where that can matter, plus the certain tuples the
// edit added per relation index: the members of ts relation i did not
// hold yet, and whatever a component collapsing to one alternative
// folded into any relation. Only components contributing to a relation
// whose certain part grew take the Normalize passes (in component
// order, against the evolving certain parts, exactly as Normalize runs
// them); every other component, every alternative map and every
// untouched relation is shared with db by pointer. On a normalized db
// the result is structurally WithCertain(i, Certain[i] ∪ ts).Normalize()
// — at the cost of the edit, not of the catalog. The caller must not
// mutate ts afterwards.
func (db *DecompDB) InsertCertain(i int, ts []relation.Tuple) (*DecompDB, map[int][]relation.Tuple) {
	out := &DecompDB{Names: db.Names, Schemas: db.Schemas,
		Certain: append([]*relation.Relation{}, db.Certain...)}
	added := map[int][]relation.Tuple{}
	owned := make([]bool, len(out.Certain))
	insert := func(ri int, t relation.Tuple) {
		if out.Certain[ri].Contains(t) {
			return
		}
		if !owned[ri] {
			out.Certain[ri] = out.Certain[ri].Clone()
			owned[ri] = true
		}
		out.Certain[ri].Insert(t)
		added[ri] = append(added[ri], t)
	}
	for _, t := range ts {
		insert(i, t)
	}
	if len(added) == 0 {
		return db, nil
	}
	out.Components = make([]DBComponent, 0, len(db.Components))
	for _, c := range db.Components {
		if len(c.Alternatives) == 0 || !c.contributesTo(added) {
			out.Components = append(out.Components, c)
			continue
		}
		comp := DBComponent{ID: c.ID, Alternatives: distinctStripped(c, out.Certain)}
		if len(comp.Alternatives) == 1 {
			for ri, r := range comp.Alternatives[0].Rels {
				r.Each(func(t relation.Tuple) { insert(ri, t) })
			}
			continue
		}
		if SameComponentShape(comp, c) {
			comp = c // nothing stripped or collapsed: keep the original maps
		}
		out.Components = append(out.Components, comp)
	}
	return out, added
}

// contributesTo reports whether any alternative of c contributes a
// tuple to one of the relations keyed in rels.
func (c DBComponent) contributesTo(rels map[int][]relation.Tuple) bool {
	for _, a := range c.Alternatives {
		for ri, r := range a.Rels {
			if _, ok := rels[ri]; ok && r != nil && r.Len() > 0 {
				return true
			}
		}
	}
	return false
}

// distinctStripped returns c's distinct alternatives with the tuples
// already certain stripped.
func distinctStripped(c DBComponent, certain []*relation.Relation) []DBAlternative {
	stripped := make([]DBAlternative, len(c.Alternatives))
	for ai, a := range c.Alternatives {
		stripped[ai] = stripCertain(a, certain)
	}
	return distinctAlts(stripped)
}

// stripCertain returns the alternative without tuples that are already
// certain, sharing untouched relations.
func stripCertain(a DBAlternative, certain []*relation.Relation) DBAlternative {
	rels := make(map[int]*relation.Relation, len(a.Rels))
	for ri, r := range a.Rels {
		if r == nil || r.Len() == 0 {
			continue
		}
		dirty := false
		r.Each(func(t relation.Tuple) {
			if certain[ri].Contains(t) {
				dirty = true
			}
		})
		if !dirty {
			rels[ri] = r
			continue
		}
		nr := relation.New(r.Schema())
		r.Each(func(t relation.Tuple) {
			if !certain[ri].Contains(t) {
				nr.Insert(t)
			}
		})
		if nr.Len() > 0 {
			rels[ri] = nr
		}
	}
	return DBAlternative{Rels: rels}
}

// Instances returns the distinct instances of relation i across the
// represented worlds, sorted deterministically by content — the
// factored counterpart of "the distinct answer relations across
// worlds". Only the components actually contributing tuples to i are
// enumerated; the product of their alternative counts is guarded by
// budget (0 means DefaultExpandBudget) with a *BudgetError beyond it,
// so a 2^40-world decomposition whose answer depends on two components
// lists its four instances without touching the other 38.
func (db *DecompDB) Instances(i, budget int) ([]*relation.Relation, error) {
	if budget == 0 {
		budget = DefaultExpandBudget
	}
	var deps []int
	combos := 1 // of deps' alternatives, while within budget
	for ci, c := range db.Components {
		if len(c.Alternatives) == 0 {
			return nil, nil // no worlds at all
		}
		contributes := false
		for _, a := range c.Alternatives {
			if r := a.Rels[i]; r != nil && r.Len() > 0 {
				contributes = true
				break
			}
		}
		if contributes {
			deps = append(deps, ci)
			combos = satMul(combos, len(c.Alternatives), budget)
		}
	}
	if combos > budget {
		exact := big.NewInt(1)
		for _, ci := range deps {
			exact.Mul(exact, big.NewInt(int64(len(db.Components[ci].Alternatives))))
		}
		return nil, &BudgetError{Worlds: exact, Budget: budget}
	}
	if len(deps) == 0 {
		return []*relation.Relation{db.Certain[i]}, nil
	}
	var insts []*relation.Relation
	byHash := map[uint64][]*relation.Relation{}
	choice := make([]int, len(deps))
	for {
		inst := db.Certain[i].Clone()
		for di, ci := range deps {
			if r := db.Components[ci].Alternatives[choice[di]].Rels[i]; r != nil {
				r.Each(func(t relation.Tuple) { inst.Insert(t) })
			}
		}
		if h := inst.ContentHash(); !slices.ContainsFunc(byHash[h], inst.Equal) {
			byHash[h] = append(byHash[h], inst)
			insts = append(insts, inst)
		}
		j := 0
		for ; j < len(deps); j++ {
			choice[j]++
			if choice[j] < len(db.Components[deps[j]].Alternatives) {
				break
			}
			choice[j] = 0
		}
		if j == len(deps) {
			break
		}
	}
	relation.SortByContent(insts)
	return insts, nil
}

// satMul returns a·b for positive a and b, or limit+1 once the product
// exceeds limit.
func satMul(a, b, limit int) int {
	if a > limit/b || a*b > limit {
		return limit + 1
	}
	return a * b
}

// PresenceCount returns the number of represented worlds (counted as
// choice combinations) whose relation i contains t, in O(total
// alternatives): components are independent, so the count of
// combinations missing t is the product over components of the
// alternatives not contributing it. The count is exact whenever
// distinct choice combinations yield distinct worlds — true for
// normalized decompositions without cross-component overlap, and in
// particular for everything the repair/choice constructions build. DML
// statements use it to report world-weighted affected counts without
// enumerating worlds.
func (db *DecompDB) PresenceCount(i int, t relation.Tuple) *big.Int {
	worlds := db.Worlds()
	if worlds.Sign() == 0 {
		return big.NewInt(0)
	}
	if db.Certain[i].Contains(t) {
		return worlds
	}
	absent := big.NewInt(1)
	var m big.Int
	for _, c := range db.Components {
		miss := 0
		for _, a := range c.Alternatives {
			if r := a.Rels[i]; r == nil || !r.Contains(t) {
				miss++
			}
		}
		absent.Mul(absent, m.SetInt64(int64(miss)))
	}
	return worlds.Sub(worlds, absent)
}
