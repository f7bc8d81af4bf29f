package wsd

import (
	"slices"
	"sort"

	"worldsetdb/internal/hashkey"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/worldset"
)

// refactorMaxClasses bounds the number of distinct membership-signature
// classes the block-finding pass of Refactor considers. Beyond it (or
// beyond refactorMaxWork signature comparisons) the world-set is kept as
// a single component, which is always correct — the bound only gives up
// succinctness, never exactness.
const (
	refactorMaxClasses = 256
	refactorMaxWork    = 1 << 26
)

// Refactor factorizes an explicit multi-relation world-set back into a
// world-set decomposition: the "incomplete back to decomposed"
// direction that keeps multi-statement pipelines polynomial in the
// decomposition size after an entangled step has forced enumeration.
//
// Tuples present in every world become certain; the remaining
// (relation, tuple) occurrences are partitioned into blocks of
// pairwise-dependent items (items whose world memberships do not
// combine freely), and each block becomes an independent component
// whose alternatives are the distinct per-world restrictions of the
// block — spanning several relations when the block does. The
// factorization is verified (the alternative counts must multiply out
// to the world count); when verification fails, or the instance is too
// wild for block-finding to be worthwhile, the world-set is kept as a
// single component, which is always correct.
//
// The construction is deterministic: Refactor of equal world-sets
// yields structurally identical decompositions, and Expand of the
// result renders byte-identically to the input world-set.
//
// The empty world-set refactors to a decomposition with one
// zero-alternative component (rep = ∅).
func Refactor(ws *worldset.WorldSet) (*DecompDB, error) {
	db := NewDecompDB(ws.Names(), ws.Schemas())
	worlds := ws.Worlds()
	if len(worlds) == 0 {
		db.Components = []DBComponent{{}}
		return db, nil
	}

	// Certain tuples per relation: the intersection across worlds.
	k := ws.NumRelations()
	for i := 0; i < k; i++ {
		certain := worlds[0][i].Clone()
		for _, w := range worlds[1:] {
			next := relation.New(ws.Schemas()[i])
			certain.Each(func(t relation.Tuple) {
				if w[i].Contains(t) {
					next.Insert(t)
				}
			})
			certain = next
		}
		db.Certain[i] = certain
	}
	if len(worlds) == 1 {
		return db, nil
	}

	// The uncertain universe: (relation, tuple) items in some world but
	// not all, in deterministic order.
	type item struct {
		ri int
		t  relation.Tuple
	}
	var items []item
	for i := 0; i < k; i++ {
		universe := relation.New(ws.Schemas()[i])
		for _, w := range worlds {
			w[i].Each(func(t relation.Tuple) {
				if !db.Certain[i].Contains(t) {
					universe.Insert(t)
				}
			})
		}
		for _, t := range universe.Tuples() {
			items = append(items, item{ri: i, t: t})
		}
	}

	// Membership signatures, interned into classes: items with equal
	// signatures are trivially dependent and always share a block.
	sigOf := func(it item) string {
		b := make([]byte, len(worlds))
		for wi, w := range worlds {
			if w[it.ri].Contains(it.t) {
				b[wi] = 1
			}
		}
		return string(b)
	}
	classIdx := map[string]int{}
	var classSigs []string
	itemClass := make([]int, len(items))
	for ii, it := range items {
		sig := sigOf(it)
		ci, ok := classIdx[sig]
		if !ok {
			ci = len(classSigs)
			classIdx[sig] = ci
			classSigs = append(classSigs, sig)
		}
		itemClass[ii] = ci
	}

	singleComponent := func() *DecompDB {
		comp := DBComponent{}
		for _, w := range worlds {
			alt := DBAlternative{Rels: map[int]*relation.Relation{}}
			for _, it := range items {
				if w[it.ri].Contains(it.t) {
					r := alt.Rels[it.ri]
					if r == nil {
						r = relation.New(ws.Schemas()[it.ri])
						alt.Rels[it.ri] = r
					}
					r.Insert(it.t)
				}
			}
			comp.Alternatives = append(comp.Alternatives, alt)
		}
		db.Components = []DBComponent{comp}
		return db
	}

	d := len(classSigs)
	if d == 0 {
		// All worlds share the uncertain part — but distinct worlds must
		// differ somewhere, so d == 0 only when there are no uncertain
		// items, which contradicts len(worlds) > 1. Defensive: certain-only.
		return db, nil
	}
	if d > refactorMaxClasses || d*d*len(worlds) > refactorMaxWork {
		return singleComponent(), nil
	}

	// Union-find over signature classes: classes whose signatures do not
	// combine freely must share a component.
	parent := make([]int, d)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if !sigsIndependent(classSigs[i], classSigs[j]) {
				parent[find(i)] = find(j)
			}
		}
	}
	blocks := map[int][]int{} // root class → member classes
	for ci := 0; ci < d; ci++ {
		blocks[find(ci)] = append(blocks[find(ci)], ci)
	}
	roots := make([]int, 0, len(blocks))
	for r := range blocks {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	// One component per block: alternatives are the distinct world
	// restrictions of the block's items, across all relations.
	blockItems := make(map[int][]int, len(blocks)) // root → item indexes
	for ii := range items {
		r := find(itemClass[ii])
		blockItems[r] = append(blockItems[r], ii)
	}
	total := 1
	overflow := false
	for _, root := range roots {
		var alts []DBAlternative
		for wi := range worlds {
			alt := DBAlternative{Rels: map[int]*relation.Relation{}}
			for _, ii := range blockItems[root] {
				it := items[ii]
				if classSigs[itemClass[ii]][wi] == 1 {
					r := alt.Rels[it.ri]
					if r == nil {
						r = relation.New(ws.Schemas()[it.ri])
						alt.Rels[it.ri] = r
					}
					r.Insert(it.t)
				}
			}
			alts = append(alts, alt)
		}
		comp := DBComponent{Alternatives: distinctAlts(alts)}
		db.Components = append(db.Components, comp)
		if total > len(worlds)/len(comp.Alternatives)+1 {
			overflow = true
		}
		total *= len(comp.Alternatives)
	}

	// Verify: the product of alternative counts must equal the world
	// count, otherwise the blocks are jointly dependent even though
	// pairwise independent — fall back to one component.
	if overflow || total != len(worlds) {
		return singleComponent(), nil
	}
	return db, nil
}

// sigsIndependent reports whether two membership signatures (byte
// strings of 0/1 per world) combine freely: the observed presence
// patterns equal the product of the marginals.
func sigsIndependent(a, b string) bool {
	var marginalA, marginalB [2]bool
	var joint [2][2]bool
	for i := 0; i < len(a); i++ {
		ai, bi := a[i], b[i]
		marginalA[ai] = true
		marginalB[bi] = true
		joint[ai][bi] = true
	}
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			if marginalA[x] && marginalB[y] && !joint[x][y] {
				return false
			}
		}
	}
	return true
}

// distinctAlts drops every alternative whose contributions equal an
// earlier one's (set semantics: they select identical worlds), matched
// by content digest and verified with Relation.Equal.
func distinctAlts(alts []DBAlternative) []DBAlternative {
	var out []DBAlternative
	byHash := map[uint64][]DBAlternative{}
	for _, a := range alts {
		var h uint64 // XOR over the contributions: independent of map order
		for ri, r := range a.Rels {
			if r != nil && r.Len() > 0 {
				h ^= hashkey.Finalize(hashkey.Mix(uint64(ri), r.ContentHash()))
			}
		}
		same := func(b DBAlternative) bool { return sameAlternative(a, b, (*relation.Relation).Equal) }
		if !slices.ContainsFunc(byHash[h], same) {
			byHash[h] = append(byHash[h], a)
			out = append(out, a)
		}
	}
	return out
}
