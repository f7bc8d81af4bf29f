package wsdexec

import (
	"sort"

	"worldsetdb/internal/relation"
)

// frel is a factored answer relation over the engine's component
// universe: the relation's instance in the world selecting alternative
// aᵢ for component i is
//
//	cert ∪ ⋃_c parts[c][a_c]
//
// — certain tuples present everywhere plus, per component, the extra
// tuples contributed by the chosen alternative. A tuple may appear in
// the extras of several (component, alternative) slots; its presence
// condition is the disjunction of the corresponding choices. This
// additive form is closed under selection, projection, renaming and
// union; products, intersections and differences stay inside it
// exactly when their cross terms do not couple distinct components
// (see the entanglement checks in wsdexec.go).
type frel struct {
	schema relation.Schema
	cert   *relation.Relation
	// parts maps a component id to its per-alternative extras; a slice
	// entry may be nil (that alternative contributes nothing). When a
	// component id is present the slice has exactly arity(c) entries.
	parts map[int][]*relation.Relation
	// stored marks pieces that are catalog relations (or renames sharing
	// their storage): immutable for the life of the snapshot, so an index
	// cached on one (relation.IndexOn) serves every later statement.
	// Pieces an operator computed live for one evaluation only.
	stored bool
}

func newFrel(schema relation.Schema) *frel {
	return &frel{schema: schema, cert: relation.New(schema), parts: map[int][]*relation.Relation{}}
}

// part returns the extras of (c, a), possibly nil.
func (f *frel) part(c, a int) *relation.Relation {
	s := f.parts[c]
	if s == nil {
		return nil
	}
	return s[a]
}

// slot returns the extras relation of (c, a), allocating the component
// slice (of the given arity) and an empty relation on first use.
func (f *frel) slot(c, arity, a int) *relation.Relation {
	s := f.parts[c]
	if s == nil {
		s = make([]*relation.Relation, arity)
		f.parts[c] = s
	}
	if s[a] == nil {
		s[a] = relation.New(f.schema)
	}
	return s[a]
}

// setPart stores a part relation, allocating the component slice.
func (f *frel) setPart(c, arity, a int, r *relation.Relation) {
	s := f.parts[c]
	if s == nil {
		s = make([]*relation.Relation, arity)
		f.parts[c] = s
	}
	s[a] = r
}

// compIDs returns the component ids with stored parts, sorted, so every
// traversal of the factored form is deterministic.
func (f *frel) compIDs() []int {
	out := make([]int, 0, len(f.parts))
	for c := range f.parts {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// uncertainComps returns the ids of components with at least one
// non-empty part, sorted: the components the relation's content
// actually depends on.
func (f *frel) uncertainComps() []int {
	var out []int
	for c, alts := range f.parts {
		for _, p := range alts {
			if p != nil && p.Len() > 0 {
				out = append(out, c)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// size returns the stored tuple count across all pieces, used to gate
// the parallel fan-out (relation.NumParts).
func (f *frel) size() int {
	n := f.cert.Len()
	for _, alts := range f.parts {
		for _, p := range alts {
			if p != nil {
				n += p.Len()
			}
		}
	}
	return n
}
