package wsdexec

import (
	"sort"
	"strconv"

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
	// stored marks a stored view (see storedView): a catalog relation,
	// possibly renamed, built once per snapshot and shared read-only by
	// every evaluation against it. Its pieces are immutable for the life
	// of the snapshot, so an index cached on one (relation.IndexOn)
	// serves every later statement; the frel itself is never modified —
	// promote copies it first. rel is the relation's index in the
	// catalog, and flat its non-empty pieces in compIDs order.
	stored bool
	rel    int
	flat   []piece
	// ownCert marks a cert no other frel, view or catalog relation holds —
	// a selection's or projection's fresh output, or a rename of one —
	// which the operator consuming this frel may extend in place.
	ownCert bool
}

// piece is one non-empty (component, alternative) part of an frel; c is
// -1 for the certain part. A stored view keeps the rows of each piece
// too small to probe (below relation.IndexProbeMin) as a slice, so a
// scan over many small pieces walks slices instead of hash maps.
type piece struct {
	c, a int
	r    *relation.Relation
	rows []relation.Tuple
}

// each calls f for every tuple of the piece.
func (p piece) each(f func(relation.Tuple)) {
	if p.rows == nil {
		p.r.Each(f)
		return
	}
	for _, t := range p.rows {
		f(t)
	}
}

func newFrel(schema relation.Schema) *frel {
	return &frel{schema: schema, cert: relation.New(schema), parts: map[int][]*relation.Relation{}}
}

// storedView returns relation i of the engine's decomposition under the
// schema s (its own, or a rename's): the leaf a plan reads a table
// through. Everything in it depends on the snapshot alone, so it is
// built once per (decomposition, relation, schema) from the relation's
// piece list (wsd.DecompDB.Pieces) and kept on the decomposition
// (wsd.DecompDB.Derived); later evaluations — of any statement — share
// it. A rename's view wraps each piece with relation.WithSchema, which
// keeps the row storage and index cache of the catalog relation.
func (e *engine) storedView(i int, s relation.Schema) *frel {
	var buf [128]byte
	key := append(buf[:0], "wsdexec.view\x00"...)
	key = strconv.AppendInt(key, int64(i), 10)
	for _, a := range s {
		key = append(append(key, 0), a...)
	}
	db := e.db
	return db.Derived(key, func() any {
		view := func(r *relation.Relation) *relation.Relation { return r }
		if !s.Equal(db.Schemas[i]) {
			view = func(r *relation.Relation) *relation.Relation { return r.WithSchema(s) }
		}
		ps := db.Pieces(i)
		f := &frel{schema: s, cert: view(db.Certain[i]), parts: map[int][]*relation.Relation{},
			stored: true, rel: i, flat: make([]piece, 0, 1+len(ps))}
		add := func(c, a int, r *relation.Relation) {
			p := piece{c: c, a: a, r: r}
			if r.Len() < relation.IndexProbeMin {
				p.rows = make([]relation.Tuple, 0, r.Len())
				r.Each(func(t relation.Tuple) { p.rows = append(p.rows, t) })
			}
			f.flat = append(f.flat, p)
		}
		add(-1, -1, f.cert)
		for _, p := range ps {
			r := view(p.Rel)
			f.setPart(p.Comp, len(db.Components[p.Comp].Alternatives), p.Alt, r)
			add(p.Comp, p.Alt, r)
		}
		return f
	}).(*frel)
}

// pieces returns the certain part followed by every non-empty part, in
// compIDs order — precomputed on a stored view.
func (f *frel) pieces() []piece {
	if f.flat != nil {
		return f.flat
	}
	out := []piece{{c: -1, a: -1, r: f.cert}}
	for _, c := range f.compIDs() {
		for a, p := range f.parts[c] {
			if p != nil && p.Len() > 0 {
				out = append(out, piece{c: c, a: a, r: p})
			}
		}
	}
	return out
}

// unshared returns f itself, or — for a stored view — a private copy
// whose parts map the caller may edit. The relations stay shared.
func (f *frel) unshared() *frel {
	if !f.stored {
		return f
	}
	parts := make(map[int][]*relation.Relation, len(f.parts))
	for c, alts := range f.parts {
		parts[c] = alts
	}
	return &frel{schema: f.schema, cert: f.cert, parts: parts}
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

// uncertainCount is len(uncertainComps()) without building the list; a
// stored view holds non-empty parts only.
func (f *frel) uncertainCount() int {
	if f.stored {
		return len(f.parts)
	}
	n := 0
	for _, alts := range f.parts {
		for _, p := range alts {
			if p != nil && p.Len() > 0 {
				n++
				break
			}
		}
	}
	return n
}

// size returns the stored tuple count across all pieces, used to gate
// the parallel fan-out (relation.NumParts).
func (f *frel) size() int {
	if f.flat != nil {
		n := 0
		for _, p := range f.flat {
			n += p.r.Len()
		}
		return n
	}
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
