// Package worldset implements sets of possible worlds: the data model of
// World-set Algebra. A world is an ordered tuple of relations
// ⟨R1, …, Rk⟩ over a shared schema; a world-set is a finite set of such
// worlds with set semantics (duplicate worlds collapse), exactly as in
// §4.1 of the paper.
package worldset

import (
	"fmt"
	"sort"
	"strings"

	"worldsetdb/internal/hashkey"
	"worldsetdb/internal/relation"
)

// World is an ordered tuple of relation instances ⟨R1, …, Rk⟩.
type World []*relation.Relation

// Key returns an injective encoding of the world's contents. It is used
// for deterministic world enumeration; set membership goes through the
// cheaper Hash plus Equal verification.
func (w World) Key() string {
	var b strings.Builder
	for _, r := range w {
		b.WriteString(r.ContentKey())
		b.WriteByte(0x1d)
	}
	return b.String()
}

// Hash returns a digest of the world's contents, built from the
// relations' memoized content hashes without allocating. Equal worlds
// hash equally; collisions are possible, so membership checks verify
// with Equal.
func (w World) Hash() uint64 {
	h := hashkey.Offset
	for _, r := range w {
		h = hashkey.Mix(h, r.ContentHash())
	}
	return h
}

// Clone returns a world with cloned relation instances.
func (w World) Clone() World {
	c := make(World, len(w))
	for i, r := range w {
		c[i] = r.Clone()
	}
	return c
}

// Equal reports whether two worlds have identical relation lists.
func (w World) Equal(u World) bool {
	if len(w) != len(u) {
		return false
	}
	for i := range w {
		if !w[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// WorldSet is a finite set of worlds over a shared schema: Names[i] is
// the name of relation i, Schemas[i] its attribute list. All worlds have
// the same number of relations with the same schemas.
type WorldSet struct {
	names   []string
	schemas []relation.Schema
	// worlds buckets the distinct worlds by their content hash; buckets
	// hold the (rare) colliding worlds, verified by World.Equal.
	worlds map[uint64][]World
	n      int
}

// New returns an empty world-set over the given relational schema.
func New(names []string, schemas []relation.Schema) *WorldSet {
	if len(names) != len(schemas) {
		panic("worldset: names/schemas length mismatch")
	}
	return &WorldSet{
		names:   append([]string{}, names...),
		schemas: append([]relation.Schema{}, schemas...),
		worlds:  make(map[uint64][]World),
	}
}

// FromDB returns the singleton world-set {A} for a complete database A,
// given as parallel name and relation lists.
func FromDB(names []string, rels []*relation.Relation) *WorldSet {
	schemas := make([]relation.Schema, len(rels))
	for i, r := range rels {
		schemas[i] = r.Schema()
	}
	ws := New(names, schemas)
	ws.Add(World(rels))
	return ws
}

// Names returns the relation names. Callers must not mutate.
func (ws *WorldSet) Names() []string { return ws.names }

// Schemas returns the per-relation schemas. Callers must not mutate.
func (ws *WorldSet) Schemas() []relation.Schema { return ws.schemas }

// NumRelations returns k, the number of relations per world.
func (ws *WorldSet) NumRelations() int { return len(ws.names) }

// IndexOf returns the position of the named relation, or -1.
func (ws *WorldSet) IndexOf(name string) int {
	for i, n := range ws.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Len returns the number of (distinct) worlds.
func (ws *WorldSet) Len() int { return ws.n }

// contains reports whether an equal world is already in the set.
func (ws *WorldSet) contains(w World) bool {
	for _, u := range ws.worlds[w.Hash()] {
		if w.Equal(u) {
			return true
		}
	}
	return false
}

// Add inserts a world, collapsing duplicates. It panics on schema-arity
// mismatch, which indicates a bug in an operator implementation.
func (ws *WorldSet) Add(w World) bool {
	if len(w) != len(ws.names) {
		panic(fmt.Sprintf("worldset: adding %d-relation world to %d-relation schema", len(w), len(ws.names)))
	}
	for i, r := range w {
		if !r.Schema().Equal(ws.schemas[i]) {
			panic(fmt.Sprintf("worldset: relation %s schema %v does not match world-set schema %v",
				ws.names[i], r.Schema(), ws.schemas[i]))
		}
	}
	h := w.Hash()
	for _, u := range ws.worlds[h] {
		if w.Equal(u) {
			return false
		}
	}
	ws.worlds[h] = append(ws.worlds[h], w)
	ws.n++
	return true
}

// Worlds returns the worlds in a deterministic (key-sorted) order.
func (ws *WorldSet) Worlds() []World {
	type keyed struct {
		key string
		w   World
	}
	ks := make([]keyed, 0, ws.n)
	for _, bucket := range ws.worlds {
		for _, w := range bucket {
			ks = append(ks, keyed{w.Key(), w})
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]World, len(ks))
	for i, k := range ks {
		out[i] = k.w
	}
	return out
}

// Each calls f for every world in unspecified order.
func (ws *WorldSet) Each(f func(World)) {
	for _, bucket := range ws.worlds {
		for _, w := range bucket {
			f(w)
		}
	}
}

// Equal reports whether two world-sets have the same schema and the same
// set of worlds.
func (ws *WorldSet) Equal(other *WorldSet) bool {
	if len(ws.names) != len(other.names) || ws.n != other.n {
		return false
	}
	for i := range ws.names {
		if ws.names[i] != other.names[i] || !ws.schemas[i].Equal(other.schemas[i]) {
			return false
		}
	}
	equal := true
	ws.Each(func(w World) {
		if equal && !other.contains(w) {
			equal = false
		}
	})
	return equal
}

// EqualWorlds reports whether the sets of worlds coincide, ignoring
// relation names (but not schemas): useful when comparing results
// produced under different result-relation names.
func (ws *WorldSet) EqualWorlds(other *WorldSet) bool {
	if ws.n != other.n {
		return false
	}
	equal := true
	ws.Each(func(w World) {
		if equal && !other.contains(w) {
			equal = false
		}
	})
	return equal
}

// Extend returns a new world-set whose schema appends the named relation,
// built by calling f on each world to produce the new relation instance.
// Worlds that become identical after extension collapse.
func (ws *WorldSet) Extend(name string, schema relation.Schema, f func(World) *relation.Relation) *WorldSet {
	out := New(append(append([]string{}, ws.names...), name),
		append(append([]relation.Schema{}, ws.schemas...), schema))
	ws.Each(func(w World) {
		nw := make(World, len(w)+1)
		copy(nw, w)
		nw[len(w)] = f(w)
		out.Add(nw)
	})
	return out
}

// DropLast returns a world-set without the last relation of each world.
func (ws *WorldSet) DropLast() *WorldSet {
	k := len(ws.names) - 1
	out := New(ws.names[:k], ws.schemas[:k])
	ws.Each(func(w World) {
		out.Add(append(World{}, w[:k]...))
	})
	return out
}

// Relations returns, for the named relation, its instance in every world
// (deterministic order).
func (ws *WorldSet) Relations(name string) []*relation.Relation {
	i := ws.IndexOf(name)
	if i < 0 {
		return nil
	}
	worlds := ws.Worlds()
	out := make([]*relation.Relation, len(worlds))
	for j, w := range worlds {
		out[j] = w[i]
	}
	return out
}

// String renders the world-set in the style of the paper's figures: each
// world shown as its relations, labelled name^i.
func (ws *WorldSet) String() string {
	var b strings.Builder
	worlds := ws.Worlds()
	fmt.Fprintf(&b, "world-set with %d world(s) over %v\n", len(worlds), ws.names)
	for wi, w := range worlds {
		fmt.Fprintf(&b, "--- world %d ---\n", wi+1)
		for ri, r := range w {
			b.WriteString(r.Render(ws.names[ri]))
		}
	}
	return b.String()
}
