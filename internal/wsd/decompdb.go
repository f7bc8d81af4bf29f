package wsd

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
	"sync/atomic"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/worldset"
)

// A DecompDB represents a finite set of worlds over ⟨R1, …, Rk⟩ as
// per-relation certain tuples plus independent components whose
// alternatives may contribute tuples to several relations at once. The
// represented world-set is
//
//	rep(D) = { ⟨C1 ∪ a(1), …, Ck ∪ a(k)⟩ | a = (a₁, …, aₙ), aᵢ ∈ Components[i] }
//
// where a(j) is the union of the chosen alternatives' contributions to
// relation j. It has ∏ |Components[i]| worlds in Σ-space, and is the
// input (and output) representation of the factorized query engine in
// internal/wsdexec, which evaluates world-set algebra on it without
// ever enumerating rep(D).

// DBAlternative is one choice of a component: the tuples it contributes
// to each relation, keyed by relation index. Relations without an entry
// receive nothing from this alternative.
type DBAlternative struct {
	Rels map[int]*relation.Relation
}

// Rel returns the alternative's contribution to relation i (possibly
// nil, meaning empty).
func (a DBAlternative) Rel(i int) *relation.Relation { return a.Rels[i] }

// DBComponent is an independent choice: every world contains the
// contribution of exactly one of its alternatives. A component with no
// alternatives makes the represented world-set empty.
type DBComponent struct {
	Alternatives []DBAlternative
	// ID is a stable identity across copy-on-write edits: clone,
	// MapRelation, DropRelation and Normalize carry it through, so a
	// caller holding two versions of a decomposition can match the
	// surviving components without comparing content. Zero means
	// unassigned (operations that build new components — Refactor,
	// merging, world-set lifting — leave it zero); the sharded catalog
	// assigns IDs at snapshot admission and diffs commits by them. IDs
	// never affect the represented world-set.
	ID uint64
}

// DecompDB is a world-set decomposition of a multi-relation world-set.
// All relations listed in Names exist in every world; Certain[i] holds
// the tuples of relation i present in every world.
type DecompDB struct {
	Names      []string
	Schemas    []relation.Schema
	Certain    []*relation.Relation
	Components []DBComponent

	// stats caches the decomposition statistics (see Stats). Normalize
	// pre-fills it; every copy-on-write edit builds a fresh DecompDB, so
	// a cached value can never describe stale structure. Unexported, so
	// JSON persistence skips it and loads recompute lazily.
	stats atomic.Pointer[Stats]
	// pieces and derived are reader-built caches (see derived.go), empty
	// on every fresh DecompDB like stats.
	pieces  atomic.Pointer[[][]Piece]
	derived derivedMemo
}

// NewDecompDB returns a decomposition with empty certain relations and
// no components: the singleton world-set of the empty database over the
// given schema.
func NewDecompDB(names []string, schemas []relation.Schema) *DecompDB {
	if len(names) != len(schemas) {
		panic("wsd: names/schemas length mismatch")
	}
	certain := make([]*relation.Relation, len(schemas))
	for i, s := range schemas {
		certain[i] = relation.New(s)
	}
	return &DecompDB{
		Names:   append([]string{}, names...),
		Schemas: append([]relation.Schema{}, schemas...),
		Certain: certain,
	}
}

// FromComplete returns the decomposition of the singleton world-set {A}
// for a complete database A: everything certain, no components. The
// relations are shared, not copied; callers must not mutate them
// afterwards.
func FromComplete(names []string, rels []*relation.Relation) *DecompDB {
	schemas := make([]relation.Schema, len(rels))
	for i, r := range rels {
		schemas[i] = r.Schema()
	}
	db := NewDecompDB(names, schemas)
	copy(db.Certain, rels)
	return db
}

// IndexOf returns the position of the named relation, or -1.
func (db *DecompDB) IndexOf(name string) int {
	for i, n := range db.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Worlds returns the exact represented world count ∏ |Components[i]|.
func (db *DecompDB) Worlds() *big.Int {
	n := big.NewInt(1)
	var m big.Int
	for _, c := range db.Components {
		n.Mul(n, m.SetInt64(int64(len(c.Alternatives))))
	}
	return n
}

// Size returns the representation size: stored tuples across certain
// relations and all alternatives.
func (db *DecompDB) Size() int {
	n := 0
	for _, r := range db.Certain {
		n += r.Len()
	}
	for _, c := range db.Components {
		for _, a := range c.Alternatives {
			for _, r := range a.Rels {
				n += r.Len()
			}
		}
	}
	return n
}

// Expand enumerates the represented world-set. It refuses
// decompositions with more than budget worlds (0 means
// DefaultExpandBudget), returning a *BudgetError so callers can tell
// infeasible enumeration apart from real failures. The worlds share
// db's relations — a certain part no alternative adds to is the same
// pointer in every world — so, like every relation of a world-set, they
// are read, never mutated: an operator derives new ones.
func (db *DecompDB) Expand(budget int) (*worldset.WorldSet, error) {
	n := db.Worlds()
	if err := overBudget(n, budget); err != nil {
		return nil, err
	}
	ws := worldset.New(db.Names, db.Schemas)
	if n.Sign() == 0 {
		return ws, nil
	}
	// A relation no alternative contributes to is its certain part in
	// every world: handed out by pointer, it keeps its memoized digests,
	// so no world re-hashes it. The others are clones the alternatives
	// extend.
	grows := make([]bool, len(db.Certain))
	for _, c := range db.Components {
		for _, a := range c.Alternatives {
			for ri, r := range a.Rels {
				grows[ri] = grows[ri] || r != nil && r.Len() > 0
			}
		}
	}
	choice := make([]int, len(db.Components))
	for {
		w := make(worldset.World, len(db.Certain))
		for i, r := range db.Certain {
			if w[i] = r; grows[i] {
				w[i] = r.Clone()
			}
		}
		for ci, c := range db.Components {
			for ri, r := range c.Alternatives[choice[ci]].Rels {
				r.Each(func(t relation.Tuple) { w[ri].Insert(t) })
			}
		}
		ws.Add(w)
		i := 0
		for ; i < len(db.Components); i++ {
			choice[i]++
			if choice[i] < len(db.Components[i].Alternatives) {
				break
			}
			choice[i] = 0
		}
		if i == len(db.Components) {
			break
		}
	}
	return ws, nil
}

// overBudget returns the *BudgetError refusing n worlds under budget
// (0 = DefaultExpandBudget), or nil when they fit.
func overBudget(n *big.Int, budget int) error {
	if budget == 0 {
		budget = DefaultExpandBudget
	}
	if !n.IsInt64() || n.Int64() > int64(budget) {
		return &BudgetError{Worlds: n, Budget: budget}
	}
	return nil
}

// String renders the decomposition compactly.
func (db *DecompDB) String() string {
	var b strings.Builder
	certain := 0
	for _, r := range db.Certain {
		certain += r.Len()
	}
	fmt.Fprintf(&b, "DecompDB over %v: %d certain tuple(s), %d component(s), %s world(s), size %d\n",
		db.Names, certain, len(db.Components), db.Worlds(), db.Size())
	for i, c := range db.Components {
		rels := map[int]bool{}
		for _, a := range c.Alternatives {
			for ri := range a.Rels {
				rels[ri] = true
			}
		}
		names := make([]string, 0, len(rels))
		for ri := range rels {
			names = append(names, db.Names[ri])
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "  component %d: %d alternatives over %v\n", i+1, len(c.Alternatives), names)
	}
	return b.String()
}
