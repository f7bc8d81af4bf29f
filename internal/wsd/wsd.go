// Package wsd implements world-set decompositions, the compact
// representation system the paper's conclusion proposes as an
// implementation substrate for I-SQL ("another research direction is to
// implement I-SQL on top of an existing representation system for
// finite world-sets, like databases with lineage and uncertainty or
// world-set decompositions" — the latter is reference [4], the authors'
// companion ICDE 2007 paper, which grew into MayBMS).
//
// A decomposition represents a world-set over one relation as a product
// of independent components: a set of certain tuples present in every
// world, plus components each offering a set of alternatives (tuple
// sets), one of which every world picks. The represented world-set is
//
//	rep(D) = { Certain ∪ a₁ ∪ … ∪ aₙ | aᵢ ∈ Components[i] }
//
// and has ∏ |Components[i]| worlds while occupying only Σ |Components[i]|
// space — exponentially more succinct than both the explicit world-set
// and the inlined representation of Definition 5.1.
//
// The package provides the repair-by-key decomposition (each key group
// is an independent component, so the §2 census view scales to 2^40
// repairs without enumeration), possible/certain answers computed
// directly on the decomposition in polynomial time, a best-effort
// factorization of explicit world-sets, and the expansion back to
// worlds (budget-guarded via a typed BudgetError, for testing and for
// the factorized engine's fallback decision).
//
// DecompDB (decompdb.go) extends the representation from a single
// relation to whole databases — certain tuples per relation plus
// components whose alternatives may span several relations — and is
// the input and output representation of internal/wsdexec, the engine
// that evaluates World-set Algebra on decompositions without ever
// enumerating rep(D).
package wsd

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"strings"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/worldset"
)

// DefaultExpandBudget is the world budget applied by Rep and
// DecompDB.Expand when the caller passes 0: the whole point of the
// representation is that expansion is usually infeasible, so
// enumeration is refused beyond this many worlds unless the caller
// explicitly raises the budget.
const DefaultExpandBudget = 1 << 20

// BudgetError reports that an expansion was refused because the
// decomposition represents more worlds than the caller's budget. It is
// a dedicated type so callers can tell "too big to enumerate" apart
// from genuine failures (schema mismatches, empty world-sets): the
// factorized engine in internal/wsdexec keys its fallback decision on
// it, and benchmarks use it to assert that no enumeration happened.
type BudgetError struct {
	// Worlds is the exact represented world count.
	Worlds *big.Int
	// Budget is the limit that was exceeded.
	Budget int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("wsd: %s worlds exceed the expansion budget %d", e.Worlds, e.Budget)
}

// Alternative is one choice of a component: a set of tuples that appear
// together.
type Alternative struct {
	rel *relation.Relation
}

// NewAlternative builds an alternative over the given schema.
func NewAlternative(schema relation.Schema, tuples ...relation.Tuple) Alternative {
	r := relation.New(schema)
	for _, t := range tuples {
		r.Insert(t)
	}
	return Alternative{rel: r}
}

// Tuples returns the alternative's tuples in deterministic order.
func (a Alternative) Tuples() []relation.Tuple { return a.rel.Tuples() }

// Len returns the number of tuples.
func (a Alternative) Len() int { return a.rel.Len() }

// Component is an independent choice: every world contains exactly one
// of its alternatives.
type Component struct {
	Alternatives []Alternative
}

// WSD is a world-set decomposition of a world-set over a single
// relation.
type WSD struct {
	Name       string
	Schema     relation.Schema
	Certain    *relation.Relation
	Components []Component
}

// New returns an empty decomposition (one world: the certain tuples).
func New(name string, schema relation.Schema) *WSD {
	return &WSD{Name: name, Schema: schema, Certain: relation.New(schema)}
}

// Worlds returns the exact number of represented worlds,
// ∏ |Components[i]|, as a big integer: repair decompositions routinely
// exceed 2^64, and engines decide whether enumeration is feasible by
// comparing this count against an explicit budget.
func (d *WSD) Worlds() *big.Int {
	n := big.NewInt(1)
	var m big.Int
	for _, c := range d.Components {
		n.Mul(n, m.SetInt64(int64(len(c.Alternatives))))
	}
	return n
}

// NumWorlds returns the number of represented worlds, saturating at
// math.MaxUint64. Prefer Worlds where the exact count matters.
func (d *WSD) NumWorlds() uint64 {
	n := d.Worlds()
	if !n.IsUint64() {
		return math.MaxUint64
	}
	return n.Uint64()
}

// Size returns the representation size: the total number of stored
// tuples across certain tuples and all alternatives.
func (d *WSD) Size() int {
	n := d.Certain.Len()
	for _, c := range d.Components {
		for _, a := range c.Alternatives {
			n += a.Len()
		}
	}
	return n
}

// Poss returns the possible tuples — the union over all worlds —
// computed directly on the decomposition in O(Size).
func (d *WSD) Poss() *relation.Relation {
	out := d.Certain.Clone()
	for _, c := range d.Components {
		for _, a := range c.Alternatives {
			a.rel.Each(func(t relation.Tuple) { out.Insert(t) })
		}
	}
	return out
}

// Cert returns the certain tuples — the intersection over all worlds —
// in O(Size): a tuple is certain iff it is in Certain or appears in
// every alternative of some component.
func (d *WSD) Cert() *relation.Relation {
	out := d.Certain.Clone()
	for _, c := range d.Components {
		if len(c.Alternatives) == 0 {
			continue
		}
		c.Alternatives[0].rel.Each(func(t relation.Tuple) {
			for _, a := range c.Alternatives[1:] {
				if !a.rel.Contains(t) {
					return
				}
			}
			out.Insert(t)
		})
	}
	return out
}

// Rep expands the decomposition into the explicit world-set. It
// refuses decompositions with more than maxWorlds worlds (0 means
// DefaultExpandBudget), returning a *BudgetError so callers can
// distinguish "too big to enumerate" from other failures. A component
// with no alternatives represents the empty world-set.
func (d *WSD) Rep(maxWorlds int) (*worldset.WorldSet, error) {
	if maxWorlds == 0 {
		maxWorlds = DefaultExpandBudget
	}
	n := d.Worlds()
	if !n.IsInt64() || n.Int64() > int64(maxWorlds) {
		return nil, &BudgetError{Worlds: n, Budget: maxWorlds}
	}
	ws := worldset.New([]string{d.Name}, []relation.Schema{d.Schema})
	if n.Sign() == 0 {
		return ws, nil
	}
	choice := make([]int, len(d.Components))
	for {
		w := d.Certain.Clone()
		for ci, c := range d.Components {
			c.Alternatives[choice[ci]].rel.Each(func(t relation.Tuple) { w.Insert(t) })
		}
		ws.Add(worldset.World{w})
		i := 0
		for ; i < len(d.Components); i++ {
			choice[i]++
			if choice[i] < len(d.Components[i].Alternatives) {
				break
			}
			choice[i] = 0
		}
		if i == len(d.Components) {
			break
		}
	}
	return ws, nil
}

// RepairByKey builds the decomposition of the §2 repair view directly:
// every group of tuples sharing a key value is an independent component
// whose alternatives are the individual tuples; singleton groups are
// certain. The construction is linear in the input and represents
// ∏ |group| worlds.
func RepairByKey(name string, rel *relation.Relation, keyAttrs []string) (*WSD, error) {
	idx, err := rel.Schema().Indexes(keyAttrs)
	if err != nil {
		return nil, err
	}
	groups := relation.NewGroupMap(idx, rel.Len())
	for _, t := range rel.Tuples() {
		groups.Add(t)
	}
	d := New(name, rel.Schema())
	for _, g := range groups.Groups() {
		if len(g.Rows) == 1 {
			d.Certain.Insert(g.Rows[0])
			continue
		}
		comp := Component{}
		for _, t := range g.Rows {
			comp.Alternatives = append(comp.Alternatives, NewAlternative(rel.Schema(), t))
		}
		d.Components = append(d.Components, comp)
	}
	return d, nil
}

// Decompose factorizes an explicit world-set over a single relation
// into a decomposition. Tuples present in every world become certain;
// the remaining tuples are partitioned into blocks of pairwise-dependent
// tuples (tuples whose world memberships do not combine freely), and
// each block becomes a component whose alternatives are its per-world
// restrictions. The factorization is verified (the world counts must
// multiply out); if verification fails the world-set is kept as a
// single component, which is always correct.
func Decompose(name string, ws *worldset.WorldSet) (*WSD, error) {
	if ws.NumRelations() != 1 {
		return nil, fmt.Errorf("wsd: Decompose expects a single-relation world-set, got %d relations", ws.NumRelations())
	}
	worlds := ws.Worlds()
	if len(worlds) == 0 {
		return nil, fmt.Errorf("wsd: cannot decompose the empty world-set")
	}
	schema := ws.Schemas()[0]
	d := New(name, schema)

	// Certain tuples and the uncertain universe.
	certain := worlds[0][0].Clone()
	universe := relation.New(schema)
	for _, w := range worlds {
		next := relation.New(schema)
		certain.Each(func(t relation.Tuple) {
			if w[0].Contains(t) {
				next.Insert(t)
			}
		})
		certain = next
		w[0].Each(func(t relation.Tuple) { universe.Insert(t) })
	}
	d.Certain = certain
	var uncertain []relation.Tuple
	universe.Each(func(t relation.Tuple) {
		if !certain.Contains(t) {
			uncertain = append(uncertain, t)
		}
	})
	sort.Slice(uncertain, func(i, j int) bool { return uncertain[i].Less(uncertain[j]) })
	if len(uncertain) == 0 {
		return d, nil
	}

	// Membership signatures: which worlds contain each uncertain tuple.
	sig := make([][]bool, len(uncertain))
	for i, t := range uncertain {
		sig[i] = make([]bool, len(worlds))
		for wi, w := range worlds {
			sig[i][wi] = w[0].Contains(t)
		}
	}

	// Union-find over pairwise-dependent tuples.
	parent := make([]int, len(uncertain))
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
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < len(uncertain); i++ {
		for j := i + 1; j < len(uncertain); j++ {
			if !pairwiseIndependent(sig[i], sig[j]) {
				union(i, j)
			}
		}
	}
	blocks := map[int][]int{}
	for i := range uncertain {
		blocks[find(i)] = append(blocks[find(i)], i)
	}
	roots := make([]int, 0, len(blocks))
	for r := range blocks {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	// One component per block: its alternatives are the distinct
	// restrictions of the worlds to the block's tuples.
	total := uint64(1)
	for _, r := range roots {
		comp := Component{}
		byHash := map[uint64][]*relation.Relation{}
		for wi := range worlds {
			rel := relation.New(schema)
			for _, ti := range blocks[r] {
				if sig[ti][wi] {
					rel.Insert(uncertain[ti])
				}
			}
			if h := rel.ContentHash(); !slices.ContainsFunc(byHash[h], rel.Equal) {
				byHash[h] = append(byHash[h], rel)
				comp.Alternatives = append(comp.Alternatives, Alternative{rel: rel})
			}
		}
		d.Components = append(d.Components, comp)
		total *= uint64(len(comp.Alternatives))
	}

	// Verify the factorization: the product of alternative counts must
	// equal the world count, otherwise blocks are jointly dependent even
	// though pairwise independent — fall back to one component.
	if total != uint64(len(worlds)) {
		fallback := Component{}
		for _, w := range worlds {
			rel := relation.New(schema)
			w[0].Each(func(t relation.Tuple) {
				if !certain.Contains(t) {
					rel.Insert(t)
				}
			})
			fallback.Alternatives = append(fallback.Alternatives, Alternative{rel: rel})
		}
		d.Components = []Component{fallback}
	}
	return d, nil
}

// pairwiseIndependent reports whether two membership signatures combine
// freely: the set of observed (a, b) presence patterns equals the
// product of the marginals.
func pairwiseIndependent(a, b []bool) bool {
	var marginalA, marginalB [2]bool
	var joint [2][2]bool
	for i := range a {
		ai, bi := b2i(a[i]), b2i(b[i])
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

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// String renders the decomposition compactly.
func (d *WSD) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "WSD %s over %v: %d certain tuple(s), %d component(s), %d world(s), size %d\n",
		d.Name, []string(d.Schema), d.Certain.Len(), len(d.Components), d.NumWorlds(), d.Size())
	for i, c := range d.Components {
		fmt.Fprintf(&b, "  component %d: %d alternatives\n", i+1, len(c.Alternatives))
	}
	return b.String()
}
