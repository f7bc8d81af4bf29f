package worldset

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
)

func tup(vals ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.Int(v)
	}
	return t
}

func schemaA() relation.Schema { return relation.NewSchema("A") }

func mkWorldSet(rels ...*relation.Relation) *WorldSet {
	ws := New([]string{"R"}, []relation.Schema{schemaA()})
	for _, r := range rels {
		ws.Add(World{r})
	}
	return ws
}

// TestDuplicateWorldsCollapse: world-sets have set semantics.
func TestDuplicateWorldsCollapse(t *testing.T) {
	r1 := relation.FromRows(schemaA(), tup(1))
	r2 := relation.FromRows(schemaA(), tup(1))
	ws := mkWorldSet(r1, r2)
	if ws.Len() != 1 {
		t.Fatalf("identical worlds must collapse, got %d", ws.Len())
	}
	if ws.Add(World{relation.FromRows(schemaA(), tup(2))}) != true {
		t.Fatal("new world should insert")
	}
	if ws.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ws.Len())
	}
}

// TestSchemaMismatchPanics: adding a world with the wrong schema is an
// operator bug and must panic loudly.
func TestSchemaMismatchPanics(t *testing.T) {
	ws := New([]string{"R"}, []relation.Schema{schemaA()})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on schema mismatch")
		}
	}()
	ws.Add(World{relation.New(relation.NewSchema("B"))})
}

// TestPrefixKey groups worlds by their first k relations — the pairing
// condition of Figure 3's binary operators — through the prefix w[:k]
// as a World: equal prefixes hash and compare equal.
func TestPrefixKey(t *testing.T) {
	shared := relation.FromRows(schemaA(), tup(1))
	w1 := World{shared, relation.FromRows(schemaA(), tup(2))}
	w2 := World{shared.Clone(), relation.FromRows(schemaA(), tup(3))}
	w3 := World{relation.FromRows(schemaA(), tup(9)), relation.FromRows(schemaA(), tup(2))}
	if w1[:1].Hash() != w2[:1].Hash() || !w1[:1].Equal(w2[:1]) {
		t.Error("equal prefixes must hash and compare equal")
	}
	if w1[:1].Equal(w3[:1]) {
		t.Error("different prefixes must differ")
	}
	if w1.Equal(w2) {
		t.Error("full worlds must differ")
	}
}

// TestExtendCollapses: extending two worlds to identical contents merges
// them.
func TestExtendCollapses(t *testing.T) {
	ws := mkWorldSet(
		relation.FromRows(schemaA(), tup(1)),
		relation.FromRows(schemaA(), tup(2)))
	out := ws.Extend("Ans", schemaA(), func(World) *relation.Relation {
		return relation.FromRows(schemaA(), tup(7))
	})
	if out.Len() != 2 {
		t.Fatalf("extension preserves distinct prefixes, got %d", out.Len())
	}
	// Dropping the first relation leaves identical worlds that collapse.
	dropped := New([]string{"Ans"}, []relation.Schema{schemaA()})
	out.Each(func(w World) { dropped.Add(World{w[1]}) })
	if dropped.Len() != 1 {
		t.Fatalf("identical worlds after dropping must collapse, got %d", dropped.Len())
	}
}

// TestApplyBijection maps domains and preserves world count.
func TestApplyBijection(t *testing.T) {
	ws := mkWorldSet(
		relation.FromRows(schemaA(), tup(1)),
		relation.FromRows(schemaA(), tup(2)))
	theta := NewBijection(
		[]value.Value{value.Int(1), value.Int(2)},
		[]value.Value{value.Int(2), value.Int(1)})
	mapped := ws.ApplyBijection(theta)
	if !mapped.EqualWorlds(ws) {
		t.Fatal("swapping 1↔2 maps this world-set onto itself")
	}
	theta2 := NewBijection([]value.Value{value.Int(1)}, []value.Value{value.Int(9)})
	mapped2 := ws.ApplyBijection(theta2)
	if mapped2.EqualWorlds(ws) {
		t.Fatal("mapping 1→9 must change the world-set")
	}
}

// TestIsomorphicSearch finds a bijection between renamed world-sets and
// rejects non-isomorphic ones.
func TestIsomorphicSearch(t *testing.T) {
	a := mkWorldSet(
		relation.FromRows(schemaA(), tup(1)),
		relation.FromRows(schemaA(), tup(2)),
		relation.New(schemaA()))
	b := mkWorldSet(
		relation.FromRows(schemaA(), tup(10)),
		relation.FromRows(schemaA(), tup(20)),
		relation.New(schemaA()))
	theta, ok := Isomorphic(a, b)
	if !ok {
		t.Fatal("a and b are isomorphic (rename 1→10, 2→20)")
	}
	if !IsomorphicUnder(a, b, theta) {
		t.Fatal("returned bijection must witness the isomorphism")
	}
	// c has a world containing both values: structurally different.
	c := mkWorldSet(
		relation.FromRows(schemaA(), tup(10), tup(20)),
		relation.FromRows(schemaA(), tup(20)),
		relation.New(schemaA()))
	if _, ok := Isomorphic(a, c); ok {
		t.Fatal("a and c must not be isomorphic")
	}
}

// TestIsomorphismProperty: applying a random bijection always yields an
// isomorphic world-set, and the search finds a witness.
func TestIsomorphismProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := New([]string{"R"}, []relation.Schema{schemaA()})
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			r := relation.New(schemaA())
			for j := 0; j < rng.Intn(3); j++ {
				r.Insert(tup(int64(rng.Intn(4))))
			}
			ws.Add(World{r})
		}
		dom := ws.Domain()
		perm := rng.Perm(len(dom))
		to := make([]value.Value, len(dom))
		for i, p := range perm {
			// Map into a disjoint range to keep the mapping injective.
			to[i] = value.Int(int64(100 + p))
		}
		theta := NewBijection(dom, to)
		mapped := ws.ApplyBijection(theta)
		if !IsomorphicUnder(ws, mapped, theta) {
			return false
		}
		_, ok := Isomorphic(ws, mapped)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRelationsAccessor returns per-world instances of a named relation.
func TestRelationsAccessor(t *testing.T) {
	ws := mkWorldSet(
		relation.FromRows(schemaA(), tup(1)),
		relation.FromRows(schemaA(), tup(2)))
	rels := ws.Relations("R")
	if len(rels) != 2 {
		t.Fatalf("want 2 instances, got %d", len(rels))
	}
	if ws.Relations("missing") != nil {
		t.Fatal("unknown relation should yield nil")
	}
}

// TestStringRendering sanity-checks the world-set printer used by the
// examples and tools.
func TestStringRendering(t *testing.T) {
	ws := mkWorldSet(relation.FromRows(schemaA(), tup(1)))
	out := ws.String()
	for _, want := range []string{"world-set with 1 world", "world 1", "R", "A"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering misses %q:\n%s", want, out)
		}
	}
}

// TestDropLast removes the answer relation and collapses.
func TestDropLast(t *testing.T) {
	ws := New([]string{"R", "Ans"}, []relation.Schema{schemaA(), schemaA()})
	base := relation.FromRows(schemaA(), tup(1))
	ws.Add(World{base, relation.FromRows(schemaA(), tup(5))})
	ws.Add(World{base.Clone(), relation.FromRows(schemaA(), tup(6))})
	dropped := ws.DropLast()
	if dropped.Len() != 1 {
		t.Fatalf("DropLast should collapse to 1 world, got %d", dropped.Len())
	}
}
