package relation

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"worldsetdb/internal/value"
)

func tup(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.Int(v)
	}
	return t
}

// TestSchemaResolution covers exact, suffix and ambiguous attribute
// lookup — the resolution rules SQL-style qualified names rely on.
func TestSchemaResolution(t *testing.T) {
	s := NewSchema("R1.CID", "R1.EID", "R2.CID")
	if got := s.Index("R1.EID"); got != 1 {
		t.Errorf("exact lookup = %d, want 1", got)
	}
	if got := s.Index("EID"); got != 1 {
		t.Errorf("suffix lookup = %d, want 1", got)
	}
	if got := s.Index("CID"); got != -1 {
		t.Errorf("ambiguous suffix lookup = %d, want -1", got)
	}
	if got := s.Index("R2.CID"); got != 2 {
		t.Errorf("qualified lookup = %d, want 2", got)
	}
	if got := s.Index("missing"); got != -1 {
		t.Errorf("missing lookup = %d, want -1", got)
	}
}

// TestSchemaDuplicatePanics: duplicate attributes are construction bugs.
func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSchema with duplicates must panic")
		}
	}()
	NewSchema("A", "B", "A")
}

// TestSchemaSetOps checks Intersect/Minus/Concat ordering semantics.
func TestSchemaSetOps(t *testing.T) {
	a := NewSchema("A", "B", "C")
	b := NewSchema("C", "D", "A")
	if got := a.Intersect(b); !got.Equal(Schema{"A", "C"}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(Schema{"B"}) {
		t.Errorf("Minus = %v", got)
	}
	if got := a.Concat(Schema{"D"}); !got.Equal(Schema{"A", "B", "C", "D"}) {
		t.Errorf("Concat = %v", got)
	}
}

// TestIDAttrClassification checks the '#' world-id convention.
func TestIDAttrClassification(t *testing.T) {
	s := NewSchema("A", "#w", "B", "#v1")
	if got := s.IDAttrs(); !got.Equal(Schema{"#w", "#v1"}) {
		t.Errorf("IDAttrs = %v", got)
	}
	if got := s.ValueAttrs(); !got.Equal(Schema{"A", "B"}) {
		t.Errorf("ValueAttrs = %v", got)
	}
}

// TestSetSemantics checks duplicate collapse, delete and membership.
func TestSetSemantics(t *testing.T) {
	r := New(NewSchema("A", "B"))
	if !r.Insert(tup(1, 2)) {
		t.Error("first insert should be new")
	}
	if r.Insert(tup(1, 2)) {
		t.Error("duplicate insert should report false")
	}
	// Int/Float equality: (1, 2.0) is the same tuple.
	if r.Insert(Tuple{value.Int(1), value.Float(2.0)}) {
		t.Error("numerically equal tuple should collapse")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if !r.Delete(tup(1, 2)) || r.Delete(tup(1, 2)) {
		t.Error("delete semantics broken")
	}
	if !r.Empty() {
		t.Error("relation should be empty")
	}
}

// TestProjectDedup checks set-semantics projection.
func TestProjectDedup(t *testing.T) {
	r := FromRows(NewSchema("A", "B"), tup(1, 1), tup(1, 2), tup(2, 2))
	p := r.Project([]int{0}, NewSchema("A"))
	if p.Len() != 2 {
		t.Errorf("projection should collapse to 2 rows, got %d", p.Len())
	}
}

// TestEqualContents checks column alignment by name.
func TestEqualContents(t *testing.T) {
	a := FromRows(NewSchema("A", "B"), tup(1, 2), tup(3, 4))
	b := FromRows(NewSchema("B", "A"), tup(2, 1), tup(4, 3))
	if !a.EqualContents(b) {
		t.Error("EqualContents should align columns by name")
	}
	if a.Equal(b) {
		t.Error("Equal is order-sensitive and should fail here")
	}
	c := FromRows(NewSchema("B", "A"), tup(2, 1), tup(4, 5))
	if a.EqualContents(c) {
		t.Error("different contents must not compare equal")
	}
}

// TestContentKeyCharacterizes: equal keys iff equal relations.
func TestContentKeyCharacterizes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Relation {
			r := New(NewSchema("A", "B"))
			for i := 0; i < rng.Intn(5); i++ {
				r.Insert(tup(int64(rng.Intn(3)), int64(rng.Intn(3))))
			}
			return r
		}
		a, b := mk(), mk()
		return (a.ContentKey() == b.ContentKey()) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTuplesSorted checks deterministic iteration.
func TestTuplesSorted(t *testing.T) {
	r := FromRows(NewSchema("A"), tup(3), tup(1), tup(2))
	ts := r.Tuples()
	for i := 1; i < len(ts); i++ {
		if !ts[i-1].Less(ts[i]) {
			t.Fatalf("tuples not sorted: %v", ts)
		}
	}
}

// TestRender checks the paper-style ASCII table output.
func TestRender(t *testing.T) {
	r := FromRows(NewSchema("Dep", "Arr"),
		Tuple{value.Str("FRA"), value.Str("BCN")},
		Tuple{value.Str("FRA"), value.Str("ATL")})
	out := r.Render("Flights")
	for _, want := range []string{"Flights", "Dep", "Arr", "FRA", "BCN", "ATL"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering misses %q:\n%s", want, out)
		}
	}
	empty := New(NewSchema("A"))
	if !strings.Contains(empty.String(), "(empty)") {
		t.Error("empty relation should render a marker")
	}
}

// TestWithSchemaSharesRows: renaming is O(1) and views the same rows.
func TestWithSchemaSharesRows(t *testing.T) {
	r := FromRows(NewSchema("A"), tup(1))
	v := r.WithSchema(NewSchema("B"))
	if v.Len() != 1 || !v.Schema().Equal(Schema{"B"}) {
		t.Error("WithSchema should keep rows and swap names")
	}
}

// TestWithSchemaSharesIndexCache: a relation and its renames share one
// IndexOn cache — concurrent first probes through different renames
// build one index — and a mutation detaches the mutated relation from
// it instead of clearing it under its siblings.
func TestWithSchemaSharesIndexCache(t *testing.T) {
	r := New(NewSchema("A", "B"))
	for i := int64(0); i < 100; i++ {
		r.Insert(tup(i, i%7))
	}
	var wg sync.WaitGroup
	got := make([]*Index, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = r.WithSchema(NewSchema("X", "Y")).IndexOn([]int{1})
		}(g)
	}
	wg.Wait()
	want := r.IndexOn([]int{1})
	for g, ix := range got {
		if ix != want {
			t.Fatalf("goroutine %d built its own index", g)
		}
	}
	if n := len(want.Lookup(tup(3), nil)); n != 14 {
		t.Fatalf("lookup by constant key: %d rows, want 14", n)
	}
	c := r.Clone()
	c.Insert(tup(1000, 3))
	if n := len(c.IndexOn([]int{1}).Lookup(tup(3), nil)); n != 15 {
		t.Fatalf("index of the mutated copy: %d rows, want 15", n)
	}
	if r.IndexOn([]int{1}) != want {
		t.Fatal("mutating a copy dropped the original's index")
	}
}

// TestIndexGroupsSplitsCollisions: Index.Groups hands over each distinct
// key once with exactly its rows and the least of them — a
// collision-free bucket as it is, and a bucket holding two keys under
// one planted digest split by EqualOn — and keeps the split for the
// next call.
func TestIndexGroupsSplitsCollisions(t *testing.T) {
	ix := &Index{cols: []int{0}, buckets: map[uint64][]Tuple{
		7: {tup(1, 10), tup(2, 20), tup(1, 11), tup(2, 21), tup(1, 12)},
		9: {tup(3, 30), tup(3, 31)},
	}}
	own := ix.buckets[9]
	got := map[int64][]Tuple{}
	ix.Groups(func(g IndexGroup) {
		rows := g.Rows
		k := rows[0][0].AsInt()
		if !g.Least.Equal(slices.MinFunc(rows, Tuple.Compare)) {
			t.Fatalf("key %d: least row %v", k, g.Least)
		}
		if _, dup := got[k]; dup {
			t.Fatalf("key %d handed over twice", k)
		}
		for _, r := range rows {
			if r[0].AsInt() != k {
				t.Fatalf("group of key %d holds %v", k, r)
			}
		}
		if k == 3 && &rows[0] != &own[0] {
			t.Fatal("a collision-free bucket was copied")
		}
		got[k] = rows
	})
	want := map[int64]int{1: 3, 2: 2, 3: 2}
	for k, n := range want {
		if len(got[k]) != n {
			t.Fatalf("key %d: %d rows, want %d (groups %v)", k, len(got[k]), n, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	if b := ix.buckets[7]; !b[0].Equal(tup(1, 10)) || !b[1].Equal(tup(2, 20)) || len(b) != 5 {
		t.Fatalf("splitting changed the bucket: %v", b)
	}
	kept := ix.groups.Load()
	n := 0
	ix.Groups(func(IndexGroup) { n++ })
	if kept == nil || ix.groups.Load() != kept || n != len(want) {
		t.Fatalf("second call: %d groups, split kept %v", n, kept != nil && ix.groups.Load() == kept)
	}
}

// TestTupleKeySeparatorSafety: tuple keys must not confuse field
// boundaries (("ab", "c") vs ("a", "bc")).
func TestTupleKeySeparatorSafety(t *testing.T) {
	a := Tuple{value.Str("ab"), value.Str("c")}
	b := Tuple{value.Str("a"), value.Str("bc")}
	if a.Key() == b.Key() {
		t.Error("tuple keys must be injective across field boundaries")
	}
}
