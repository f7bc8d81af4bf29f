package wsd

import (
	"errors"
	"math/rand"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
)

func intTuple(vs ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vs))
	for i, v := range vs {
		t[i] = value.Int(v)
	}
	return t
}

// refactorRoundTrip asserts the defining property of Refactor: expanding
// the decomposition renders byte-identically to the input world-set.
func refactorRoundTrip(t *testing.T, ws *worldset.WorldSet) *DecompDB {
	t.Helper()
	db, err := Refactor(ws)
	if err != nil {
		t.Fatalf("Refactor: %v", err)
	}
	got, err := db.Expand(0)
	if err != nil {
		t.Fatalf("expanding the refactored decomposition: %v", err)
	}
	if g, w := got.String(), ws.String(); g != w {
		t.Fatalf("round trip differs\n--- refactored+expanded ---\n%s\n--- input ---\n%s\ndecomposition:\n%s", g, w, db)
	}
	return db
}

// TestRefactorFactorsProducts pins the succinctness property: a
// world-set that is a product of independent choices refactors into one
// component per choice, not one alternative per world.
func TestRefactorFactorsProducts(t *testing.T) {
	// Two independent binary choices over two relations: R picks tuple
	// (1) or (2), S independently picks (10) or (20) → 4 worlds.
	names := []string{"R", "S"}
	schemas := []relation.Schema{relation.NewSchema("A"), relation.NewSchema("B")}
	ws := worldset.New(names, schemas)
	for _, a := range []int64{1, 2} {
		for _, b := range []int64{10, 20} {
			ws.Add(worldset.World{
				relation.FromRows(schemas[0], intTuple(a), intTuple(99)),
				relation.FromRows(schemas[1], intTuple(b)),
			})
		}
	}
	db := refactorRoundTrip(t, ws)
	if len(db.Components) != 2 {
		t.Fatalf("product of two independent choices should factor into 2 components, got %d\n%s", len(db.Components), db)
	}
	for _, c := range db.Components {
		if len(c.Alternatives) != 2 {
			t.Fatalf("each component should have 2 alternatives\n%s", db)
		}
	}
	if !db.Certain[0].Contains(intTuple(99)) {
		t.Fatalf("the shared tuple (99) must be certain\n%s", db)
	}
	if db.Worlds().Int64() != 4 {
		t.Fatalf("worlds = %s, want 4", db.Worlds())
	}
}

// TestRefactorCrossRelationComponent checks that a dependency spanning
// relations lands in a single multi-relation component.
func TestRefactorCrossRelationComponent(t *testing.T) {
	// R's tuple and S's tuple appear together or not at all: one
	// component contributing to both relations.
	names := []string{"R", "S"}
	schemas := []relation.Schema{relation.NewSchema("A"), relation.NewSchema("B")}
	ws := worldset.New(names, schemas)
	ws.Add(worldset.World{
		relation.FromRows(schemas[0], intTuple(1)),
		relation.FromRows(schemas[1], intTuple(10)),
	})
	ws.Add(worldset.World{
		relation.New(schemas[0]),
		relation.New(schemas[1]),
	})
	db := refactorRoundTrip(t, ws)
	if len(db.Components) != 1 {
		t.Fatalf("want 1 component spanning both relations, got %d\n%s", len(db.Components), db)
	}
	spans := map[int]bool{}
	for _, a := range db.Components[0].Alternatives {
		for ri, r := range a.Rels {
			if r.Len() > 0 {
				spans[ri] = true
			}
		}
	}
	if !spans[0] || !spans[1] {
		t.Fatalf("component should contribute to both relations\n%s", db)
	}
}

// TestRefactorJointlyDependentFallsBack: three worlds cannot factor
// (3 is prime and no block structure fits), so Refactor must keep a
// single verified component — and still round-trip exactly.
func TestRefactorJointlyDependentFallsBack(t *testing.T) {
	names := []string{"R"}
	schemas := []relation.Schema{relation.NewSchema("A")}
	ws := worldset.New(names, schemas)
	ws.Add(worldset.World{relation.FromRows(schemas[0], intTuple(1))})
	ws.Add(worldset.World{relation.FromRows(schemas[0], intTuple(2))})
	ws.Add(worldset.World{relation.FromRows(schemas[0], intTuple(1), intTuple(2))})
	db := refactorRoundTrip(t, ws)
	if len(db.Components) != 1 || len(db.Components[0].Alternatives) != 3 {
		t.Fatalf("want the single-component fallback with 3 alternatives\n%s", db)
	}
}

// TestRefactorEdgeCases: empty world-set, singleton, single world with
// empty relations.
func TestRefactorEdgeCases(t *testing.T) {
	names := []string{"R"}
	schemas := []relation.Schema{relation.NewSchema("A")}

	empty := worldset.New(names, schemas)
	db, err := Refactor(empty)
	if err != nil {
		t.Fatal(err)
	}
	if db.Worlds().Sign() != 0 {
		t.Fatalf("empty world-set must refactor to 0 worlds, got %s", db.Worlds())
	}
	refactorRoundTrip(t, empty)

	single := worldset.New(names, schemas)
	single.Add(worldset.World{relation.FromRows(schemas[0], intTuple(7))})
	db = refactorRoundTrip(t, single)
	if len(db.Components) != 0 || db.Certain[0].Len() != 1 {
		t.Fatalf("singleton world-set must be all-certain\n%s", db)
	}
}

// TestRefactorRandomizedRoundTrip sweeps randomized world-sets —
// including expansions of randomized decompositions, which have real
// product structure — through the byte-identity round trip.
func TestRefactorRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20070714))
	names := []string{"R", "S"}
	schemas := []relation.Schema{relation.NewSchema("A", "B"), relation.NewSchema("C")}
	for i := 0; i < 60; i++ {
		ws := randomWorldSet(rng, names, schemas, 3, 3, 4)
		refactorRoundTrip(t, ws)
	}
	for i := 0; i < 60; i++ {
		db := randomDecompDB(rng, names, schemas)
		ws, err := db.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		re := refactorRoundTrip(t, ws)
		// The refactorization must be at least as succinct as the
		// (normalized) generator output: no more worlds than stored size
		// blowup. Weak sanity bound: size within the expanded total.
		if re.Size() > ws.Len()*16 {
			t.Fatalf("refactored size %d looks unfactored for %d worlds", re.Size(), ws.Len())
		}
	}
}

// randomWorldSet is a local copy of datagen.RandomWorldSet (datagen
// imports wsd, so wsd tests cannot import datagen).
func randomWorldSet(rng *rand.Rand, names []string, schemas []relation.Schema, domain, maxTuples, maxWorlds int) *worldset.WorldSet {
	ws := worldset.New(names, schemas)
	n := 1 + rng.Intn(maxWorlds)
	for i := 0; i < n; i++ {
		w := make(worldset.World, len(schemas))
		for j, s := range schemas {
			r := relation.New(s)
			for k := rng.Intn(maxTuples + 1); k > 0; k-- {
				tup := make(relation.Tuple, len(s))
				for c := range tup {
					tup[c] = value.Int(int64(rng.Intn(domain)))
				}
				r.Insert(tup)
			}
			w[j] = r
		}
		ws.Add(w)
	}
	return ws
}

func randomDecompDB(rng *rand.Rand, names []string, schemas []relation.Schema) *DecompDB {
	db := NewDecompDB(names, schemas)
	for i, s := range schemas {
		r := relation.New(s)
		for k := rng.Intn(3); k > 0; k-- {
			r.Insert(intTuple(int64(rng.Intn(3)), int64(rng.Intn(3)))[:len(s)])
		}
		db.Certain[i] = r
	}
	for c := rng.Intn(3); c > 0; c-- {
		comp := DBComponent{}
		for a := 1 + rng.Intn(3); a > 0; a-- {
			alt := DBAlternative{Rels: map[int]*relation.Relation{}}
			for i, s := range schemas {
				if rng.Intn(2) == 0 {
					continue
				}
				r := relation.New(s)
				for k := rng.Intn(2) + 1; k > 0; k-- {
					tup := make(relation.Tuple, len(s))
					for ci := range tup {
						tup[ci] = value.Int(int64(rng.Intn(3)))
					}
					r.Insert(tup)
				}
				alt.Rels[i] = r
			}
			comp.Alternatives = append(comp.Alternatives, alt)
		}
		db.Components = append(db.Components, comp)
	}
	return db
}

// TestNormalizeCollapses: certain-shadowed alternative tuples are
// stripped, duplicate alternatives merge, and single-alternative
// components fold into certain — with the represented world-set
// unchanged.
func TestNormalizeCollapses(t *testing.T) {
	names := []string{"R"}
	schemas := []relation.Schema{relation.NewSchema("A")}
	db := NewDecompDB(names, schemas)
	db.Certain[0] = relation.FromRows(schemas[0], intTuple(1))
	// Component whose alternatives differ only by a certain tuple →
	// collapses entirely and folds its shared tuple into certain.
	db.Components = append(db.Components, DBComponent{Alternatives: []DBAlternative{
		{Rels: map[int]*relation.Relation{0: relation.FromRows(schemas[0], intTuple(1), intTuple(2))}},
		{Rels: map[int]*relation.Relation{0: relation.FromRows(schemas[0], intTuple(2))}},
	}})
	// A genuine choice stays.
	db.Components = append(db.Components, DBComponent{Alternatives: []DBAlternative{
		{Rels: map[int]*relation.Relation{0: relation.FromRows(schemas[0], intTuple(3))}},
		{Rels: map[int]*relation.Relation{0: relation.FromRows(schemas[0], intTuple(4))}},
	}})
	before, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	norm := db.Normalize()
	after, err := norm.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if after.String() != before.String() {
		t.Fatalf("Normalize changed the represented world-set\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if len(norm.Components) != 1 {
		t.Fatalf("want 1 surviving component, got %d\n%s", len(norm.Components), norm)
	}
	if got := norm.Worlds().Int64(); got != 2 {
		t.Fatalf("normalized world count = %d, want 2", got)
	}
	if !norm.Certain[0].Contains(intTuple(2)) {
		t.Fatalf("folded tuple (2) must be certain\n%s", norm)
	}
}

// TestInstancesEnumeratesOnlyDependencies: with 30 components but an
// answer relation depending on one, Instances lists the two variants
// without a budget error, while Expand of the whole decomposition would
// refuse.
func TestInstancesEnumeratesOnlyDependencies(t *testing.T) {
	names := []string{"R", "Ans"}
	schemas := []relation.Schema{relation.NewSchema("A"), relation.NewSchema("B")}
	db := NewDecompDB(names, schemas)
	for i := 0; i < 30; i++ {
		comp := DBComponent{}
		for a := 0; a < 2; a++ {
			alt := DBAlternative{Rels: map[int]*relation.Relation{
				0: relation.FromRows(schemas[0], intTuple(int64(10*i+a))),
			}}
			if i == 7 { // only component 7 touches Ans
				alt.Rels[1] = relation.FromRows(schemas[1], intTuple(int64(a)))
			}
			comp.Alternatives = append(comp.Alternatives, alt)
		}
		db.Components = append(db.Components, comp)
	}
	if _, err := db.Expand(1 << 20); err == nil {
		t.Fatal("2^30 worlds should not expand within the default budget")
	}
	insts, err := db.Instances(1, 1<<20)
	if err != nil {
		t.Fatalf("Instances should not need to expand: %v", err)
	}
	if len(insts) != 2 {
		t.Fatalf("want 2 distinct Ans instances, got %d", len(insts))
	}
	// But a relation depending on all 30 components is refused with the
	// shared budget-error shape.
	_, err = db.Instances(0, 1<<20)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError for the entangled relation, got %v", err)
	}
}

// TestPresenceCount checks the component-independence counting.
func TestPresenceCount(t *testing.T) {
	names := []string{"R"}
	schemas := []relation.Schema{relation.NewSchema("A")}
	db := NewDecompDB(names, schemas)
	db.Certain[0] = relation.FromRows(schemas[0], intTuple(99))
	db.Components = []DBComponent{
		{Alternatives: []DBAlternative{
			{Rels: map[int]*relation.Relation{0: relation.FromRows(schemas[0], intTuple(1))}},
			{Rels: map[int]*relation.Relation{0: relation.FromRows(schemas[0], intTuple(2))}},
			{Rels: map[int]*relation.Relation{}},
		}},
		{Alternatives: []DBAlternative{
			{Rels: map[int]*relation.Relation{0: relation.FromRows(schemas[0], intTuple(3))}},
			{Rels: map[int]*relation.Relation{}},
		}},
	}
	// 6 distinct worlds; tuple (99) certain → 6; (1) and (2) each in one
	// of three comp-1 alternatives → 2; (3) in one of two comp-2
	// alternatives → 3.
	if got := db.PresenceCount(0, intTuple(99)).Int64(); got != 6 {
		t.Fatalf("certain tuple presence = %d, want 6", got)
	}
	if got := db.PresenceCount(0, intTuple(2)).Int64(); got != 2 {
		t.Fatalf("presence of (2) = %d, want 2", got)
	}
	if got := db.PresenceCount(0, intTuple(3)).Int64(); got != 3 {
		t.Fatalf("presence of (3) = %d, want 3", got)
	}
	// Brute-force cross-check against the enumeration.
	ws, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range []relation.Tuple{intTuple(1), intTuple(2), intTuple(99), intTuple(42)} {
		want := 0
		for _, w := range ws.Worlds() {
			if w[0].Contains(tup) {
				want++
			}
		}
		if got := db.PresenceCount(0, tup).Int64(); got != int64(want) {
			t.Fatalf("presence of %v = %d, enumeration says %d", tup, got, want)
		}
	}
}

// TestDropRelationNormalizeCollapsesWorlds: dropping the only relation
// that distinguished the alternatives must collapse the world count,
// matching the world-set semantics of dropping a relation.
func TestDropRelationNormalizeCollapsesWorlds(t *testing.T) {
	names := []string{"R", "S"}
	schemas := []relation.Schema{relation.NewSchema("A"), relation.NewSchema("B")}
	db := NewDecompDB(names, schemas)
	db.Components = []DBComponent{{Alternatives: []DBAlternative{
		{Rels: map[int]*relation.Relation{
			0: relation.FromRows(schemas[0], intTuple(1)),
			1: relation.FromRows(schemas[1], intTuple(5)),
		}},
		{Rels: map[int]*relation.Relation{
			0: relation.FromRows(schemas[0], intTuple(1)),
			1: relation.FromRows(schemas[1], intTuple(6)),
		}},
	}}}
	dropped := db.DropRelation(1).Normalize()
	if got := dropped.Worlds().Int64(); got != 1 {
		t.Fatalf("worlds after dropping the distinguishing relation = %d, want 1\n%s", got, dropped)
	}
	if !dropped.Certain[0].Contains(intTuple(1)) {
		t.Fatalf("surviving tuple must fold into certain\n%s", dropped)
	}
}

// structureKey renders a decomposition exactly: names, schemas, certain
// contents, and per component its ID and each alternative's contents.
func structureKey(db *DecompDB) string {
	var b []byte
	for i, name := range db.Names {
		b = append(b, name...)
		b = append(b, db.Schemas[i].String()...)
		b = append(b, db.Certain[i].ContentKey()...)
		b = append(b, 0x1e)
	}
	for _, c := range db.Components {
		b = append(b, byte(c.ID), 0x1d)
		for _, a := range c.Alternatives {
			for ri := range db.Names {
				if r := a.Rels[ri]; r != nil && r.Len() > 0 {
					b = append(b, byte(ri), 0x1c)
					b = append(b, r.ContentKey()...)
				}
			}
			b = append(b, 0x1d)
		}
	}
	return string(b)
}

// TestInsertCertainMatchesNormalize: on randomized decompositions at
// Normalize's fixpoint, InsertCertain builds exactly what WithCertain +
// Normalize builds — including components that collapse and fold
// tuples into other relations — reports the exact certain-part edit,
// and shares every component it did not re-normalize.
func TestInsertCertainMatchesNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	names := []string{"R", "S"}
	schemas := []relation.Schema{relation.NewSchema("A", "B"), relation.NewSchema("C")}
	// Iteration 0 is a fixed collapse: both alternatives hold S(5) and
	// differ only in the R tuples the insert makes certain, so the
	// component folds S(5) into S's certain part.
	collapse := NewDecompDB(names, schemas)
	collapse.Components = []DBComponent{{Alternatives: []DBAlternative{
		{Rels: map[int]*relation.Relation{0: relation.FromRows(schemas[0], intTuple(1, 1)), 1: relation.FromRows(schemas[1], intTuple(5))}},
		{Rels: map[int]*relation.Relation{0: relation.FromRows(schemas[0], intTuple(2, 2)), 1: relation.FromRows(schemas[1], intTuple(5))}},
	}}}
	folds := 0
	for iter := 0; iter < 400; iter++ {
		db, i, ts := collapse, 0, []relation.Tuple{intTuple(1, 1), intTuple(2, 2)}
		if iter > 0 {
			// One Normalize pass is not a fixpoint (a later fold can make
			// an earlier component's tuple certain); run it to one.
			db = randomDecompDB(rng, names, schemas).Normalize()
			for next := db.Normalize(); structureKey(next) != structureKey(db); next = db.Normalize() {
				db = next
			}
			i, ts = rng.Intn(len(names)), nil
			for k := 1 + rng.Intn(3); k > 0; k-- {
				ts = append(ts, intTuple(int64(rng.Intn(3)), int64(rng.Intn(3)))[:len(schemas[i])])
			}
		}
		for ci := range db.Components {
			db.Components[ci].ID = uint64(ci + 1)
		}
		union := db.Certain[i].Clone()
		for _, tup := range ts {
			union.Insert(tup)
		}
		want := db.WithCertain(i, union).Normalize()
		got, added := db.InsertCertain(i, ts)
		if g, w := structureKey(got), structureKey(want); g != w {
			t.Fatalf("iteration %d: InsertCertain differs from WithCertain+Normalize\ninput:\n%s\ngot:\n%s\nwant:\n%s", iter, db, got, want)
		}
		for ri := range db.Certain {
			var diff []relation.Tuple
			got.Certain[ri].Each(func(tup relation.Tuple) {
				if !db.Certain[ri].Contains(tup) {
					diff = append(diff, tup)
				}
			})
			if len(diff) != len(added[ri]) {
				t.Fatalf("iteration %d: relation %d gained %d tuples, edit records %d", iter, ri, len(diff), len(added[ri]))
			}
			for _, tup := range added[ri] {
				if !got.Certain[ri].Contains(tup) || db.Certain[ri].Contains(tup) {
					t.Fatalf("iteration %d: recorded edit %v of relation %d is not an addition", iter, tup, ri)
				}
			}
			if ri != i && len(added[ri]) > 0 {
				folds++
			}
		}
		if len(added) == 0 && got != db {
			t.Fatalf("iteration %d: a no-op insert rebuilt the decomposition", iter)
		}
		shared := map[uint64]bool{}
		for _, c := range db.Components {
			if len(c.Alternatives) > 0 {
				shared[c.ID] = true
			}
		}
		for _, c := range got.Components {
			if orig := db.Components[c.ID-1]; shared[c.ID] && !orig.contributesTo(added) {
				if &orig.Alternatives[0] != &c.Alternatives[0] {
					t.Fatalf("iteration %d: untouched component %d was copied", iter, c.ID)
				}
			}
		}
	}
	if folds == 0 {
		t.Fatal("no insert collapsed a component into another relation: the fold path went untested")
	}
}
