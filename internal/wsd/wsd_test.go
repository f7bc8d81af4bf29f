package wsd_test

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

// TestRepairByKeyCensus: the paper's 5-row census decomposes into 1
// certain tuple and two 2-alternative components — 4 worlds in size 5.
func TestRepairByKeyCensus(t *testing.T) {
	d, err := wsd.RepairByKey("Census", datagen.PaperCensus(), []string{"SSN"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Names) != 1 || d.Names[0] != "Census" {
		t.Errorf("relations = %v, want [Census]", d.Names)
	}
	if d.Certain[0].Len() != 1 {
		t.Errorf("certain tuples = %d, want 1 (SSN 333)", d.Certain[0].Len())
	}
	if len(d.Components) != 2 {
		t.Errorf("components = %d, want 2", len(d.Components))
	}
	if d.Worlds().Int64() != 4 {
		t.Errorf("worlds = %s, want 4", d.Worlds())
	}
	if d.Size() != 5 {
		t.Errorf("size = %d, want 5 (the input tuples)", d.Size())
	}
}

// TestRepairDecompositionMatchesEnumeration: wsd.RepairByKey(R) expands to
// the reference repair-by-key world enumeration.
func TestRepairDecompositionMatchesEnumeration(t *testing.T) {
	census := datagen.PaperCensus()
	d, err := wsd.RepairByKey("Census", census, []string{"SSN"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	ws := worldset.FromDB([]string{"Census"}, []*relation.Relation{census})
	ref, err := wsa.Eval(&wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}, ws)
	if err != nil {
		t.Fatal(err)
	}
	// The reference result carries (Census, answer); project to the
	// answer only for comparison.
	refAnswers := worldset.New([]string{"Census"}, []relation.Schema{census.Schema()})
	ref.Each(func(w worldset.World) { refAnswers.Add(worldset.World{w[1]}) })
	if !got.EqualWorlds(refAnswers) {
		t.Fatalf("decomposition expands to different repairs:\n%s\nvs\n%s", got, refAnswers)
	}
}

// TestHugeRepairWithoutEnumeration is the point of the representation:
// 40 duplicated SSNs mean 2^40 repairs — far beyond enumeration — yet
// possible and certain answers come out of the factorized engine
// without expanding a world, and expansion is refused with the typed
// budget error.
func TestHugeRepairWithoutEnumeration(t *testing.T) {
	census := datagen.Census(10000, 40, 7)
	d, err := wsd.RepairByKey("Census", census, []string{"SSN"})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 40)
	if d.Worlds().Cmp(want) != 0 {
		t.Fatalf("worlds = %s, want 2^40", d.Worlds())
	}
	if d.Size() != census.Len() {
		t.Fatalf("size = %d, want the %d input tuples", d.Size(), census.Len())
	}
	poss := closed(t, wsa.ClosePoss, d)
	if poss.Len() != census.Len() {
		t.Errorf("every input tuple is possible: got %d of %d", poss.Len(), census.Len())
	}
	cert := closed(t, wsa.CloseCert, d)
	// Exactly the tuples of non-duplicated SSNs are certain.
	if got, want := cert.Len(), census.Len()-2*40; got != want {
		t.Errorf("certain tuples = %d, want %d", got, want)
	}
	_, err = d.Expand(1 << 16)
	var be *wsd.BudgetError
	if !errors.As(err, &be) || be.Worlds.Cmp(want) != 0 || be.Budget != 1<<16 {
		t.Errorf("expansion of 2^40 worlds returned %v, want a *wsd.BudgetError for 2^40 over 2^16", err)
	}
}

// TestPossCertAgainstExpansion: on expandable repairs, the factorized
// engine's poss and cert agree with the explicit union/intersection
// over the expanded worlds.
func TestPossCertAgainstExpansion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		census := datagen.Census(6+rng.Intn(6), 1+rng.Intn(3), seed)
		d, err := wsd.RepairByKey("R", census, []string{"SSN"})
		if err != nil {
			return false
		}
		ws, err := d.Expand(0)
		if err != nil {
			return false
		}
		worlds := ws.Worlds()
		union := relation.New(census.Schema())
		inter := worlds[0][0].Clone()
		for _, w := range worlds {
			w[0].Each(func(tup relation.Tuple) { union.Insert(tup) })
			next := relation.New(census.Schema())
			inter.Each(func(tup relation.Tuple) {
				if w[0].Contains(tup) {
					next.Insert(tup)
				}
			})
			inter = next
		}
		return closed(t, wsa.ClosePoss, d).Equal(union) && closed(t, wsa.CloseCert, d).Equal(inter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// closed evaluates poss or cert of the decomposition's first relation
// natively with the factorized engine and returns the answer, which
// must come out certain: no component contributes to it.
func closed(t *testing.T, kind wsa.CloseKind, d *wsd.DecompDB) *relation.Relation {
	t.Helper()
	q := &wsa.Close{Kind: kind, From: &wsa.Rel{Name: d.Names[0]}}
	out, _, err := wsdexec.EvalOpts(q, d, &wsdexec.Options{NoFallback: true})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	ans := len(out.Names) - 1
	for _, c := range out.Components {
		for _, a := range c.Alternatives {
			if r := a.Rel(ans); r != nil && r.Len() > 0 {
				t.Fatalf("%s: a component contributes to the answer", q)
			}
		}
	}
	return out.Certain[ans]
}

// TestDecomposeRoundTrip: Refactor of a one-relation world-set
// followed by Expand reproduces the world-set.
func TestDecomposeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := datagen.RandomWorldSet(rng, []string{"R"},
			[]relation.Schema{relation.NewSchema("A", "B")}, 3, 4, 6)
		d, err := wsd.Refactor(ws)
		if err != nil {
			return false
		}
		back, err := d.Expand(0)
		if err != nil {
			return false
		}
		return back.EqualWorlds(ws)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestDecomposeFactorsProducts: a one-relation world-set that is a
// genuine product of two independent choices refactors into two
// components (succinctness), not one.
func TestDecomposeFactorsProducts(t *testing.T) {
	schema := relation.NewSchema("A")
	// Worlds: {1 or 2} × {10 or 20} — four worlds.
	ws := worldset.New([]string{"R"}, []relation.Schema{schema})
	for _, a := range []int64{1, 2} {
		for _, b := range []int64{10, 20} {
			ws.Add(worldset.World{intRel(schema, a, b)})
		}
	}
	d, err := wsd.Refactor(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Components) != 2 {
		t.Fatalf("expected 2 independent components, got %d:\n%s", len(d.Components), d)
	}
	if d.Worlds().Int64() != 4 {
		t.Fatalf("worlds = %s, want 4", d.Worlds())
	}
	if d.Size() != 4 {
		t.Fatalf("size = %d, want 4 (2 + 2 alternatives)", d.Size())
	}
	back, err := d.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !back.EqualWorlds(ws) {
		t.Fatal("factored decomposition must expand to the input")
	}
}

// TestDecomposeCorrelatedFallsBack: XOR-correlated tuples (never
// together, never both absent) cannot factor and stay in one component.
func TestDecomposeCorrelatedFallsBack(t *testing.T) {
	schema := relation.NewSchema("A")
	ws := worldset.New([]string{"R"}, []relation.Schema{schema})
	ws.Add(worldset.World{intRel(schema, 1)})
	ws.Add(worldset.World{intRel(schema, 2)})
	d, err := wsd.Refactor(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Components) != 1 {
		t.Fatalf("XOR tuples must share a component, got %d", len(d.Components))
	}
	back, err := d.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !back.EqualWorlds(ws) {
		t.Fatal("round trip failed")
	}
}

func intRel(schema relation.Schema, vals ...int64) *relation.Relation {
	r := relation.New(schema)
	for _, v := range vals {
		r.InsertValues(value.Int(v))
	}
	return r
}
