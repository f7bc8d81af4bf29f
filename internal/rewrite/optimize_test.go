package rewrite

import (
	"math/rand"
	"testing"
	"testing/quick"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
)

// tripEnv is the Example 6.1 schema: HFlights(Dep, Arr),
// Hotels(Name, City, Price).
func tripEnv() *wsa.Env {
	return wsa.NewEnv(
		[]string{"HFlights", "Hotels"},
		[]relation.Schema{
			relation.NewSchema("Dep", "Arr"),
			relation.NewSchema("Name", "City", "Price"),
		})
}

func tripWS() *worldset.WorldSet {
	return worldset.FromDB([]string{"HFlights", "Hotels"},
		[]*relation.Relation{datagen.PaperFlights(), datagen.PaperHotels()})
}

// q1 of Figure 8: cert(π_City(σ_{Arr=City}(pγ^*_Dep(χ_{Dep,City}(HFlights × Hotels))))).
func figure8Q1() wsa.Expr {
	return wsa.NewCert(
		&wsa.Project{Columns: []string{"City"},
			From: &wsa.Select{Pred: ra.Eq("Arr", "City"),
				From: wsa.NewPossGroup([]string{"Dep"}, nil,
					&wsa.Choice{Attrs: []string{"Dep", "City"},
						From: wsa.NewProduct(&wsa.Rel{Name: "HFlights"}, &wsa.Rel{Name: "Hotels"})})}})
}

// q1′ of Figure 8: cert(π_City(χ_Dep(HFlights) ⋈_{Arr=City} Hotels)).
func figure8Q1Prime() wsa.Expr {
	return wsa.NewCert(
		&wsa.Project{Columns: []string{"City"},
			From: &wsa.Join{
				L:    &wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "HFlights"}},
				R:    &wsa.Rel{Name: "Hotels"},
				Pred: ra.Eq("Arr", "City")}})
}

// q2 of Figure 9 replaces cert by poss.
func figure9Q2() wsa.Expr {
	return wsa.NewPoss(
		&wsa.Project{Columns: []string{"City"},
			From: &wsa.Select{Pred: ra.Eq("Arr", "City"),
				From: wsa.NewPossGroup([]string{"Dep"}, nil,
					&wsa.Choice{Attrs: []string{"Dep", "City"},
						From: wsa.NewProduct(&wsa.Rel{Name: "HFlights"}, &wsa.Rel{Name: "Hotels"})})}})
}

// q2′ of Figure 9: π_City(poss(HFlights ⋈_{Arr=City} Hotels)).
func figure9Q2Prime() wsa.Expr {
	return &wsa.Project{Columns: []string{"City"},
		From: wsa.NewPoss(&wsa.Join{
			L:    &wsa.Rel{Name: "HFlights"},
			R:    &wsa.Rel{Name: "Hotels"},
			Pred: ra.Eq("Arr", "City")})}
}

func hasNode(q wsa.Expr, pred func(wsa.Expr) bool) bool {
	found := false
	wsa.Walk(q, func(e wsa.Expr) {
		if pred(e) {
			found = true
		}
	})
	return found
}

// TestFigure8Rewrite checks that the optimizer reproduces the q1 → q1′
// rewriting: the group-worlds-by and the product disappear, the
// choice-of narrows to Dep, and the plan is at least as cheap as the
// paper's q1′ while remaining semantically equivalent.
func TestFigure8Rewrite(t *testing.T) {
	q1 := figure8Q1()
	q1p := figure8Q1Prime()
	opt, trace := Optimize(q1, tripEnv(), true)

	if Cost(opt) > Cost(q1p) {
		t.Errorf("optimized cost %.1f exceeds q1′ cost %.1f\noptimized: %s\ntrace: %v",
			Cost(opt), Cost(q1p), opt, trace)
	}
	if hasNode(opt, func(e wsa.Expr) bool { _, ok := e.(*wsa.Group); return ok }) {
		t.Errorf("optimized q1 still contains group-worlds-by: %s", opt)
	}
	if hasNode(opt, func(e wsa.Expr) bool {
		b, ok := e.(*wsa.BinOp)
		return ok && b.Kind == wsa.OpProduct
	}) {
		t.Errorf("optimized q1 still contains a raw product: %s", opt)
	}

	// Semantic equivalence of q1, q1′ and the optimizer output on the
	// paper's trip-planning database.
	ws := tripWS()
	ref, err := wsa.Eval(q1, ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []wsa.Expr{q1p, opt} {
		got, err := wsa.Eval(q, ws)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !got.EqualWorlds(ref) {
			t.Errorf("%s is not equivalent to q1", q)
		}
	}
}

// TestFigure9Rewrite checks the q2 → q2′ rewriting: poss is pushed below
// projection and selection, absorbs the choice-of (equation (11)), and
// the final plan has neither choice-of nor group-worlds-by.
func TestFigure9Rewrite(t *testing.T) {
	q2 := figure9Q2()
	q2p := figure9Q2Prime()
	opt, trace := Optimize(q2, tripEnv(), true)

	if Cost(opt) > Cost(q2p) {
		t.Errorf("optimized cost %.1f exceeds q2′ cost %.1f\noptimized: %s\ntrace: %v",
			Cost(opt), Cost(q2p), opt, trace)
	}
	if hasNode(opt, func(e wsa.Expr) bool { _, ok := e.(*wsa.Group); return ok }) {
		t.Errorf("optimized q2 still contains group-worlds-by: %s", opt)
	}
	if hasNode(opt, func(e wsa.Expr) bool { _, ok := e.(*wsa.Choice); return ok }) {
		t.Errorf("optimized q2 still contains choice-of: %s", opt)
	}

	ws := tripWS()
	ref, err := wsa.Eval(q2, ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []wsa.Expr{q2p, opt} {
		got, err := wsa.Eval(q, ws)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !got.EqualWorlds(ref) {
			t.Errorf("%s is not equivalent to q2", q)
		}
	}
}

// TestPrunedSearchExpandsLess: over the Figure 8 and 9 queries, the
// served search (selections pushed, then best-first rewriting on
// decomposition statistics) with its branch-and-bound bound expands at
// most 1/1.3 of the candidates the exhaustive search does, and picks
// plans no costlier.
func TestPrunedSearchExpandsLess(t *testing.T) {
	env := tripEnv()
	st := Stats{
		"HFlights": {Certain: 500, Alternative: 140, Components: 40},
		"Hotels":   {Certain: 20},
	}
	search := func(noPrune bool) (expanded int, cost float64) {
		for _, q := range []wsa.Expr{figure8Q1(), figure9Q2()} {
			var ss SearchStats
			best, _ := OptimizeOpts(PushSelections(q, env), env, false,
				&Options{MaxExpansions: 200, MaxSize: 60, Stats: st, NoPrune: noPrune, Search: &ss})
			expanded += ss.Expanded
			cost += CostOn(best, st)
		}
		return expanded, cost
	}
	pruned, prunedCost := search(false)
	exhaustive, exhaustiveCost := search(true)
	t.Logf("expanded: pruned %d, exhaustive %d", pruned, exhaustive)
	if prunedCost > exhaustiveCost {
		t.Errorf("pruning changed the chosen plans: cost %.1f pruned vs %.1f exhaustive", prunedCost, exhaustiveCost)
	}
	if 1.3*float64(pruned) > float64(exhaustive) {
		t.Errorf("pruned search expanded %d candidates, exhaustive %d: under 1.3x fewer", pruned, exhaustive)
	}
}

// TestOptimizePreservesSemantics fuzzes the whole optimizer: for a zoo
// of queries, the optimized plan must agree with the original on random
// inputs (multi-world inputs with the CompleteOnly rules disabled,
// singleton inputs with them enabled).
func TestOptimizePreservesSemantics(t *testing.T) {
	zoo := []wsa.Expr{
		figure8Q1(), figure9Q2(),
	}
	// Also run the generic-schema queries.
	generic := []wsa.Expr{
		wsa.NewPoss(sel(proj(choice(rel("R"), "A", "B"), "A", "B"), ra.Eq("A", "B"))),
		wsa.NewCert(proj(choice(rel("R"), "A"), "B")),
		wsa.NewPossGroup([]string{"A"}, []string{"A"}, choice(rel("R"), "A", "C")),
		wsa.NewPoss(wsa.NewPoss(choice(rel("R"), "A"))),
		sel(wsa.NewCertGroup([]string{"A", "B"}, []string{"A"}, choice(rel("R"), "C")),
			ra.EqConst("A", value.Int(1))),
	}
	for _, complete := range []bool{false, true} {
		for qi, q := range generic {
			opt, _ := Optimize(q, wsa.NewEnv(eqNames, eqSchemas), complete)
			maxWorlds := 4
			if complete {
				maxWorlds = 1
			}
			qi, q, opt := qi, q, opt
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				ws := datagen.RandomWorldSet(rng, eqNames, eqSchemas, 3, 4, maxWorlds)
				want, err := wsa.Eval(q, ws)
				if err != nil {
					return false
				}
				got, err := wsa.Eval(opt, ws)
				if err != nil {
					return false
				}
				return got.EqualWorlds(want)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Errorf("generic query %d (complete=%v): optimizer broke semantics: %s → %s: %v",
					qi, complete, q, opt, err)
			}
		}
	}
	// Trip-planning zoo on the paper database.
	ws := tripWS()
	for qi, q := range zoo {
		opt, _ := Optimize(q, tripEnv(), true)
		want, err := wsa.Eval(q, ws)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wsa.Eval(opt, ws)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualWorlds(want) {
			t.Errorf("zoo query %d: optimizer broke semantics: %s → %s", qi, q, opt)
		}
	}
}
