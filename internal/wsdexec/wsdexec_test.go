package wsdexec

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"time"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
)

func repairQuery(close wsa.CloseKind) wsa.Expr {
	return &wsa.Close{Kind: close,
		From: &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}}
}

// TestCensusRepair2p40 is the engine's reason to exist: certain and
// possible answers over the census-repair view with 2^40 repairs,
// computed natively on the decomposition — no enumeration — in well
// under the 100ms budget.
func TestCensusRepair2p40(t *testing.T) {
	census := datagen.Census(2000, 40, 7)
	db := wsd.FromComplete([]string{"Census"}, []*relation.Relation{census})
	budget := 100 * time.Millisecond
	if raceEnabled {
		budget *= 10
	}
	want := new(big.Int).Lsh(big.NewInt(1), 40)

	var certLen, possLen int
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		outC, planC, err := EvalOpts(repairQuery(wsa.CloseCert), db, &Options{NoFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		outP, planP, err := EvalOpts(repairQuery(wsa.ClosePoss), db, &Options{NoFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
		if !planC.Native || !planP.Native {
			t.Fatalf("plans not native: cert=%v poss=%v", planC, planP)
		}
		if got := outC.Worlds(); got.Cmp(want) != 0 {
			t.Fatalf("output worlds = %s, want 2^40", got)
		}
		certLen = outC.Certain[1].Len()
		possLen = outP.Certain[1].Len()
	}
	if certLen != census.Len()-2*40 {
		t.Errorf("certain tuples = %d, want %d", certLen, census.Len()-2*40)
	}
	if possLen != census.Len() {
		t.Errorf("possible tuples = %d, want %d (every input tuple)", possLen, census.Len())
	}
	if best > budget {
		t.Errorf("cert+poss over 2^40 repairs took %s, want under %s", best, budget)
	}
	t.Logf("cert+poss over 2^40 repairs: %s (budget %s)", best, budget)
}

// TestNativeAgainstReference pins the native paths to the Figure 3
// semantics on expandable decompositions: evaluate on the
// decomposition, expand, and compare world-sets with the reference
// evaluator run on the expanded input.
func TestNativeAgainstReference(t *testing.T) {
	census := datagen.PaperCensus()
	db := wsd.FromComplete([]string{"Census"}, []*relation.Relation{census})
	queries := []wsa.Expr{
		&wsa.Rel{Name: "Census"},
		repairQuery(wsa.CloseCert),
		repairQuery(wsa.ClosePoss),
		&wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}},
		&wsa.Select{Pred: ra.Eq("POB", "POW"),
			From: &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}},
		&wsa.Project{Columns: []string{"Name"},
			From: &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}},
		&wsa.Choice{Attrs: []string{"POB"}, From: &wsa.Rel{Name: "Census"}},
		wsa.NewUnion(
			&wsa.Project{Columns: []string{"Name"}, From: &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}},
			&wsa.Project{Columns: []string{"Name"}, From: &wsa.Rel{Name: "Census"}}),
		wsa.NewDiff(
			&wsa.Project{Columns: []string{"Name"}, From: &wsa.Rel{Name: "Census"}},
			&wsa.Project{Columns: []string{"Name"}, From: &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}}),
		wsa.NewIntersect(
			&wsa.Project{Columns: []string{"Name"}, From: &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}},
			&wsa.Project{Columns: []string{"Name"}, From: &wsa.Rel{Name: "Census"}}),
	}
	ws, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := wsa.Eval(q, ws)
		if err != nil {
			t.Fatalf("reference failed for %s: %v", q, err)
		}
		out, plan, err := EvalOpts(q, db, &Options{NoFallback: true})
		if err != nil {
			t.Fatalf("wsdexec failed for %s: %v", q, err)
		}
		if !plan.Native {
			t.Fatalf("plan for %s not native: %v", q, plan)
		}
		got, err := out.Expand(0)
		if err != nil {
			t.Fatalf("expanding result of %s: %v", q, err)
		}
		if !got.EqualWorlds(want) {
			t.Fatalf("wsdexec disagrees with reference for %s\ngot:\n%s\nwant:\n%s", q, got, want)
		}
	}
}

// TestGroupWorldsBySingleComponent: group-worlds-by stays native when
// the answer's uncertainty lives in one component (a single key
// violation), aggregating per alternative without touching worlds.
func TestGroupWorldsBySingleComponent(t *testing.T) {
	census := datagen.Census(8, 1, 5) // one duplicated SSN: one component
	db := wsd.FromComplete([]string{"Census"}, []*relation.Relation{census})
	ws, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	repair := &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}
	for _, q := range []wsa.Expr{
		wsa.NewPossGroup([]string{"POB"}, []string{"Name"}, repair),
		wsa.NewCertGroup([]string{"POB"}, []string{"Name"}, repair),
	} {
		want, err := wsa.Eval(q, ws)
		if err != nil {
			t.Fatal(err)
		}
		out, plan, err := EvalOpts(q, db, &Options{NoFallback: true, NoRewrite: true})
		if err != nil {
			t.Fatalf("wsdexec failed for %s: %v", q, err)
		}
		if !plan.Native {
			t.Fatalf("plan for %s not native: %v", q, plan)
		}
		got, err := out.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualWorlds(want) {
			t.Fatalf("wsdexec disagrees with reference for %s\ngot:\n%s\nwant:\n%s", q, got, want)
		}
	}
}

// TestGroupWorldsByMultiComponentMerges: with two key violations the
// group signature depends on two independent choices — the engine must
// merge exactly those components, stay native, and still agree.
func TestGroupWorldsByMultiComponentMerges(t *testing.T) {
	census := datagen.PaperCensus()
	db := wsd.FromComplete([]string{"Census"}, []*relation.Relation{census})
	ws, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	repair := &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}
	q := wsa.NewPossGroup([]string{"POB"}, []string{"Name"}, repair)
	out, plan, err := EvalOpts(q, db, &Options{NoRewrite: true, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Native || len(plan.Merges) == 0 {
		t.Fatalf("expected a native plan with a recorded merge, got %v", plan)
	}
	if plan.MergeCost < 2 {
		t.Fatalf("merge cost must reflect the merged alternatives, got plan %v", plan)
	}
	want, err := wsa.Eval(q, ws)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWorlds(want) {
		t.Fatalf("merged evaluation disagrees with reference\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestEntangledFallback: a self-join of the repaired relation pairs
// tuples across key groups — genuinely entangling two components. With
// merging disabled the engine must record a fallback (with component
// detail) and still agree with the reference; with merging it must stay
// native and agree too.
func TestEntangledFallback(t *testing.T) {
	census := datagen.PaperCensus()
	db := wsd.FromComplete([]string{"Census"}, []*relation.Relation{census})
	repair := &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}
	left := &wsa.Project{Columns: []string{"Name"}, From: repair}
	right := &wsa.Rename{Pairs: []ra.RenamePair{{From: "Name", To: "Name2"}},
		From: &wsa.Project{Columns: []string{"Name"}, From: repair}}
	q := wsa.NewProduct(left, right)

	if _, _, err := EvalOpts(q, db, &Options{NoFallback: true, NoMerge: true}); err == nil {
		t.Fatal("expected an entanglement error with fallback and merging disabled")
	}
	ws, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wsa.Eval(q, ws)
	if err != nil {
		t.Fatal(err)
	}
	check := func(out *wsd.DecompDB, label string) {
		t.Helper()
		got, err := out.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualWorlds(want) {
			t.Fatalf("%s result disagrees with reference\ngot:\n%s\nwant:\n%s", label, got, want)
		}
	}

	out, plan, err := EvalOpts(q, db, &Options{NoMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Native || plan.FallbackOp == "" || plan.FallbackEngine == "" {
		t.Fatalf("expected a recorded fallback, got plan %v", plan)
	}
	if len(plan.FallbackComponents) == 0 {
		t.Fatalf("fallback plan must name the entangled components, got %v", plan)
	}
	check(out, "fallback")

	out, plan, err = Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Native || len(plan.Merges) == 0 {
		t.Fatalf("expected a native merged plan, got %v", plan)
	}
	check(out, "merged")
}

// TestFallbackRefusedBeyondBudget: when an entangling query meets an
// input too large to enumerate, the error carries the typed budget
// refusal instead of silently exploding.
func TestFallbackRefusedBeyondBudget(t *testing.T) {
	census := datagen.Census(200, 40, 7)
	db, err := wsd.RepairByKey("Clean", census, []string{"SSN"})
	if err != nil {
		t.Fatal(err)
	}
	// choice-of over the (uncertain) repaired relation entangles.
	q := &wsa.Choice{Attrs: []string{"POB"}, From: &wsa.Rel{Name: "Clean"}}
	_, _, err = Eval(q, db)
	if err == nil {
		t.Fatal("expected an error: entangled query over 2^40 worlds")
	}
	if !strings.Contains(err.Error(), "exceed the expansion budget") {
		t.Fatalf("error %v does not carry the budget refusal", err)
	}
}

// TestEvalWorldSetMultiWorld: the registered engine entry lifts
// multi-world inputs into the trivial one-component decomposition and
// still agrees with the reference on the single-component native paths.
func TestEvalWorldSetMultiWorld(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	names := []string{"R", "S"}
	schemas := []relation.Schema{relation.NewSchema("A", "B"), relation.NewSchema("C")}
	queries := []wsa.Expr{
		wsa.NewCert(&wsa.Project{Columns: []string{"A"}, From: &wsa.Rel{Name: "R"}}),
		wsa.NewPoss(&wsa.Select{Pred: ra.Eq("A", "B"), From: &wsa.Rel{Name: "R"}}),
		wsa.NewPossGroup([]string{"A"}, []string{"B"}, &wsa.Rel{Name: "R"}),
		wsa.NewIntersect(
			&wsa.Project{Columns: []string{"A"}, From: &wsa.Rel{Name: "R"}},
			&wsa.Rename{Pairs: []ra.RenamePair{{From: "C", To: "A"}}, From: &wsa.Rel{Name: "S"}}),
	}
	for i := 0; i < 25; i++ {
		ws := datagen.RandomWorldSet(rng, names, schemas, 3, 3, 4)
		for _, q := range queries {
			want, err := wsa.Eval(q, ws)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvalWorldSet(q, ws)
			if err != nil {
				t.Fatalf("wsdexec failed for %s on %s: %v", q, ws, err)
			}
			if !got.EqualWorlds(want) {
				t.Fatalf("wsdexec disagrees with reference for %s\ninput:\n%s\ngot:\n%s\nwant:\n%s", q, ws, got, want)
			}
		}
	}
}
