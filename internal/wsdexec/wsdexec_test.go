package wsdexec

import (
	"errors"
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
		outC, planC, err := Eval(repairQuery(wsa.CloseCert), db)
		if err != nil {
			t.Fatal(err)
		}
		outP, planP, err := Eval(repairQuery(wsa.ClosePoss), db)
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
		out, plan, err := Eval(q, db)
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
		out, plan, err := EvalOpts(q, db, &Options{NoRewrite: true})
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
	out, plan, err := EvalOpts(q, db, &Options{NoRewrite: true})
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

// TestEntangledProductMerges: a self-join of the repaired relation
// pairs tuples across key groups — genuinely entangling two components.
// The engine merges them, stays native and agrees with the reference;
// a budget below the merge cost refuses with the entangled components
// named.
func TestEntangledProductMerges(t *testing.T) {
	census := datagen.PaperCensus()
	db := wsd.FromComplete([]string{"Census"}, []*relation.Relation{census})
	repair := &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}
	left := &wsa.Project{Columns: []string{"Name"}, From: repair}
	right := &wsa.Rename{Pairs: []ra.RenamePair{{From: "Name", To: "Name2"}},
		From: &wsa.Project{Columns: []string{"Name"}, From: repair}}
	q := wsa.NewProduct(left, right)

	_, _, err := EvalOpts(q, db, &Options{ExpandBudget: 2})
	var be *wsd.BudgetError
	if !errors.As(err, &be) || !strings.Contains(err.Error(), "entangles decomposition components") {
		t.Fatalf("budget 2: want a budget refusal naming the entangled components, got %v", err)
	}
	ws, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wsa.Eval(q, ws)
	if err != nil {
		t.Fatal(err)
	}
	out, plan, err := Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Native || len(plan.Merges) == 0 {
		t.Fatalf("expected a native merged plan, got %v", plan)
	}
	got, err := out.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWorlds(want) {
		t.Fatalf("merged result disagrees with reference\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestFallbackRefusedBeyondBudget: choice-of over the repaired relation
// couples every one of its 40 components, and their 2^40-alternative
// merge is refused with the typed budget error, naming the components
// and the relation, instead of silently exploding.
func TestFallbackRefusedBeyondBudget(t *testing.T) {
	db := datagen.CensusRepairDecomp(200, 40, 1)
	q := &wsa.Choice{Attrs: []string{"POB"}, From: &wsa.Rel{Name: "Clean"}}
	_, _, err := Eval(q, db)
	var be *wsd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("choice-of over 2^40 worlds: want a *wsd.BudgetError, got %v", err)
	}
	if want := new(big.Int).Lsh(big.NewInt(1), 40); be.Worlds.Cmp(want) != 0 || be.Budget != wsd.DefaultExpandBudget {
		t.Fatalf("refusal reports %s against budget %d, want 2^40 against %d", be.Worlds, be.Budget, wsd.DefaultExpandBudget)
	}
	for _, frag := range []string{"choice-of over an uncertain answer", "relations [Clean]", "merge cost"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q lacks %q", err, frag)
		}
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

// TestPossSharesCertainPart: poss over the census repair adds the
// components' rows to a certain part the catalog holds, so it derives
// its own version of that part by relation.Clone — sharing the row
// segments — instead of copying the ~10k certain rows one by one. A
// copy allocates per row (10106 allocations per evaluation, measured);
// the clone allocates 125.
func TestPossSharesCertainPart(t *testing.T) {
	db := datagen.CensusRepairDecomp(10000, 40, 1)
	q := wsa.NewPoss(&wsa.Rel{Name: "Clean"})
	out, _, err := Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Certain[len(out.Names)-1].Len(), db.Certain[0].Len()+2*40; got != want {
		t.Fatalf("poss holds %d rows, want %d", got, want)
	}
	const ceiling = 1000 // well below one allocation per certain row
	if allocs := testing.AllocsPerRun(10, func() { Eval(q, db) }); allocs > ceiling {
		t.Fatalf("poss over %d certain rows allocates %.0f times per evaluation, want at most %d",
			db.Certain[0].Len(), allocs, ceiling)
	}
}
