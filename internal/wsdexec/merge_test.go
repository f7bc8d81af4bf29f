package wsdexec

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/randquery"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
)

// TestMergeVsExpandRandomizedParity evaluates random queries over
// random decompositions twice — bounded merging enabled versus disabled
// (NoMerge, i.e. the enumeration fallback) — and requires identical
// expanded world-sets. Runs under -race in CI, exercising the
// slot-parallel operators across merged components.
func TestMergeVsExpandRandomizedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	names := []string{"R", "S"}
	schemas := []relation.Schema{relation.NewSchema("A", "B"), relation.NewSchema("C")}
	gen := randquery.NewQueryGen(rng, names, schemas)
	mergedPlans := 0
	for i := 0; i < 300; i++ {
		db := datagen.RandomDecompDB(rng, names, schemas, 3, 2, 3, 3, 2)
		q := gen.Query(1 + rng.Intn(3))
		outM, planM, errM := EvalOpts(q, db, nil)
		outX, planX, errX := EvalOpts(q, db, &Options{NoMerge: true})
		if (errM == nil) != (errX == nil) {
			t.Fatalf("query %d: merge path error %v vs expand path error %v\nquery: %s", i, errM, errX, q)
		}
		if errM != nil {
			continue
		}
		wsM, err := outM.Expand(1 << 20)
		if err != nil {
			t.Fatalf("query %d: merged output not expandable: %v", i, err)
		}
		wsX, err := outX.Expand(1 << 20)
		if err != nil {
			t.Fatalf("query %d: expanded-path output not expandable: %v", i, err)
		}
		if !wsM.EqualWorlds(wsX) {
			t.Fatalf("query %d: merge and expand paths disagree\nquery: %s\nplans: %v / %v\nmerged:\n%s\nexpanded:\n%s",
				i, q, planM, planX, wsM, wsX)
		}
		if planM.Native && len(planM.Merges) > 0 {
			mergedPlans++
		}
	}
	if mergedPlans < 20 {
		t.Fatalf("merge path under-exercised: only %d of 300 queries merged", mergedPlans)
	}
}

// tornDB builds a decomposition whose only entanglement couples a
// 3-alternative component (relation R) with a 4-alternative component
// (relation S) — merge cost exactly 12 — beside spect binary spectator
// components on a relation T the query never mentions: 12·2^spect
// worlds.
func tornDB(t *testing.T, spect int) (*wsd.DecompDB, wsa.Expr) {
	t.Helper()
	names := []string{"R", "S", "T"}
	schemas := []relation.Schema{relation.NewSchema("A"), relation.NewSchema("B"), relation.NewSchema("C")}
	db := wsd.NewDecompDB(names, schemas)
	comp := func(ri, n int) wsd.DBComponent {
		c := wsd.DBComponent{}
		for a := 0; a < n; a++ {
			r := relation.New(schemas[ri])
			r.Insert(relation.Tuple{value.Int(int64(a))})
			c.Alternatives = append(c.Alternatives, wsd.DBAlternative{Rels: map[int]*relation.Relation{ri: r}})
		}
		return c
	}
	db.Components = append(db.Components, comp(0, 3), comp(1, 4))
	for i := 0; i < spect; i++ {
		db.Components = append(db.Components, comp(2, 2))
	}
	return db, wsa.NewProduct(&wsa.Rel{Name: "R"}, &wsa.Rel{Name: "S"})
}

// TestPrelowerPushdownAvoidsMerge shows why Prelower pushes selections
// below entangling operators: a selection that (per world) empties one
// operand removes that operand's component from the entanglement set,
// so the product needs no merge at all — while the same query evaluated
// without the rewrite must merge the coupled components (cost 12) to
// stay native, and cannot run natively with merging disabled.
func TestPrelowerPushdownAvoidsMerge(t *testing.T) {
	db, prod := tornDB(t, 0)
	q := &wsa.Select{Pred: ra.EqConst("A", value.Int(99)), From: prod}
	ws, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wsa.Eval(q, ws)
	if err != nil {
		t.Fatal(err)
	}

	// With the rewrite: σ_{A=99} sinks onto R, empties it in every
	// alternative, and the product never entangles — native with zero
	// merges even when merging is disabled outright.
	out, plan, err := EvalOpts(q, db, &Options{NoMerge: true, NoFallback: true})
	if err != nil {
		t.Fatalf("pushed evaluation failed: %v", err)
	}
	if !plan.Native || !plan.Rewritten || len(plan.Merges) != 0 {
		t.Fatalf("expected a native, rewritten, merge-free plan, got %v", plan)
	}
	got, err := out.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWorlds(want) {
		t.Fatalf("pushed result disagrees with reference\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Without the rewrite the product evaluates first: components 0 and
	// 1 entangle and staying native costs a 12-alternative merge...
	_, plan, err = EvalOpts(q, db, &Options{NoRewrite: true, NoFallback: true})
	if err != nil {
		t.Fatalf("unpushed evaluation failed: %v", err)
	}
	if len(plan.Merges) != 1 || plan.MergeCost != 12 {
		t.Fatalf("unpushed plan should merge at cost 12, got %v", plan)
	}

	// ...and with merging disabled it cannot run natively at all.
	if _, _, err := EvalOpts(q, db, &Options{NoRewrite: true, NoMerge: true, NoFallback: true}); err == nil {
		t.Fatal("unpushed + NoMerge: expected an entanglement error")
	}
}

// TestMergeTornBudget sweeps the one budget across the merge cost, on a
// decomposition whose world count (48) is well above it: exactly at
// cost the evaluation stays native via a merge; one below, the merge is
// refused — no headroom — and so is the fallback, because the region it
// enumerates holds the coupled components: the typed *wsd.BudgetError
// reports the region's 12 combinations, not the 48 worlds, and carries
// the entangled-component diagnostics.
func TestMergeTornBudget(t *testing.T) {
	db, q := tornDB(t, 2)
	ws, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wsa.Eval(q, ws)
	if err != nil {
		t.Fatal(err)
	}

	// Budget exactly at the merge cost: native, one merge of cost 12.
	out, plan, err := EvalOpts(q, db, &Options{ExpandBudget: 12, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Native || len(plan.Merges) != 1 || plan.Merges[0].Cost != 12 || plan.MergeCost != 12 {
		t.Fatalf("budget 12: expected one native merge of cost 12, got %v", plan)
	}
	got, err := out.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWorlds(want) {
		t.Fatalf("budget 12: merged result disagrees with reference\ngot:\n%s\nwant:\n%s", got, want)
	}

	// One below: merge and fallback are refused by the same number.
	_, _, err = EvalOpts(q, db, &Options{ExpandBudget: 11})
	var be *wsd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget 11: error does not wrap *wsd.BudgetError: %v", err)
	}
	if be.Worlds.Int64() != 12 || be.Budget != 11 {
		t.Fatalf("budget 11: refusal reports %s worlds against budget %d, want the region's 12 against 11", be.Worlds, be.Budget)
	}
	for _, frag := range []string{"entangles decomposition components [0 1]", "relations [R S]", "merge cost 12"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("budget 11: error %q lacks %q", err.Error(), frag)
		}
	}
	if strings.Contains(err.Error(), "wsdexec: wsdexec:") {
		t.Fatalf("budget 11: doubled prefix in %q", err.Error())
	}

	// NoFallback one below cost: the entangle error surfaces directly.
	if _, _, err := EvalOpts(q, db, &Options{ExpandBudget: 11, NoFallback: true}); err == nil {
		t.Fatal("budget 11 + NoFallback: expected an entanglement error")
	}
}

// TestFallbackEnumeratesDependentRegion: with merging disabled the
// product falls back, and the fallback enumerates the 12 combinations
// of the two components R and S depend on however many spectators sit
// beside them — at 3 spectators the result equals the reference over the
// full expansion, at 38 (12·2^38 worlds) it still answers, and the
// spectators come back as the components they were. Neither the
// fallback nor the native merge allocates more at 38 spectators than
// at 3, nor more beside 16 unrelated certain relations of 1000 rows
// each than without them: the fallback's worlds hold R and S, not the
// catalog.
func TestFallbackEnumeratesDependentRegion(t *testing.T) {
	var merge, fallback []float64
	for _, arm := range []struct{ spect, wide int }{{3, 0}, {38, 0}, {38, 16}} {
		spect := arm.spect
		db, q := tornDB(t, spect)
		for i := 0; i < arm.wide; i++ {
			r := datagen.Census(1000, 0, int64(i)+1)
			db = db.WithRelation(fmt.Sprintf("Other%d", i), r.Schema(), r)
		}
		fbOpts := &Options{NoMerge: true, ExpandBudget: 12}
		tr := obs.NewTrace("test")
		traced := *fbOpts
		traced.Trace = tr
		out, plan, err := EvalOpts(q, db, &traced)
		if err != nil {
			t.Fatalf("%d spectators: %v", spect, err)
		}
		if plan.Native || plan.FallbackOp == "" || plan.FallbackEngine != "reference" {
			t.Fatalf("%d spectators: expected a reference-engine fallback, got %v", spect, plan)
		}
		if fb := spansNamed(tr, "fallback"); len(fb) != 1 || spanInt(t, fb[0], "components") != 2 {
			t.Fatalf("%d spectators: want one fallback over the 2 coupled components, got %d spans", spect, len(fb))
		}
		mergeOpts := &Options{NoFallback: true}
		m := testing.AllocsPerRun(20, func() { EvalOpts(q, db, mergeOpts) })
		f := testing.AllocsPerRun(20, func() { EvalOpts(q, db, fbOpts) })
		t.Logf("%d spectators, %d unrelated relations: merge %.0f, fallback %.0f allocations", spect, arm.wide, m, f)
		merge, fallback = append(merge, m), append(fallback, f)
		if out.Worlds().Cmp(db.Worlds()) != 0 || len(out.Components) > len(db.Components) {
			t.Fatalf("%d spectators: output has %s worlds in %d components, input %s in %d",
				spect, out.Worlds(), len(out.Components), db.Worlds(), len(db.Components))
		}
		if spect > 3 {
			continue
		}
		ws, err := db.Expand(0)
		if err != nil {
			t.Fatal(err)
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
			t.Fatalf("%d spectators: fallback disagrees with reference\ngot:\n%s\nwant:\n%s", spect, got, want)
		}
	}
	if merge[1] > 1.1*merge[0] || fallback[1] > 1.1*fallback[0] {
		t.Errorf("allocations at 3 vs 38 spectators: merge %.0f vs %.0f, fallback %.0f vs %.0f; they grow with the spectators",
			merge[0], merge[1], fallback[0], fallback[1])
	}
	if merge[2] > 1.1*merge[1] || fallback[2] > 1.1*fallback[1] {
		t.Errorf("allocations without vs beside 16 unrelated relations: merge %.0f vs %.0f, fallback %.0f vs %.0f; they grow with the catalog",
			merge[1], merge[2], fallback[1], fallback[2])
	}
}
