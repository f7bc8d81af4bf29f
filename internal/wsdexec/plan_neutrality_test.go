package wsdexec

import (
	"math/rand"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/randquery"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
)

// TestPlanChoiceNeutralitySweep runs random queries over random
// decompositions through three planning configurations — the full
// cost-based pipeline, the rewrite search disabled, and product
// reordering disabled — and requires all three to expand to the
// world-set the reference evaluator computes over the expanded input. Whatever plan
// the cost model picks may only ever change speed, never answers. Runs
// under -race in CI.
func TestPlanChoiceNeutralitySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	names := []string{"R", "S", "T"}
	schemas := []relation.Schema{
		relation.NewSchema("A", "B"), relation.NewSchema("C"), relation.NewSchema("D")}
	gen := randquery.NewQueryGen(rng, names, schemas)
	arms := []struct {
		name string
		opt  *Options
	}{
		{"stats-planned", nil},
		{"no-rewrite", &Options{NoRewrite: true}},
		{"no-reorder", &Options{NoReorder: true}},
	}
	rewritten, reordered, merged := 0, 0, 0
	for i := 0; i < 500; i++ {
		db := datagen.RandomDecompDB(rng, names, schemas, 3, 2, 3, 3, 2)
		q := gen.Query(1 + rng.Intn(4))
		refOut, refPlan, refErr := EvalOpts(q, db, arms[0].opt)
		if refErr == nil {
			ws, err := db.Expand(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			want, err := wsa.Eval(q, ws)
			if err != nil {
				t.Fatalf("query %d: reference failed: %v\nquery: %s", i, err, q)
			}
			got, err := refOut.Expand(1 << 20)
			if err != nil {
				t.Fatalf("query %d: %s output not expandable: %v", i, arms[0].name, err)
			}
			if !got.EqualWorlds(want) {
				t.Fatalf("query %d: %s and the reference disagree\nquery: %s\nplan: %v\n%s:\n%s\nreference:\n%s",
					i, arms[0].name, q, refPlan, arms[0].name, got, want)
			}
			if refPlan.Rewritten {
				rewritten++
			}
			if refPlan.Reordered {
				reordered++
			}
			if refPlan.Native && len(refPlan.Merges) > 0 {
				merged++
			}
		}
		for _, arm := range arms[1:] {
			out, plan, err := EvalOpts(q, db, arm.opt)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("query %d: %s error %v vs %s error %v\nquery: %s",
					i, arms[0].name, refErr, arm.name, err, q)
			}
			if refErr != nil {
				continue
			}
			wsRef, err := refOut.Expand(1 << 20)
			if err != nil {
				t.Fatalf("query %d: %s output not expandable: %v", i, arms[0].name, err)
			}
			wsArm, err := out.Expand(1 << 20)
			if err != nil {
				t.Fatalf("query %d: %s output not expandable: %v", i, arm.name, err)
			}
			if !wsRef.EqualWorlds(wsArm) {
				t.Fatalf("query %d: %s and %s disagree\nquery: %s\nplans: %v / %v\n%s:\n%s\n%s:\n%s",
					i, arms[0].name, arm.name, q, refPlan, plan,
					arms[0].name, wsRef, arm.name, wsArm)
			}
		}
	}
	t.Logf("500 queries: %d rewritten, %d reordered, %d merged natively", rewritten, reordered, merged)
	if merged < 20 {
		t.Fatalf("merge path under-exercised: only %d of 500 queries merged", merged)
	}
}

// TestReorderNeutralityChain pins the reorder path deterministically
// (the random sweep cannot guarantee a ≥3-way chain): a four-way
// product chain written largest-first, over a decomposition mixing
// certain and alternative pieces, must be reordered by the stats
// planner and still expand to exactly the world-set the written order
// produces. The written order materializes |Big × Mid| again for every
// trailing relation; the ordered chain builds the small prefix first and
// its products materialize at most 1/1.2 of the rows.
func TestReorderNeutralityChain(t *testing.T) {
	names := []string{"Big", "Mid", "U", "One"}
	schemas := []relation.Schema{
		relation.NewSchema("A"), relation.NewSchema("B"),
		relation.NewSchema("C"), relation.NewSchema("D")}
	db := wsd.NewDecompDB(names, schemas)
	for i := 0; i < 40; i++ {
		db.Certain[0].Insert(relation.Tuple{value.Int(int64(i))})
	}
	for i := 0; i < 6; i++ {
		db.Certain[1].Insert(relation.Tuple{value.Int(int64(i))})
	}
	// U is uncertain: one 2-alternative component.
	comp := wsd.DBComponent{}
	for a := 0; a < 2; a++ {
		r := relation.New(schemas[2])
		r.Insert(relation.Tuple{value.Int(int64(a))})
		comp.Alternatives = append(comp.Alternatives, wsd.DBAlternative{Rels: map[int]*relation.Relation{2: r}})
	}
	db.Components = append(db.Components, comp)
	db.Certain[3].Insert(relation.Tuple{value.Int(7)})

	chain := wsa.Expr(&wsa.Rel{Name: "Big"})
	for _, n := range names[1:] {
		chain = wsa.NewProduct(chain, &wsa.Rel{Name: n})
	}
	// productRows sums the rows the chain's products materialized.
	productRows := func(tr *obs.Span) (rows int64) {
		for _, sp := range spansNamed(tr, "op:product") {
			rows += spanInt(t, sp, "rows")
		}
		return rows
	}
	orderedTrace, writtenTrace := obs.NewTrace("test"), obs.NewTrace("test")
	ordered, orderedPlan, err := EvalOpts(chain, db, &Options{Trace: orderedTrace})
	if err != nil {
		t.Fatal(err)
	}
	if !orderedPlan.Reordered {
		t.Fatalf("stats planner did not reorder the chain: %v", orderedPlan)
	}
	written, writtenPlan, err := EvalOpts(chain, db, &Options{NoReorder: true, Trace: writtenTrace})
	if err != nil {
		t.Fatal(err)
	}
	if writtenPlan.Reordered {
		t.Fatalf("NoReorder arm reports a reorder: %v", writtenPlan)
	}
	orderedRows, writtenRows := productRows(orderedTrace), productRows(writtenTrace)
	t.Logf("rows materialized by products: ordered %d, written %d", orderedRows, writtenRows)
	if 1.2*float64(orderedRows) > float64(writtenRows) {
		t.Errorf("ordered chain materialized %d rows, written order %d: under 1.2x fewer", orderedRows, writtenRows)
	}
	wsO, err := ordered.Expand(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	wsW, err := written.Expand(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !wsO.EqualWorlds(wsW) {
		t.Fatalf("reordered chain changed the answer\nordered:\n%s\nwritten:\n%s", wsO, wsW)
	}
}
