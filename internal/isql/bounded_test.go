package isql

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
)

// boundedCatalog builds the 2^40-world census catalog plus a tiny
// independent uncertain region: Pick is one 3-alternative component on
// a catalog of 3 * 2^40 worlds. Statements reading only Pick must cost
// 3 worlds, not 2^40.
func boundedCatalog(t *testing.T) *Session {
	t.Helper()
	s := boundedCatalogOver(t, pipelineCensus(), 0)
	if got, want := s.Worlds().String(), "3298534883328"; got != want { // 3 * 2^40
		t.Fatalf("catalog worlds = %s, want %s", got, want)
	}
	return s
}

// boundedCatalogOver is boundedCatalog over the given census, repaired,
// beside wide unrelated certain relations of 1000 rows that no statement
// names.
func boundedCatalogOver(t *testing.T, census *relation.Relation, wide int) *Session {
	t.Helper()
	names, rels := []string{"Census"}, []*relation.Relation{census}
	for i := 0; i < wide; i++ {
		names = append(names, fmt.Sprintf("Other%d", i))
		rels = append(rels, datagen.Census(1000, 0, int64(i)+8))
	}
	s := FromDB(names, rels)
	s.Stats = NewExecStats()
	for _, sql := range censusPipeline[:2] {
		mustExec(t, s, sql)
	}
	mustExec(t, s, "create table Tiny (V);")
	for _, v := range []string{"1", "2", "3"} {
		mustExec(t, s, "insert into Tiny values ("+v+");")
	}
	mustExec(t, s, "create table Pick as select * from Tiny choice of V;")
	return s
}

// TestBoundedAggregateWorldCountIndependent: an aggregate outside the
// WSA fragment over a small uncertain region answers on a 2^40-world
// catalog by enumerating only the dependent component — the bugfix this
// test pins. The same aggregate over the 40-component repair region
// still refuses, with the budget error reporting the dependent cost
// (2^40), not the catalog's total world count (3 * 2^40). And the
// bounded sum allocates no more here than beside 2^10 repair worlds, nor
// than beside 16 unrelated certain relations of 1000 rows each: the
// region's worlds hold the relations it reads, not the catalog's.
func TestBoundedAggregateWorldCountIndependent(t *testing.T) {
	s := boundedCatalog(t)

	// count(*) over Pick: one tuple per world in all 3 worlds.
	res, err := s.ExecString("select count(*) as N from Pick;")
	if err != nil {
		t.Fatalf("bounded aggregate: %v", err)
	}
	if len(res.Answers) != 1 || !res.Answers[0].Contains(relation.Tuple{intVal(1)}) {
		t.Fatalf("count(*) over Pick = %v, want the single answer {1}", res.Answers)
	}
	// The bounded arm compiles no plan, and its worlds are not full
	// worlds — the result carries the factored catalog state, never an
	// explicit world-set.
	if res.Plan != nil || res.Decomp == nil {
		t.Fatalf("bounded select: plan %v, decomp %v; want no plan and the factored state", res.Plan, res.Decomp)
	}

	// sum(V) distinguishes the three worlds: three distinct answers.
	res, err = s.ExecString("select sum(V) as S from Pick;")
	if err != nil {
		t.Fatalf("bounded sum: %v", err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("sum(V) over Pick has %d distinct answers, want 3", len(res.Answers))
	}

	// Over the 40-component repair region the answer genuinely depends
	// on 2^40 combinations: refuse with the shared budget shape, costed
	// at the dependent components only.
	var be *wsd.BudgetError
	_, err = s.ExecString("select count(*) as N from Clean;")
	if !errors.As(err, &be) {
		t.Fatalf("aggregate over Clean: want *wsd.BudgetError, got %v", err)
	}
	if got, want := be.Worlds.String(), "1099511627776"; got != want { // 2^40, not 3 * 2^40
		t.Fatalf("budget error cost = %s, want the dependent-component cost %s", got, want)
	}

	// Execution accounting: 3 native CTAS, 3 legacy aggregates (the
	// refused one included), all attributed to aggregation.
	snap := s.Stats.Snapshot()
	if snap.Native != 3 {
		t.Fatalf("stats native = %d, want 3", snap.Native)
	}
	if snap.Legacy != 3 || snap.LegacyOps["aggregation"] != 3 {
		t.Fatalf("stats legacy = %d (ops %v), want 3 aggregation", snap.Legacy, snap.LegacyOps)
	}

	sum := func(s *Session) float64 {
		return testing.AllocsPerRun(20, func() { mustExec(t, s, "select sum(V) as S from Pick;") })
	}
	small, large := sum(boundedCatalogOver(t, datagen.Census(120, 10, 7), 0)), sum(s)
	wide := sum(boundedCatalogOver(t, pipelineCensus(), 16))
	t.Logf("bounded sum allocations: %.0f beside 2^10 repair worlds, %.0f beside 2^40, %.0f beside 2^40 and 16 unrelated relations",
		small, large, wide)
	if large > 1.1*small {
		t.Errorf("bounded sum allocates %.0f beside 2^40 repair worlds, %.0f beside 2^10: it grows with the catalog", large, small)
	}
	if wide > 1.1*large {
		t.Errorf("bounded sum allocates %.0f beside 16 unrelated 1000-row relations, %.0f without them: it copies what it never reads", wide, large)
	}
}

// TestBoundedCTASSplicesIndependentComponents: a create-table-as whose
// query is outside the fragment re-factorizes only the dependent
// region and splices the untouched components back — the catalog keeps
// its exact world count and linear size, and stays natively queryable.
func TestBoundedCTASSplicesIndependentComponents(t *testing.T) {
	s := boundedCatalog(t)
	res, err := s.ExecString("create table PickTotal as select V, count(*) as N from Pick group by V;")
	if err != nil {
		t.Fatalf("bounded create-table-as: %v", err)
	}
	if res.Plan != nil || res.Decomp == nil {
		t.Fatalf("bounded CTAS: plan %v, decomp %v; want no plan and the factored state", res.Plan, res.Decomp)
	}
	if got, want := s.Worlds().String(), "3298534883328"; got != want {
		t.Fatalf("worlds after bounded CTAS = %s, want %s (unchanged)", got, want)
	}
	snap := s.Catalog().Snapshot()
	if size := snap.DB.Size(); size > 6*pipelineCensus().Len() {
		t.Fatalf("catalog size %d after bounded CTAS is not linear in the input", size)
	}
	// The spliced catalog is a normal catalog: both the new table and
	// the untouched repair region answer natively.
	res, err = s.ExecString("select possible N from PickTotal;")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || !res.Plan.Native {
		t.Fatalf("select over the spliced catalog not native (plan %v)", res.Plan)
	}
	if len(res.Answers) != 1 || !res.Answers[0].Contains(relation.Tuple{intVal(1)}) {
		t.Fatalf("possible N from PickTotal = %v, want {1}", res.Answers)
	}
	if res, err = s.ExecString("select certain Name from Suspects;"); err != nil {
		t.Fatal(err)
	} else if res.Plan == nil || !res.Plan.Native {
		t.Fatalf("repair region not native after splice (plan %v)", res.Plan)
	}
	// PickTotal stays correlated with Pick: in each world the total's V
	// is exactly the picked V.
	res, err = s.ExecString("select count(*) as M from Pick, PickTotal where Pick.V != PickTotal.V;")
	if err != nil {
		t.Fatalf("correlation probe: %v", err)
	}
	if len(res.Answers) != 1 || !res.Answers[0].Contains(relation.Tuple{intVal(0)}) {
		t.Fatalf("Pick/PickTotal disagree in some world: %v", res.Answers)
	}

	// The relation closure. CleanPOB is Clean projected to SSN and POB,
	// so each repair component contributes to both; two of the four
	// duplicated persons have one POB in both alternatives, which then
	// differ in Clean alone. A statement naming CleanPOB and not Clean
	// still enumerates Clean beside it: without it those components'
	// worlds would collapse, a write would drop their Clean
	// alternatives, and an affected count would be taken over too few
	// worlds. Each statement — a subquery DELETE, an aggregate CTAS, a
	// choice-of refinement — must match the legacy session (every component
	// enumerated, every relation in every world) in answers, affected
	// count and the world-set after it, and leave Clean as it was.
	census := datagen.Census(24, 4, 7)
	native, legacy := boundedCatalogOver(t, census, 0), boundedCatalogOver(t, census, 0)
	legacy.Engine = legacyEngine
	names := func() string {
		return fmt.Sprint(mustExec(t, native, "select possible Name from Clean;").Answers,
			mustExec(t, native, "select certain Name from Clean;").Answers)
	}
	clean := names()
	for _, sql := range []string{
		"create table CleanPOB as select SSN, POB from Clean;",
		"delete from CleanPOB where SSN in (select SSN from Census where POW = 'LA');",
		"create table POBCount as select POB, count(*) as N from CleanPOB group by POB;",
		"create table PickPOB as select * from CleanPOB choice of POB;",
		"select possible SSN from PickPOB;",
	} {
		got, want := mustExec(t, native, sql), mustExec(t, legacy, sql)
		if got.Affected != want.Affected {
			t.Fatalf("%s: affected %d, the legacy session %d", sql, got.Affected, want.Affected)
		}
		if len(got.Answers) != len(want.Answers) {
			t.Fatalf("%s: %d answers, the legacy session %d", sql, len(got.Answers), len(want.Answers))
		}
		for i := range got.Answers {
			if got.Answers[i].ContentKey() != want.Answers[i].ContentKey() {
				t.Fatalf("%s: answer %d = %v, the legacy session %v", sql, i, got.Answers[i], want.Answers[i])
			}
		}
		gw, ww := native.WorldSet(), legacy.WorldSet()
		if gw == nil || ww == nil || gw.String() != ww.String() {
			t.Fatalf("%s: state differs from the legacy session's\nnative:\n%v\nlegacy:\n%v", sql, gw, ww)
		}
		if got := names(); got != clean {
			t.Fatalf("%s: Clean's names moved\nbefore: %s\nafter:  %s", sql, clean, got)
		}
	}
	ops := native.Stats.Snapshot()
	if ops.LegacyOps["expression subquery"] != 1 || ops.LegacyOps["aggregation"] != 1 || ops.MergeOps["choice-of over an uncertain answer"] != 1 {
		t.Fatalf("the DELETE and the aggregate must run bounded and the choice-of refine natively: %+v", ops)
	}
}

// TestEntangledStatementsWorldCountIndependent: choice-of over an
// uncertain answer refines the one component the answer depends on —
// U's, on a 2^41-world catalog — and leaves the repair components
// untouched. A choice-of over the repair itself is refused at the
// merge of the repair's own 2^40 combinations, not the catalog's count.
func TestEntangledStatementsWorldCountIndependent(t *testing.T) {
	setup := []string{
		"create table T (A);", "insert into T values (1);", "insert into T values (2);",
		"create table U as select * from T choice of A;",
	}
	s, ref := pickCatalog(t), NewSession()
	for _, sql := range setup {
		mustExec(t, s, sql)
		mustExec(t, ref, sql)
	}
	const op = "choice-of over an uncertain answer"
	before := s.Stats.Snapshot().MergeOps[op]
	stmts := []string{
		"select certain A from U choice of A;",
		"select possible A from U choice of A;",
		"create table W as select * from U choice of A;",
	}
	for _, sql := range stmts {
		res, want := mustExec(t, s, sql), mustExec(t, ref, sql)
		if res.Plan == nil || !res.Plan.Native || len(res.Plan.Merges) != 1 || len(res.Plan.Merges[0].Components) != 1 {
			t.Fatalf("%s: want a native refinement of U's one component, plan %v", sql, res.Plan)
		}
		if len(res.Answers) != len(want.Answers) {
			t.Fatalf("%s: %d answers, the 2-world session has %d", sql, len(res.Answers), len(want.Answers))
		}
		for i, a := range res.Answers {
			if a.ContentKey() != want.Answers[i].ContentKey() {
				t.Fatalf("%s: answer %d = %v, the 2-world session has %v", sql, i, a, want.Answers[i])
			}
		}
	}
	if got := s.Stats.Snapshot().MergeOps[op] - before; got != uint64(len(stmts)) {
		t.Fatalf("stats count %d refinements, want %d", got, len(stmts))
	}
	// 2^40 repairs × the worlds the reference session ends with.
	want := new(big.Int).Lsh(ref.Worlds(), 40)
	if got := s.Worlds(); got.Cmp(want) != 0 {
		t.Fatalf("worlds after the entangled CTAS = %s, want %s", got, want)
	}
	if size := s.Catalog().Snapshot().DB.Size(); size > 4*pipelineCensus().Len() {
		t.Fatalf("catalog size %d after the entangled CTAS is not linear in the input", size)
	}
	if r := mustExec(t, s, "select certain Name from Clean;"); r.Plan == nil || !r.Plan.Native {
		t.Fatalf("repair region not native after the refinements (plan %v)", r.Plan)
	}

	_, err := s.ExecString("select certain Name from Clean choice of Name;")
	var be *wsd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("choice-of over Clean: want *wsd.BudgetError, got %v", err)
	}
	if got, want := be.Worlds.String(), "1099511627776"; got != want { // 2^40
		t.Fatalf("budget error cost = %s, want the repair's merge of %s", got, want)
	}
}

// TestPreparedFallbackMemo: there is no prepared-statement memo of how
// a plan ran — a prepared choice-of over an uncertain answer refines
// natively on every execution, naming the component it refined, and
// once DML empties the answer it runs with no refinement at all.
func TestPreparedFallbackMemo(t *testing.T) {
	s := NewSession()
	mustExec(t, s, "create table T (A);")
	mustExec(t, s, "insert into T values (1);")
	mustExec(t, s, "insert into T values (2);")
	mustExec(t, s, "create table U as select * from T choice of A;")
	mustExec(t, s, "prepare q as select certain A from U choice of A;")

	// choice-of over the uncertain U refines U's component, and the
	// plan names it.
	res := mustExec(t, s, "execute q;")
	if res.Plan == nil || !res.Plan.Native || len(res.Plan.Merges) != 1 || len(res.Plan.Merges[0].Components) != 1 {
		t.Fatalf("choice-of over uncertain U should refine its component, plan %v", res.Plan)
	}
	// Emptying U folds its component away: nothing is left to refine.
	mustExec(t, s, "delete from U;")
	if res = mustExec(t, s, "execute q;"); res.Plan == nil || !res.Plan.Native || len(res.Plan.Merges) != 0 {
		t.Fatalf("after the shape moved the statement must run with no refinement, plan %v", res.Plan)
	}
}

// TestWorldLimitIsBudgetError: χ and repair-by-key are the reference
// engine's operators wherever they run, so exceeding the world limit is
// the same typed *wsd.BudgetError through wsa.EvalOpts, through the
// comparison engine, and through the bounded arm of a default session
// (an aggregate keeps the statement out of the WSA fragment).
func TestWorldLimitIsBudgetError(t *testing.T) {
	const limit = 2
	rel := relation.New(relation.NewSchema("K", "V"))
	for _, k := range []int64{1, 2, 3} {
		for _, v := range []string{"a", "b"} {
			rel.InsertValues(value.Int(k), value.Str(v))
		}
	}
	names, rels := []string{"T"}, []*relation.Relation{rel}
	for _, tc := range []struct {
		name, clause string // 3 choices of K, 2^3 repairs by K: both > limit
		op           wsa.Expr
	}{
		{"choice-of", "choice of K", &wsa.Choice{Attrs: []string{"K"}, From: &wsa.Rel{Name: "T"}}},
		{"repair-by-key", "repair by key K", &wsa.RepairKey{Attrs: []string{"K"}, From: &wsa.Rel{Name: "T"}}},
	} {
		routes := map[string]func() error{
			"wsa.EvalOpts": func() error {
				_, err := wsa.EvalOpts(tc.op, worldset.FromDB(names, rels), &wsa.Options{MaxWorlds: limit})
				return err
			},
			"legacy engine": func() error {
				s := FromDB(names, rels)
				s.Engine, s.MaxWorlds = "legacy", limit
				_, err := s.ExecString("select * from T " + tc.clause + ";")
				return err
			},
			"bounded arm": func() error {
				s := FromDB(names, rels)
				s.MaxWorlds, s.Stats = limit, NewExecStats()
				_, err := s.ExecString("select count(*) as N from T " + tc.clause + ";")
				if got := s.Stats.Snapshot().LegacyOps["aggregation"]; got != 1 {
					t.Errorf("%s: statement did not take the bounded arm (aggregation ops = %d)", tc.name, got)
				}
				return err
			},
		}
		for route, run := range routes {
			var be *wsd.BudgetError
			if err := run(); !errors.As(err, &be) {
				t.Errorf("%s through %s: want *wsd.BudgetError, got %v", tc.name, route, err)
			} else if be.Budget != limit {
				t.Errorf("%s through %s: budget in error = %d, want %d", tc.name, route, be.Budget, limit)
			}
		}
	}
}
