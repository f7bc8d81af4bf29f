package isql

import (
	"errors"
	"strings"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
)

// TestExecuteParamBindsCachedPlan: a parameterized EXECUTE binds into
// the memoized compiled plan — the plan compiles once and every
// execution (whatever the arguments) reuses it, staying on the
// compiled-engine path, with no rewrite search. The same select with the
// argument written in re-runs analysis, compilation and the search on
// every call, and a bound call allocates at most two thirds of what it
// does.
func TestExecuteParamBindsCachedPlan(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	mustScript(t, s,
		"create table Clean as select * from Census repair by key SSN;",
		"prepare q as select certain Name from Clean where POB = $1;",
	)
	res, err := s.ExecString("execute q('NYC');")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("parameterized execute fell off the compiled-plan path")
	}
	nyc := res.Answers
	if _, err := s.ExecString("execute q('LA');"); err != nil {
		t.Fatal(err)
	}
	res3, err := s.ExecString("execute q('NYC');")
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Answers) != len(nyc) || res3.Answers[0].ContentKey() != nyc[0].ContentKey() {
		t.Fatalf("re-binding changed the answer: %v vs %v", res3.Answers, nyc)
	}
	p := s.planCache().Get("q")
	if p == nil {
		t.Fatal("prepared statement vanished from the cache")
	}
	if got := p.Compiles(); got != 1 {
		t.Fatalf("plan compiled %d times across 3 parameterized executions, want 1", got)
	}
	parse := func(sql string) Statement {
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	bound, written := parse("execute q('NYC');"), parse("select certain Name from Clean where POB = 'NYC';")
	run := func(st Statement) func() {
		return func() {
			if _, err := s.Exec(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name   string
		st     Statement
		search bool
	}{{"written-in", written, true}, {"bound", bound, false}} {
		before := rewrite.SearchExpanded.Value()
		run(c.st)()
		if expanded := rewrite.SearchExpanded.Value() - before; (expanded > 0) != c.search {
			t.Errorf("%s call expanded %d rewrite candidates; want a search: %v", c.name, expanded, c.search)
		}
	}
	recompiled, rebound := testing.AllocsPerRun(20, run(written)), testing.AllocsPerRun(20, run(bound))
	t.Logf("allocations per call: written-in %.0f, bound %.0f", recompiled, rebound)
	if 3*rebound > 2*recompiled {
		t.Errorf("bound EXECUTE allocates %.0f per call, over two thirds of the written-in select's %.0f", rebound, recompiled)
	}
	// DML must not recompile either (fingerprint pins the schema, not the
	// data); DDL must recompile exactly once.
	mustScript(t, s, "insert into Census values (7, 'Extra', 'NYC', 'Desk');", "execute q('NYC');")
	if got := p.Compiles(); got != 1 {
		t.Fatalf("DML forced a recompile (%d compiles)", got)
	}
	mustScript(t, s, "create view V as select Name from Census;", "execute q('NYC');", "execute q('LA');")
	if got := p.Compiles(); got != 2 {
		t.Fatalf("DDL recompiles once, got %d compiles", got)
	}
}

// TestExecuteParamConcurrentBinding: many sessions bind different
// arguments into one shared cached plan simultaneously (run under -race
// in CI); binding copies the parameterized spine, so executions never
// see each other's arguments.
func TestExecuteParamConcurrentBinding(t *testing.T) {
	a := FromDB([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	cache := NewPlanCache()
	a.SetPlanCache(cache)
	mustScript(t, a,
		"create table Clean as select * from Census repair by key SSN;",
		"prepare q as select possible Name from Clean where POB = $1;",
	)
	want := map[string]string{}
	for _, pob := range []string{"NYC", "LA"} {
		res, err := a.ExecString("execute q('" + pob + "');")
		if err != nil {
			t.Fatal(err)
		}
		want[pob] = res.Answers[0].ContentKey()
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			sess := FromCatalog(a.Catalog())
			sess.SetPlanCache(cache)
			pob := []string{"NYC", "LA"}[g%2]
			for i := 0; i < 10; i++ {
				res, err := sess.ExecString("execute q('" + pob + "');")
				if err != nil {
					done <- err
					return
				}
				if res.Answers[0].ContentKey() != want[pob] {
					done <- errors.New("concurrent binding mixed up arguments for " + pob)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := cache.Get("q").Compiles(); got != 1 {
		t.Fatalf("shared plan compiled %d times under concurrent execution, want 1", got)
	}
}

// TestExecuteArityDeclaredCount: an EXECUTE arity mismatch reports the
// statement's declared parameter count, not just whichever slot failed.
func TestExecuteArityDeclaredCount(t *testing.T) {
	s := NewSession()
	mustScript(t, s,
		"create table T (A, B);",
		"prepare q as select A from T where A = $1 and B = $2;",
	)
	_, err := s.ExecString("execute q(1);")
	if err == nil || !strings.Contains(err.Error(), "declares 2 parameter(s) ($1..$2)") {
		t.Fatalf("arity error must name the declared count, got: %v", err)
	}
	_, err = s.ExecString("execute q(1, 2, 3);")
	if err == nil || !strings.Contains(err.Error(), "declares 2 parameter(s)") {
		t.Fatalf("excess arguments must name the declared count, got: %v", err)
	}
	mustScript(t, s, "prepare p as select A from T;")
	_, err = s.ExecString("execute p(1);")
	if err == nil || !strings.Contains(err.Error(), "declares no parameters") {
		t.Fatalf("zero-parameter statement error: %v", err)
	}
}

// TestUnboundParamRejectedOnFallbackPath: a direct (unprepared) select
// holding $n must be refused even when it lies outside the WSA fragment
// — the legacy evaluator could otherwise short-circuit past the unbound
// slot and silently answer on some tuples.
func TestUnboundParamRejectedOnFallbackPath(t *testing.T) {
	s := NewSession()
	mustScript(t, s,
		"create table T (A, B);",
		"insert into T values (1, 10);",
	)
	// `B + 1` pushes the predicate outside the fragment, forcing the
	// legacy path where `or` can short-circuit before reaching $1.
	_, err := s.ExecString("select B from T where A = 1 or B + 1 = $1;")
	if err == nil || !strings.Contains(err.Error(), "unbound parameter $1") {
		t.Fatalf("unbound parameter on the fallback path must be refused, got: %v", err)
	}
}

// TestExecuteParamFragmentFallback: a parameterized prepared statement
// outside the clean WSA fragment (aggregation) binds into the parsed
// tree and runs on the fallback evaluator — same answers, no fast path.
func TestExecuteParamFragmentFallback(t *testing.T) {
	s := NewSession()
	mustScript(t, s,
		"create table T (A, B);",
		"insert into T values (1, 10);",
		"insert into T values (2, 10);",
		"insert into T values (3, 20);",
		"prepare agg as select count(*) as N from T where B = $1;",
	)
	got := singleAnswer(t, s, "execute agg(10);")
	if !got.Contains(relation.Tuple{value.Int(2)}) {
		t.Fatalf("execute agg(10) = %v, want count 2", got)
	}
	got = singleAnswer(t, s, "execute agg(20);")
	if !got.Contains(relation.Tuple{value.Int(1)}) {
		t.Fatalf("execute agg(20) = %v, want count 1", got)
	}
}

// TestTxnConflictAutoRetry: with RetryConflicts set, a transaction that
// loses first-committer-wins replays its writes on the new base and
// commits; both writers' effects land.
func TestTxnConflictAutoRetry(t *testing.T) {
	a := NewSession()
	a.RetryConflicts = 2
	mustScript(t, a, "create table T (A);")
	b := FromCatalog(a.Catalog())

	mustScript(t, a, "begin;", "insert into T values (1);")
	mustScript(t, b, "insert into T values (2);") // auto-commit wins the race
	if _, err := a.ExecString("commit;"); err != nil {
		t.Fatalf("retryable commit failed: %v", err)
	}
	if a.InTxn() {
		t.Fatal("retry left a transaction open")
	}
	got := singleAnswer(t, b, "select A from T;")
	if got.Len() != 2 || !got.Contains(relation.Tuple{value.Int(1)}) || !got.Contains(relation.Tuple{value.Int(2)}) {
		t.Fatalf("after retry T = %v, want both rows", got)
	}
	// Three commits happened: create, winner, retried transaction.
	if v := a.Catalog().Snapshot().Version; v != 4 {
		t.Fatalf("catalog at version %d, want 4", v)
	}
}

// TestTxnRetryReplayFailure: a retried statement failing on the new
// base (the winner took its table name) surfaces the replay error, not
// a silent partial commit.
func TestTxnRetryReplayFailure(t *testing.T) {
	a := NewSession()
	a.RetryConflicts = 3
	mustScript(t, a, "create table T (A);")
	b := FromCatalog(a.Catalog())

	mustScript(t, a, "begin;", "create table U (B);")
	mustScript(t, b, "create table U (C);") // winner takes the name
	_, err := a.ExecString("commit;")
	if err == nil || !strings.Contains(err.Error(), "conflict retry") {
		t.Fatalf("replay failure must surface, got: %v", err)
	}
	if a.InTxn() {
		t.Fatal("failed retry left a transaction open")
	}
	// The winner's U(C) is intact; the loser's U(B) never landed.
	snap := a.Catalog().Snapshot()
	idx := snap.DB.IndexOf("U")
	if idx < 0 || snap.DB.Schemas[idx].Index("C") < 0 {
		t.Fatalf("winner's table damaged: %v", snap.DB.Schemas)
	}
}

// TestTxnRetryDisabledByDefault: RetryConflicts defaults to zero — the
// pre-retry first-committer-wins behavior surfaces the conflict.
func TestTxnRetryDisabledByDefault(t *testing.T) {
	a := NewSession()
	mustScript(t, a, "create table T (A);")
	b := FromCatalog(a.Catalog())
	mustScript(t, a, "begin;", "insert into T values (1);")
	mustScript(t, b, "insert into T values (2);")
	_, err := a.ExecString("commit;")
	var ce *store.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want *store.ConflictError with retries disabled, got %v", err)
	}
}
