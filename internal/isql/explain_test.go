package isql

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
)

// TestExplainAnalyzeGolden pins the normalized EXPLAIN ANALYZE span
// trees of the statement lifecycle end to end, against a WAL-backed
// catalog so the commit spans carry the group-commit queue wait and
// fsync: a census-repair CTAS over 2^40 worlds (native, with the full
// per-operator tree), a point select over that view (the certain part
// probed through its cached index, the one-tuple alternatives scanned),
// a join whose entanglement resolves by one
// bounded component merge, an aggregate outside the WSA fragment
// (the bounded arm), a choice-of over an uncertain answer (the engine
// fallback, enumerating the one component Pick1 depends on), a plain
// insert (commit + WAL only), and a DELETE
// whose predicate holds a subquery (the bounded arm under the commit).
// Durations are normalized to t=X; everything else — span names,
// nesting, component counts, merge costs, batch sizes — must stay
// byte-identical.
func TestExplainAnalyzeGolden(t *testing.T) {
	dir := t.TempDir()
	cat, wals := openStoreDir(t, dir, 1)
	defer closeWALs(wals)
	s := FromCatalog(cat)

	// Seed: the 2^40-world census (1000 people, 40 uncertain) plus a
	// 3-row Tiny table for the merge and fallback statements.
	census := datagen.Census(1000, 40, 7)
	if err := importRelation(s, "Census", census); err != nil {
		t.Fatal(err)
	}
	setup := `
create table Tiny (V);
insert into Tiny values (1), (2), (3);
create table Pick1 as select * from Tiny choice of V;
create table Pick2 as select * from Tiny choice of V;
`
	if _, err := s.ExecScript(setup); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, sql := range []string{
		`explain analyze create table Clean as select * from Census repair by key SSN;`,
		`explain analyze select possible Name, POB, POW from Clean where SSN = 100005;`,
		`explain analyze select certain X.V from Pick1 X, Pick2 Y where X.V = Y.V;`,
		`explain analyze select sum(V) as S from Pick1;`,
		`explain analyze select certain V from Pick1 choice of V;`,
		`explain analyze insert into Tiny values (9);`,
		`explain analyze delete from Tiny where V in (select V from Pick1);`,
	} {
		res, err := s.ExecString(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		fmt.Fprintf(&b, "== %s\n%s\n", sql, obs.NormalizeDurations(res.Message))
	}
	got := b.String()
	// The repair-by-key CTAS took the catalog to 2^40 worlds (times the
	// 9 Pick1×Pick2 combinations) — the trace above really covers a
	// statement at paper scale.
	if lg := s.Worlds().BitLen() - 1; lg < 40 {
		t.Fatalf("post-repair worlds = 2^%d, want ≥ 2^40", lg)
	}

	goldenPath := filepath.Join("testdata", "explain_analyze.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (rerun with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("explain analyze output drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// importRelation installs a complete relation into the session catalog
// under the given name.
func importRelation(s *Session, name string, r *relation.Relation) error {
	return s.updateRouted(nil, func(tx *store.Tx) error {
		tx.Log(fmt.Sprintf("-- import %s", name))
		db := tx.DB().WithRelation(name, r.Schema(), r)
		tx.SetDB(db)
		return nil
	})
}

// TestExplainCompileOnly checks the bare EXPLAIN form: compiled (and
// prelowered) algebra without execution, and the fragment diagnosis
// for statements outside the clean WSA fragment.
func TestExplainCompileOnly(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecScript(`create table R (A, B); insert into R values (1, 2);`); err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecString(`explain select A from R;`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "compiled:") {
		t.Fatalf("explain message %q lacks compiled algebra", res.Message)
	}
	res, err = s.ExecString(`explain select sum(A) as S from R;`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "outside the WSA fragment") {
		t.Fatalf("explain message %q lacks fragment diagnosis", res.Message)
	}
	// EXPLAIN of transaction control is rejected at parse time.
	if _, err := Parse(`explain analyze begin;`); err == nil {
		t.Fatal("explain analyze begin parsed, want error")
	}
}

// TestExplainAnalyzeDoesNotLeakTrace checks the session span resets
// after EXPLAIN ANALYZE, so later statements run untraced.
func TestExplainAnalyzeDoesNotLeakTrace(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecScript(`create table R (A); insert into R values (1);`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecString(`explain analyze select A from R;`); err != nil {
		t.Fatal(err)
	}
	if s.span != nil {
		t.Fatal("session span not reset after explain analyze")
	}
}
