package isql

import (
	"strings"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
)

// TestSessionLifecycle: create table, insert, query, update, delete,
// drop — the plain-SQL subset behaves like a (single-world) database.
func TestSessionLifecycle(t *testing.T) {
	s := NewSession()
	mustExec(t, s, "create table T (A, B);")
	res := mustExec(t, s, "insert into T values (1, 'x'), (2, 'y'), (2, 'y');")
	if res.Affected != 2 {
		t.Errorf("insert affected %d, want 2 (set semantics)", res.Affected)
	}
	got := singleAnswer(t, s, "select A from T where B = 'y';")
	if got.Len() != 1 || !got.Contains(relation.Tuple{value.Int(2)}) {
		t.Fatalf("select = %v", got)
	}
	mustExec(t, s, "update T set A = 9 where B = 'x';")
	got = singleAnswer(t, s, "select A from T;")
	if !got.Contains(relation.Tuple{value.Int(9)}) {
		t.Fatalf("update missing: %v", got)
	}
	res = mustExec(t, s, "delete from T;")
	if res.Affected != 2 {
		t.Errorf("delete affected %d, want 2", res.Affected)
	}
	mustExec(t, s, "drop table T;")
	if _, err := s.ExecString("select * from T;"); err == nil {
		t.Fatal("expected unknown-relation error after drop")
	}
}

// TestDuplicateRelationNames: tables and views share a namespace.
func TestDuplicateRelationNames(t *testing.T) {
	s := flightsSession()
	mustExec(t, s, "create view V as select * from HFlights;")
	if _, err := s.ExecString("create table V (A);"); err == nil {
		t.Fatal("expected name-clash error")
	}
	if _, err := s.ExecString("create view HFlights as select * from HFlights;"); err == nil {
		t.Fatal("expected name-clash error for view over table name")
	}
	mustExec(t, s, "drop table V;") // drops the view
	mustExec(t, s, "create table V (A);")
}

// TestViewValidationAtCreate: a broken view body is rejected
// immediately, not at first use.
func TestViewValidationAtCreate(t *testing.T) {
	s := flightsSession()
	if _, err := s.ExecString("create view Bad as select Missing from HFlights;"); err == nil {
		t.Fatal("expected unknown-column error at view creation")
	}
	if len(s.Views()) != 0 {
		t.Fatal("failed view must not be registered")
	}
}

// TestNestedCorrelation: a two-level correlated subquery resolves
// against the outermost scope (the F1 alias).
func TestNestedCorrelation(t *testing.T) {
	s := flightsSession()
	// Departures that fly everywhere any airline flies to from FRA.
	got := singleAnswer(t, s, `select F1.Dep from HFlights F1
		where not exists (select * from HFlights F2
			where F2.Dep = 'FRA' and not exists (select * from HFlights F3
				where F3.Dep = F1.Dep and F3.Arr = F2.Arr));`)
	// FRA and PAR both serve {ATL, BCN}; PHL only ATL.
	want := relation.FromRows(relation.NewSchema("Dep"), strTuple("FRA"), strTuple("PAR"))
	if !got.EqualContents(want) {
		t.Fatalf("got %v, want {FRA, PAR}", got)
	}
}

// TestCorrelatedWorldCreatingSubqueryRejected: choice-of inside a
// correlated subquery has no coherent semantics and is refused.
func TestCorrelatedWorldCreatingSubqueryRejected(t *testing.T) {
	s := flightsSession()
	_, err := s.ExecString(`select F1.Dep from HFlights F1
		where F1.Arr in (select Arr from HFlights F2 where F2.Dep = F1.Dep choice of Arr);`)
	if err == nil || !strings.Contains(err.Error(), "correlated") {
		t.Fatalf("expected correlated-choice error, got %v", err)
	}
}

// TestAmbiguousColumnsRejected: self-products require aliases.
func TestAmbiguousColumnsRejected(t *testing.T) {
	s := flightsSession()
	if _, err := s.ExecString("select * from HFlights, HFlights;"); err == nil {
		t.Fatal("expected ambiguity error for unaliased self-product")
	}
	if _, err := s.ExecString("select Dep from HFlights A, HFlights B;"); err == nil {
		t.Fatal("expected ambiguous-column error")
	}
}

// TestInsertArityChecked: inserts must match the schema.
func TestInsertArityChecked(t *testing.T) {
	s := flightsSession()
	if _, err := s.ExecString("insert into HFlights values ('MUC');"); err == nil {
		t.Fatal("expected arity error")
	}
}

// TestGroupWorldsQueryMustNotCreateWorlds: the grouping query runs per
// world and may not itself fork worlds.
func TestGroupWorldsQueryMustNotCreateWorlds(t *testing.T) {
	s := flightsSession()
	_, err := s.ExecString(`select certain Arr from HFlights choice of Dep
		group worlds by (select * from HFlights choice of Arr);`)
	if err == nil {
		t.Fatal("expected an error for a world-creating grouping query")
	}
}

// TestEmptyGroupAggregate: a global aggregate over an empty relation
// yields one row (count = 0, sum = 0), per the documented semantics.
func TestEmptyGroupAggregate(t *testing.T) {
	s := NewSession()
	mustExec(t, s, "create table T (A);")
	got := singleAnswer(t, s, "select count(*) as N, sum(A) as S from T;")
	if got.Len() != 1 {
		t.Fatalf("global aggregate over empty input must yield one row, got %d", got.Len())
	}
	if !got.Contains(relation.Tuple{value.Int(0), value.Int(0)}) {
		t.Fatalf("want (0, 0), got %v", got)
	}
	// With group-by, no groups → no rows.
	got = singleAnswer(t, s, "select A, count(*) as N from T group by A;")
	if got.Len() != 0 {
		t.Fatalf("grouped aggregate over empty input must be empty, got %v", got)
	}
}

// TestChoiceOfQualifiedAttribute: choice-of resolves against the joined
// schema with qualified names. After projecting the answer to Arr, the
// FRA and PAR worlds carry identical contents and collapse (set
// semantics), leaving two distinct worlds — exactly what the reference
// Figure 3 semantics produces for π_Arr(χ_Dep(HFlights)).
func TestChoiceOfQualifiedAttribute(t *testing.T) {
	s := flightsSession()
	res := mustExec(t, s, "select F.Arr from HFlights F choice of F.Dep;")
	ws, err := res.Decomp.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 2 {
		t.Fatalf("expected 2 worlds after collapse, got %d", ws.Len())
	}
	if len(res.Answers) != 2 {
		t.Fatalf("expected the answers {ATL, BCN} and {ATL}, got %d", len(res.Answers))
	}
}

// TestArithmeticInSelectList: computed output columns.
func TestArithmeticInSelectList(t *testing.T) {
	s := FromDB([]string{"Lineitem"}, []*relation.Relation{tpchLineitem()})
	got := singleAnswer(t, s, "select Product, Price / 1000 as K from Lineitem where Year = 2000;")
	if got.Len() != 2 {
		t.Fatalf("rows = %d", got.Len())
	}
	if !got.Contains(relation.Tuple{value.Str("P1"), value.Float(1200)}) {
		t.Fatalf("computed column wrong: %v", got)
	}
}

// TestMultipleChoiceAttrs: choice of two attributes splits per value
// combination.
func TestMultipleChoiceAttrs(t *testing.T) {
	s := flightsSession()
	res := mustExec(t, s, "select * from HFlights choice of Dep, Arr;")
	ws, err := res.Decomp.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 5 {
		t.Fatalf("5 (Dep, Arr) combinations expected, got %d", ws.Len())
	}
}

// TestCTASThenQueryAcrossWorlds: materialized multi-world tables stay
// queryable and DML applies per world (integration of the pieces).
func TestCTASThenQueryAcrossWorlds(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	mustExec(t, s, "create table Clean as select * from Census repair by key SSN;")
	if s.WorldSet().Len() != 4 {
		t.Fatalf("4 repairs expected")
	}
	res := mustExec(t, s, "delete from Clean where SSN = 333;")
	if res.Affected != 4 {
		t.Fatalf("the SSN-333 tuple is in every repair; affected = %d", res.Affected)
	}
	got := singleAnswer(t, s, "select certain SSN from Clean;")
	want := relation.FromRows(relation.NewSchema("SSN"),
		relation.Tuple{value.Int(111)}, relation.Tuple{value.Int(222)})
	if !got.EqualContents(want) {
		t.Fatalf("certain SSNs = %v, want {111, 222}", got)
	}
}

// TestDMLNamesResolveBeforeData: a DELETE or UPDATE naming an unknown
// column (or holding an unbound placeholder) fails the same on an empty
// table as on a full one, on both arms — resolution happens in the
// shared DML entry, before any tuple is evaluated — and the errors keep
// the text evaluation used to report.
func TestDMLNamesResolveBeforeData(t *testing.T) {
	for _, engine := range []string{"", "legacy"} {
		for _, rows := range []string{"", "insert into T values (1);"} {
			s := NewSession()
			s.Engine = engine
			mustExec(t, s, "create table T (A);")
			if rows != "" {
				mustExec(t, s, rows)
			}
			for sql, want := range map[string]string{
				"delete from T where Nope = 1;":                                 `unknown column "Nope"`,
				"update T set A = Nope + 1;":                                    `unknown column "Nope"`,
				"update T set Nope = 1;":                                        `unknown column "Nope" in update`,
				"delete from T where A in (select Nope from T);":                `unknown column "Nope"`,
				"update T set A = 2 where exists (select * from Gone);":         `unknown relation "Gone"`,
				"delete from Gone where A = 1;":                                 `unknown relation "Gone"`,
				"delete from T where A = $1;":                                   "unbound parameter $1",
				"update T set A = $2 where A in (select A from T);":             "unbound parameter $2",
				"delete from T where exists (select * from T X where X.A = B);": `unknown column "B"`,
			} {
				if _, err := s.ExecString(sql); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("engine %q, rows %q: %s: got %v, want an error holding %s", engine, rows, sql, err, want)
				}
			}
			// What does resolve keeps working, correlated subquery included.
			mustExec(t, s, "delete from T where exists (select * from T X where X.A = A) and A = 7;")
		}
	}
}
