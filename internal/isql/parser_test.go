package isql

import (
	"strings"
	"testing"

	"worldsetdb/internal/value"
)

// TestParseRoundTrip checks that parsing the String() rendering of a
// parsed statement reproduces the same rendering — the stability
// property the tooling relies on.
func TestParseRoundTrip(t *testing.T) {
	statements := []string{
		"select * from Flights;",
		"select certain Arr from HFlights choice of Dep;",
		"select possible CID from W where Skill = 'Web';",
		"select R1.CID, R1.EID from Company_Emp R1, (select * from U choice of EID) R2 where R1.CID = R2.CID and R1.EID != R2.EID;",
		"select A.Year, sum(A.Price) as Revenue from (select * from Lineitem choice of Year) as A where Quantity not in (select * from Lineitem choice of Quantity) group by A.Year;",
		"select * from Census repair by key SSN;",
		"select certain CID, Skill from V, Emp_Skills where V.EID = Emp_Skills.EID group worlds by (select CID from V);",
		"select certain Arr from HFlights choice of Dep group worlds by Dep;",
		"select Arr from (select Arr, Dep from HFlights) as F1 divide by (select Dep from HFlights) as F2 on F1.Dep = F2.Dep;",
		"select F1.Arr from HFlights F1 where not exists (select * from HFlights F2 where not exists (select * from HFlights F3 where F3.Dep = F2.Dep and F3.Arr = F1.Arr));",
		"insert into Flights values ('ZRH', 'BCN'), ('ZRH', 'ATL');",
		"delete from Flights where Arr = 'ATL';",
		"update Flights set Arr = 'BCN' where Dep = 'FRA';",
		"create view V as select * from Flights;",
		"create table T (A, B, C);",
		"create table U as select * from Flights choice of Dep;",
		"drop table T;",
		"select possible Year from YQ as Y where (select sum(Price) from L where L.Year = Y.Year) - Y.Revenue > 1000000;",
		"select A, count(*) as N, min(B) as Lo, max(B) as Hi, avg(B) as M from R group by A;",
		"select * from R where A >= 1 and (B < 2 or not C = 3);",
	}
	for _, sql := range statements {
		st1, err := Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		rendered := st1.String()
		st2, err := Parse(rendered + ";")
		if err != nil {
			t.Fatalf("re-parse of %q (rendered from %q): %v", rendered, sql, err)
		}
		if st2.String() != rendered {
			t.Errorf("round trip unstable:\n  sql:      %s\n  render1:  %s\n  render2:  %s",
				sql, rendered, st2.String())
		}
	}
}

// TestParseScriptSplitsStatements checks multi-statement scripts with
// comments and blank statements.
func TestParseScriptSplitsStatements(t *testing.T) {
	script := `
		-- load
		create table T (A);
		insert into T values (1), (2);;

		select * from T; -- trailing comment
	`
	stmts, err := ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("parsed %d statements, want 3", len(stmts))
	}
	if _, ok := stmts[0].(*CreateTableStmt); !ok {
		t.Errorf("statement 0 is %T", stmts[0])
	}
	if ins, ok := stmts[1].(*InsertStmt); !ok || len(ins.Rows) != 2 {
		t.Errorf("statement 1 is %T with wrong rows", stmts[1])
	}
}

// TestLexerDetails covers operators, strings and comments.
func TestLexerDetails(t *testing.T) {
	toks, err := Lex("a<>b <= >= != 'x y' -- rest\n3.5 1.CID")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind != TokEOF {
			texts = append(texts, tk.Text)
		}
	}
	want := []string{"a", "<>", "b", "<=", ">=", "!=", "x y", "3.5", "1", ".", "CID"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("expected unterminated-string error")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Error("expected unexpected-character error")
	}
}

// TestParseLiterals covers literal parsing in inserts, including
// negatives and booleans.
func TestParseLiterals(t *testing.T) {
	st, err := Parse("insert into T values (1, -2, 2.5, 'x', true, null);")
	if err != nil {
		t.Fatal(err)
	}
	row := st.(*InsertStmt).Rows[0]
	want := []value.Value{
		value.Int(1), value.Int(-2), value.Float(2.5),
		value.Str("x"), value.Bool(true), value.Null(),
	}
	if len(row) != len(want) {
		t.Fatalf("row arity %d, want %d", len(row), len(want))
	}
	for i := range want {
		if !row[i].Equal(want[i]) || row[i].Kind() != want[i].Kind() {
			t.Errorf("literal %d = %v (%s), want %v (%s)",
				i, row[i], row[i].Kind(), want[i], want[i].Kind())
		}
	}
}

// TestAliasParsing: implicit and explicit aliases, and keywords that end
// an alias position.
func TestAliasParsing(t *testing.T) {
	st, err := Parse("select F.Arr from HFlights F where F.Dep = 'FRA';")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if sel.From[0].Alias != "F" {
		t.Errorf("implicit alias = %q", sel.From[0].Alias)
	}
	st, err = Parse("select X.A as B from T as X group by X.A;")
	if err != nil {
		t.Fatal(err)
	}
	sel = st.(*SelectStmt)
	if sel.Items[0].Alias != "B" || sel.From[0].Alias != "X" {
		t.Errorf("explicit aliases lost: %+v", sel)
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].Full() != "X.A" {
		t.Errorf("group by = %v", sel.GroupBy)
	}
}

// TestOperatorPrecedence: AND binds tighter than OR; NOT tightest.
func TestOperatorPrecedence(t *testing.T) {
	st, err := Parse("select * from T where A = 1 or B = 2 and C = 3;")
	if err != nil {
		t.Fatal(err)
	}
	where := st.(*SelectStmt).Where
	or, ok := where.(*LogicExpr)
	if !ok || or.Op != "or" {
		t.Fatalf("top operator should be OR, got %s", where)
	}
	and, ok := or.R.(*LogicExpr)
	if !ok || and.Op != "and" {
		t.Fatalf("right branch should be AND, got %s", or.R)
	}
}

// TestFloatLiteralRoundTrip: a float literal renders so that it
// re-parses to a float of the same value — an integral float keeps a
// fraction — so parse → String() → parse is a fixed point.
func TestFloatLiteralRoundTrip(t *testing.T) {
	for _, lit := range []string{"0.0", "1234567.0", "1000000000000000000000.0", "2.5", "0.000001"} {
		st, err := Parse("insert into T values (" + lit + ");")
		if err != nil {
			t.Fatal(err)
		}
		st2, err := Parse(st.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", st.String(), err)
		}
		v, v2 := st.(*InsertStmt).Rows[0][0], st2.(*InsertStmt).Rows[0][0]
		if st2.String() != st.String() || v.Kind() != value.KindFloat || v2.Kind() != value.KindFloat || !v.Equal(v2) {
			t.Errorf("%s: rendered %q (%s), re-parsed %q (%s)", lit, st.String(), v.Kind(), st2.String(), v2.Kind())
		}
	}
	for _, f := range []float64{0, 1234567, 1e21, -3} {
		if v := value.Parse(renderLiteral(value.Float(f))); v.Kind() != value.KindFloat || v.AsFloat() != f {
			t.Errorf("Float(%g) renders %q, re-parsing to %v (%s)", f, renderLiteral(value.Float(f)), v, v.Kind())
		}
	}
}

// TestQuotedStringLiteralRoundTrip: embedded quotes double on render
// (SQL convention) and the lexer folds them back.
func TestQuotedStringLiteralRoundTrip(t *testing.T) {
	st, err := Parse("insert into T values ('it''s', '''lead', 'trail''');")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	want := []string{"it's", "'lead", "trail'"}
	for i, w := range want {
		if got := ins.Rows[0][i].AsString(); got != w {
			t.Fatalf("cell %d = %q, want %q", i, got, w)
		}
	}
	st2, err := Parse(st.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", st.String(), err)
	}
	if st.String() != st2.String() {
		t.Fatalf("quoted literals do not round-trip: %q vs %q", st.String(), st2.String())
	}
}
