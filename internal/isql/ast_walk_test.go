package isql

import (
	"strings"
	"testing"

	"worldsetdb/internal/value"
)

// TestTraversalReachesEveryPosition puts a $1 placeholder and a read of
// the table Probe into each expression-carrying position of each
// statement kind, and checks that the three consumers of the one
// traversal see them: maxParam numbers the placeholder, bindStmt
// replaces it (in a copy), stmtRelations routes the statement to Probe.
// A position walkStmt or mapStmt misses — or a new node kind added to
// only some of them — would otherwise leave a placeholder unbound or
// read a relation the bounded input did not enumerate.
func TestTraversalReachesEveryPosition(t *testing.T) {
	const probe = "(select P from Probe where P = $1)"
	for _, tc := range []struct {
		position, sql string
		noRelation    bool // the position holds values, not expressions
	}{
		{"select item", "select " + probe + " as X from T", false},
		{"from subquery", "select * from " + probe + " as S", false},
		{"divide-by item", "select A from T divide by " + probe + " as D on A = D.P", false},
		{"divide-by on", "select A from T divide by U as D on A = " + probe, false},
		{"where", "select A from T where A = " + probe, false},
		{"group worlds by query", "select possible A from T group worlds by " + probe, false},
		{"in subquery", "select A from T where A in " + probe, false},
		{"in left operand", "select A from T where " + probe + " in (select B from U)", false},
		{"exists", "select A from T where not exists " + probe, false},
		{"aggregate argument", "select sum(A + " + probe + ") as S from T group by B", false},
		{"connectives and arithmetic", "select A from T where not (A = 1 or (A > 0 and A * 2 = 1 - " + probe + "))", false},
		{"nested subquery", "select A from T where A in (select B from U where exists " + probe + ")", false},
		{"insert values", "insert into Probe values (1, $1)", true},
		{"update set", "update T set A = " + probe, false},
		{"update where", "update T set A = 1 where A = " + probe, false},
		{"delete where", "delete from T where A in " + probe, false},
		{"create table as", "create table N as select A from T where A = " + probe, false},
		{"create view", "create view V as select A from T where A = " + probe, false},
	} {
		st, err := Parse(tc.sql)
		if err != nil {
			t.Errorf("%s: %v", tc.position, err)
			continue
		}
		if got := maxParam(st); got != 1 {
			t.Errorf("%s: maxParam = %d, want 1", tc.position, got)
		}
		bound := bindStmt(st, []value.Value{value.Int(4242)})
		if text := bound.String(); maxParam(bound) != 0 || strings.Contains(text, "$1") || !strings.Contains(text, "4242") {
			t.Errorf("%s: bindStmt left the placeholder unbound: %s", tc.position, text)
		}
		if !strings.Contains(st.String(), "$1") {
			t.Errorf("%s: bindStmt mutated the prepared tree: %s", tc.position, st)
		}
		refs := map[string]bool{}
		NewSession().stmtRelations(st, refs)
		if !tc.noRelation && !refs["Probe"] {
			t.Errorf("%s: stmtRelations = %v, want Probe among them", tc.position, refs)
		}
	}
}
