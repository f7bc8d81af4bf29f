package wsdexec

import (
	"math"
	"testing"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
)

// selectAccess evaluates q (a certain answer) traced and returns the
// answer plus the access attribute of its (single) op:select span.
func selectAccess(t *testing.T, q wsa.Expr, db *wsd.DecompDB) (answer *relation.Relation, access string) {
	t.Helper()
	tr := obs.NewTrace("test")
	out, _, err := EvalOpts(q, db, &Options{NoRewrite: true, NoFallback: true, Trace: tr})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		if s.Name == "op:select" {
			for _, a := range s.SortedAttrs() {
				if a.Key == "access" {
					access = a.Val
				}
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(tr)
	return out.Certain[len(out.Certain)-1], access
}

// TestSelectProbeSemantics pins the equality semantics the index probe
// must share with the scan: numeric equality across Int and Float, no
// cross-kind matches, NULL and pad as ordinary constants, a column
// compared twice, either operand order — and the constants on which
// hashing and comparison part ways, which must be scanned for. Every
// case is answered twice, over the stored relation (probe eligible) and
// over R ∪ R (computed pieces, always scanned), and must agree.
func TestSelectProbeSemantics(t *testing.T) {
	r := relation.New(relation.NewSchema("K", "V"))
	for i := int64(1); i <= 2*relation.IndexProbeMin; i++ {
		r.Insert(relation.Tuple{value.Int(100000 + i), value.Int(i)})
	}
	r.Insert(relation.Tuple{value.Null(), value.Int(-1)})
	r.Insert(relation.Tuple{value.Pad(), value.Int(-2)})
	r.Insert(relation.Tuple{value.Int(1<<53 + 1), value.Int(-3)})
	r.Insert(relation.Tuple{value.Int(-4), value.Float(math.Copysign(0, -1))})
	r.Insert(relation.Tuple{value.Int(-5), value.Int(0)})
	db := wsd.FromComplete([]string{"R"}, []*relation.Relation{r})

	eq := func(col string, v value.Value) ra.Pred { return ra.EqConst(col, v) }
	cases := []struct {
		name   string
		pred   ra.Pred
		rows   int
		access string
	}{
		{"float constant, integer column", eq("K", value.Float(100005.0)), 1, "index"},
		{"string constant, integer column", eq("K", value.Str("100005")), 0, "index"},
		{"null constant", eq("K", value.Null()), 1, "index"},
		{"pad constant", eq("K", value.Pad()), 1, "index"},
		{"same column twice", ra.And{L: eq("K", value.Int(100001)), R: eq("K", value.Int(100002))}, 0, "index"},
		{"same column twice, same constant", ra.And{L: eq("K", value.Int(100001)), R: eq("K", value.Int(100001))}, 1, "index"},
		{"constant = column", ra.Cmp{Left: ra.Const(value.Int(100007)), Op: ra.OpEq, Right: ra.Col("K")}, 1, "index"},
		{"two columns", ra.And{L: eq("V", value.Int(7)), R: eq("K", value.Int(100007))}, 1, "index"},
		{"residual conjunct", ra.And{L: eq("K", value.Int(100007)), R: ra.NeConst("V", value.Int(7))}, 0, "index"},
		{"zero matches -0.0 and 0: scanned", eq("V", value.Int(0)), 2, "scan"},
		{"2^53 matches the integer it rounds from: scanned", eq("K", value.Float(1<<53)), 1, "scan"},
		{"disjunction: scanned", ra.Or{L: eq("K", value.Int(100003)), R: eq("V", value.Int(5))}, 2, "scan"},
		{"inequality: scanned", ra.NeConst("V", value.Int(1)), r.Len() - 1, "scan"},
	}
	stored := &wsa.Rel{Name: "R"}
	for _, c := range cases {
		got, access := selectAccess(t, &wsa.Select{Pred: c.pred, From: stored}, db)
		want, scanAccess := selectAccess(t, &wsa.Select{Pred: c.pred, From: wsa.NewUnion(stored, stored)}, db)
		if !got.Equal(want) {
			t.Errorf("%s: probe and scan disagree\nover R:\n%s\nover R ∪ R:\n%s", c.name, got, want)
		}
		if got.Len() != c.rows {
			t.Errorf("%s: %d rows, want %d\n%s", c.name, got.Len(), c.rows, got)
		}
		if access != c.access {
			t.Errorf("%s: access=%s, want %s", c.name, access, c.access)
		}
		if scanAccess != "scan" {
			t.Errorf("%s: computed pieces must be scanned, got access=%s", c.name, scanAccess)
		}
	}
}

// TestSelectSmallPieceScanned: below relation.IndexProbeMin a stored
// piece is scanned even for an equality on a constant.
func TestSelectSmallPieceScanned(t *testing.T) {
	r := relation.New(relation.NewSchema("K"))
	for i := int64(0); i < relation.IndexProbeMin-1; i++ {
		r.Insert(relation.Tuple{value.Int(i)})
	}
	db := wsd.FromComplete([]string{"R"}, []*relation.Relation{r})
	got, access := selectAccess(t, &wsa.Select{Pred: ra.EqConst("K", value.Int(3)), From: &wsa.Rel{Name: "R"}}, db)
	if access != "scan" || got.Len() != 1 {
		t.Fatalf("access=%s, answer:\n%s", access, got)
	}
}

// TestRenameSharesIndexCache: an index built through a rename of a
// catalog relation is the catalog relation's own — the next statement,
// through whatever rename, finds it instead of rebuilding.
func TestRenameSharesIndexCache(t *testing.T) {
	r := relation.New(relation.NewSchema("K", "V"))
	for i := int64(0); i < 2*relation.IndexProbeMin; i++ {
		r.Insert(relation.Tuple{value.Int(i), value.Int(i % 7)})
	}
	db := wsd.FromComplete([]string{"R"}, []*relation.Relation{r})
	q := &wsa.Select{Pred: ra.EqConst("X", value.Int(9)),
		From: &wsa.Rename{Pairs: []ra.RenamePair{{From: "K", To: "X"}}, From: &wsa.Rel{Name: "R"}}}
	if _, access := selectAccess(t, q, db); access != "index" {
		t.Fatalf("select over a rename must probe, got access=%s", access)
	}
	if a, b := r.WithSchema(relation.NewSchema("P", "Q")).IndexOn([]int{1}), r.IndexOn([]int{1}); a != b {
		t.Fatal("a relation and its rename must share one cached index per column list")
	}
}
