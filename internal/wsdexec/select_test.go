package wsdexec

import (
	"math"
	"strconv"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
)

// spansNamed returns every span named name in the tree under root.
func spansNamed(root *obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	var walk func(*obs.Span)
	walk = func(sp *obs.Span) {
		if sp.Name == name {
			out = append(out, sp)
		}
		for _, c := range sp.Children() {
			walk(c)
		}
	}
	walk(root)
	return out
}

// spanAttr returns the span's annotation key ("" when absent).
func spanAttr(sp *obs.Span, key string) string {
	for _, a := range sp.SortedAttrs() {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// spanInt is spanAttr parsed as an integer (0 when absent).
func spanInt(t *testing.T, sp *obs.Span, key string) int64 {
	t.Helper()
	v := spanAttr(sp, key)
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("span %s: %s=%q is not an integer", sp.Name, key, v)
	}
	return n
}

// selectAccess evaluates q (a certain answer) traced and returns the
// answer plus the access attribute of its (single) op:select span.
func selectAccess(t *testing.T, q wsa.Expr, db *wsd.DecompDB) (answer *relation.Relation, access string) {
	t.Helper()
	tr := obs.NewTrace("test")
	out, _, err := EvalOpts(q, db, &Options{NoRewrite: true, NoFallback: true, Trace: tr})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for _, sp := range spansNamed(tr, "op:select") {
		access = spanAttr(sp, "access")
	}
	return out.Certain[len(out.Certain)-1], access
}

// TestSelectProbeSemantics pins the equality semantics the index probe
// must share with the scan: numeric equality across Int and Float, no
// cross-kind matches, NULL and pad as ordinary constants, a column
// compared twice, either operand order — and the numerics whose
// equality is easy to get wrong (zero against −0.0, an integer past
// 2^53 against the float nearest it), which probe like any other
// constant. Every
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
		{"zero matches -0.0 and 0", eq("V", value.Int(0)), 2, "index"},
		{"2^53 does not match 2^53 + 1", eq("K", value.Float(1<<53)), 0, "index"},
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

// TestPointSelectTouchesWhatItSelects: a point select over the stored
// census repair (2^40 worlds) probes the certain part's cached index and
// scans only the small alternative pieces. The tuples it touches do not
// grow with the table, and are under a third of the table's.
func TestPointSelectTouchesWhatItSelects(t *testing.T) {
	var touched []int64
	for _, rows := range []int{1000, 4000} {
		db := datagen.CensusRepairDecomp(rows, 40, 3)
		q := rewrite.Prelower(wsa.NewPoss(&wsa.Select{
			Pred: ra.EqConst("SSN", value.Int(100517)), From: &wsa.Rel{Name: "Clean"}}), wsa.NewEnv(db.Names, db.Schemas))
		tr := obs.NewTrace("test")
		if _, plan, err := EvalOpts(q, db, &Options{NoRewrite: true, NoFallback: true, Trace: tr}); err != nil || !plan.Native {
			t.Fatalf("rows=%d: point select not native: %v %v", rows, plan, err)
		}
		sel := spansNamed(tr, "op:select")
		if len(sel) != 1 || spanAttr(sel[0], "access") != "index" {
			t.Fatalf("rows=%d: want one indexed select, got %d select spans", rows, len(sel))
		}
		n := spanInt(t, sel[0], "probed") + spanInt(t, sel[0], "scanned")
		t.Logf("rows=%d: point select touched %d tuples of %d", rows, n, db.Size())
		if 3*n > int64(db.Size()) {
			t.Errorf("rows=%d: point select touched %d tuples, over a third of the table's %d", rows, n, db.Size())
		}
		touched = append(touched, n)
	}
	if touched[0] != touched[1] {
		t.Errorf("point select touched %d tuples at 1000 rows and %d at 4000: it grows with the table", touched[0], touched[1])
	}
}
