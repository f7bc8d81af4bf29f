package isql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/randquery"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsd"
)

// oracleSeed draws the base tables of one oracle script: R(A, B) and
// S(C). B mixes small integers with floats whose sum depends on the
// order they are added in (1e16 + 0.5 - 1e16 is 0 in one order and 0.5
// in another), so a sum or average over B pins its addition order.
func oracleSeed(rng *rand.Rand) ([]string, []*relation.Relation) {
	floats := []float64{1e16, -1e16, 0.5, 1.5}
	r := relation.New(relation.NewSchema("A", "B"))
	for i := 0; i < 6+rng.Intn(5); i++ {
		b := value.Int(int64(rng.Intn(8)))
		if rng.Intn(2) == 0 {
			b = value.Float(floats[rng.Intn(len(floats))])
		}
		r.InsertValues(value.Int(int64(rng.Intn(6))), b)
	}
	s := relation.New(relation.NewSchema("C"))
	for i := 0; i < 3+rng.Intn(4); i++ {
		s.InsertValues(value.Int(int64(rng.Intn(8))))
	}
	return []string{"R", "S"}, []*relation.Relation{r, s}
}

// TestBoundedEvaluatorOracle checks the world-at-a-time evaluator — the
// one the native session's bounded arm and the legacy engine share, so
// the differential sweeps cannot catch a bug in it — against answers
// computed without it, over randquery's generated catalogs and
// statements. For every generated aggregate (count(*), sum, min or max,
// with or without a group-by) it expands the session's worlds and
// computes each world's answer in plain Go, adding a group's values in
// Tuple.Compare order. Every generated IN is compared with its join
// rewrite, which is in the WSA fragment and runs natively, and every
// NOT IN with the complement taken in plain Go; each is checked again
// with the subquery selecting every column of its table, where that
// table has a column of the outer column's name, so the evaluator must
// pick that column out of several. Each aggregate's strategy is read
// off its exec.bounded span; beside the generated statements every
// script runs four aggregates over a table whose parts mostly overlap,
// and each strategy must run at least 30 times.
func TestBoundedEvaluatorOracle(t *testing.T) {
	scripts, perScript := 40, 24
	if testing.Short() {
		scripts = 8
	}
	rng := rand.New(rand.NewSource(20070611))
	var aggs, ins, notIns int
	strategies := map[string]int{}
	for i := 0; i < scripts; i++ {
		names, rels := oracleSeed(rng)
		schemas := []relation.Schema{rels[0].Schema(), rels[1].Schema()}
		gen := randquery.NewStmtGen(rng, names, schemas)
		s := FromDB(names, rels)
		setup := []string{gen.CreateUncertain()}
		if rng.Intn(2) == 0 {
			setup = append(setup, gen.CreateUncertain())
		}
		setup = append(setup, gen.CreateDerived(), gen.Insert())
		for _, sql := range setup {
			mustExec(t, s, sql)
		}
		// P projects a repair of R to B. Tuples of distinct components, or
		// of a component and the certain part, that differ only in A
		// project to one tuple, and the factorized projection keeps each
		// where it was, so P's parts mostly overlap and its aggregates
		// take the worlds path.
		for _, sql := range []string{"create table Q as select * from R repair by key A;", "create table P as select B from Q;"} {
			mustExec(t, s, sql)
			setup = append(setup, sql)
		}
		ws := s.WorldSet()
		if ws == nil {
			t.Fatalf("script %d: catalog not expandable after %v", i, setup)
		}
		stmts := make([]string, perScript)
		for j := range stmts {
			stmts[j] = gen.Select()
		}
		// P's aggregates come from a generator of their own, so the
		// statements over the other tables stay as generated.
		prng := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 4; j++ {
			stmts = append(stmts, aggregateOverP(prng))
		}
		for _, sql := range stmts {
			st, err := Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			sel := st.(*SelectStmt)
			fail := func(format string, args ...any) {
				t.Fatalf("script %d, %s\nsetup: %s\n%s", i, sql, strings.Join(setup, " "), fmt.Sprintf(format, args...))
			}
			switch in, _ := sel.Where.(*InExpr); {
			case sel.Close == CloseNone && len(sel.Items) > 0 && isAggregate(sel):
				aggs++
				res, attrs := execTraced(t, s, sql)
				strategies[attrs["eval"]]++
				if got, want := answerKeys(res.Answers), answerKeys(aggOracle(t, ws, sel)); got != want {
					fail("eval=%s answers:\n%s\nplain Go:\n%s", attrs["eval"], got, want)
				}
			case in != nil:
				left := in.Left.(*ColExpr).Ref.Name
				sub := in.Sub.From[0].Table
				cols := []string{in.Sub.Items[0].Expr.(*ColExpr).Ref.Name}
				if uc := ws.Schemas()[ws.IndexOf(sub)]; len(uc) > 1 && uc.Index(left) >= 0 {
					cols = append(cols, "*")
				}
				for _, c := range cols {
					q := fmt.Sprintf("select %s from %s where %s %sin (select %s from %s);",
						left, sel.From[0].Table, left, map[bool]string{true: "not "}[in.Neg], c, sub)
					got := answerKeys(mustExec(t, s, q).Answers)
					match := c
					if match == "*" {
						match = left
					}
					var want string
					if in.Neg {
						notIns++
						want = answerKeys(notInOracle(ws, sel.From[0].Table, left, sub, match))
					} else {
						ins++
						join := mustExec(t, s, fmt.Sprintf("select X.%s from %s X, %s Y where X.%s = Y.%s;",
							left, sel.From[0].Table, sub, left, match))
						if join.Plan == nil || !join.Plan.Native {
							fail("join rewrite not native: %v", join.Plan)
						}
						want = answerKeys(join.Answers)
					}
					if got != want {
						fail("%s answers:\n%s\nwant:\n%s", q, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d aggregates (by strategy %v), %d IN, %d NOT IN checked", aggs, strategies, ins, notIns)
	if aggs < 100 || ins < 30 || notIns < 10 {
		t.Fatalf("oracle too small: %d aggregates, %d IN, %d NOT IN", aggs, ins, notIns)
	}
	if min := 30; !testing.Short() && (strategies["parts"] < min || strategies["worlds"] < min) {
		t.Fatalf("each aggregate strategy must run at least %d times: %v", min, strategies)
	}
}

// TestOneTableAggregateOverlappingParts: hand-built decompositions of
// T(G, V) where a piece repeats a certain tuple, or two components share
// a tuple, or both. Concatenating the chosen parts' groups would count
// such a tuple twice, so every aggregate must take the worlds path, and
// its answers must equal the plain-Go oracle's. With the overlaps taken
// out the same aggregates take the parts path, except on the legacy
// engine, which never does.
func TestOneTableAggregateOverlappingParts(t *testing.T) {
	row := func(g, v int64) relation.Tuple { return relation.Tuple{value.Int(g), value.Int(v)} }
	schema := relation.NewSchema("G", "V")
	piece := func(rows ...relation.Tuple) wsd.DBAlternative {
		r := relation.New(schema)
		for _, t := range rows {
			r.Insert(t)
		}
		return wsd.DBAlternative{Rels: map[int]*relation.Relation{0: r}}
	}
	catalog := func(repeat, share bool) *wsd.DecompDB {
		db := wsd.NewDecompDB([]string{"T"}, []relation.Schema{schema})
		for _, t := range []relation.Tuple{row(1, 10), row(2, 20), row(2, 21)} {
			db.Certain[0].Insert(t)
		}
		first, third := row(1, 12), row(3, 31)
		if repeat {
			first = row(1, 10) // in the certain part
		}
		if share {
			third = row(3, 30) // in component 2
		}
		db.Components = []wsd.DBComponent{
			{ID: 1, Alternatives: []wsd.DBAlternative{piece(first), piece(row(1, 11))}},
			{ID: 2, Alternatives: []wsd.DBAlternative{piece(row(3, 30)), piece(row(2, 22))}},
			{ID: 3, Alternatives: []wsd.DBAlternative{piece(third), piece()}},
		}
		return db
	}
	stmts := []string{
		"select count(*) as N from T;",
		"select sum(V) as S from T;",
		"select min(V) as S from T where V >= 11;",
		"select max(V) as S from T where V != 30;",
		"select G, count(*) as N from T group by G;",
		"select G, count(*) as N from T where V < 30 group by G;",
	}
	for _, c := range []struct {
		repeat, share bool
		engine        string
		want          string
	}{
		{true, false, "", "worlds"},
		{false, true, "", "worlds"},
		{true, true, "", "worlds"},
		{false, false, "", "parts"},
		{false, false, legacyEngine, "worlds"},
	} {
		s := FromCatalog(store.New(catalog(c.repeat, c.share)))
		s.Engine = c.engine
		ws := s.WorldSet()
		for _, sql := range stmts {
			st, err := Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			res, attrs := execTraced(t, s, sql)
			if attrs["eval"] != c.want {
				t.Errorf("%+v, %s: eval=%s", c, sql, attrs["eval"])
			}
			if got, want := answerKeys(res.Answers), answerKeys(aggOracle(t, ws, st.(*SelectStmt))); got != want {
				t.Errorf("%+v, %s: answers\n%s\nplain Go:\n%s", c, sql, got, want)
			}
		}
	}
}

// aggregateOverP returns one aggregate over P(B) in the shapes
// randquery's StmtGen generates: count(*), sum, min or max of B, or a
// count grouped by B, with or without a comparison of B with a
// constant.
func aggregateOverP(rng *rand.Rand) string {
	where := ""
	if rng.Intn(2) == 0 {
		ops := []string{"=", "!=", "<", ">="}
		where = fmt.Sprintf(" where B %s %d", ops[rng.Intn(len(ops))], rng.Intn(8))
	}
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("select count(*) as N from P%s;", where)
	case 1:
		return fmt.Sprintf("select %s(B) as S from P%s;", []string{"sum", "min", "max"}[rng.Intn(3)], where)
	}
	return fmt.Sprintf("select B, count(*) as N from P%s group by B;", where)
}

// execTraced runs sql with a trace attached and returns its result and
// the attributes of its exec.bounded span (none when it took the native
// arm).
func execTraced(tb testing.TB, s *Session, sql string) (*Result, map[string]string) {
	tb.Helper()
	tr := obs.NewTrace("stmt")
	s.SetTrace(tr)
	defer s.SetTrace(nil)
	res := mustExec(tb, s, sql)
	attrs := map[string]string{}
	for _, c := range tr.Children() {
		if c.Name == "exec.bounded" {
			for _, a := range c.SortedAttrs() {
				attrs[a.Key] = a.Val
			}
		}
	}
	return res, attrs
}

// isAggregate reports whether a select item holds an aggregate.
func isAggregate(sel *SelectStmt) bool {
	for _, it := range sel.Items {
		if _, ok := it.Expr.(*AggExpr); ok {
			return true
		}
	}
	return false
}

// answerKeys renders a list of distinct answers in ContentKey order.
func answerKeys(rs []*relation.Relation) string {
	rs = slices.Clone(rs)
	relation.SortByContent(rs)
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.String())
	}
	return b.String()
}

// distinctAnswers keeps one relation per distinct content.
func distinctAnswers(rs []*relation.Relation) []*relation.Relation {
	seen := map[string]bool{}
	var out []*relation.Relation
	for _, r := range rs {
		if k := r.ContentKey(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// literalOf returns the constant a generated comparison compares with:
// a literal, or a literal under unary minus (parsed as 0 - v).
func literalOf(t *testing.T, e Expr) value.Value {
	switch n := e.(type) {
	case *LitExpr:
		return n.Val
	case *BinExpr:
		v := n.R.(*LitExpr).Val
		if v.Kind() == value.KindInt {
			return value.Int(-v.AsInt())
		}
		return value.Float(0 - v.AsFloat())
	}
	t.Fatalf("not a literal: %s", e)
	return value.Null()
}

// aggOracle computes, world by world and without the session's
// evaluator, the distinct answers of a generated aggregate select: one
// table, an optional `column op literal` filter, an optional group-by
// column and one aggregate.
func aggOracle(t *testing.T, ws *worldset.WorldSet, sel *SelectStmt) []*relation.Relation {
	ti := ws.IndexOf(sel.From[0].Table)
	schema := ws.Schemas()[ti]
	keep := func(relation.Tuple) bool { return true }
	if w, ok := sel.Where.(*BinExpr); ok {
		col, lit := schema.Index(w.L.(*ColExpr).Ref.Name), literalOf(t, w.R)
		keep = func(row relation.Tuple) bool {
			c := row[col].Compare(lit)
			switch w.Op {
			case "=":
				return c == 0
			case "!=":
				return c != 0
			case "<":
				return c < 0
			case ">=":
				return c >= 0
			}
			t.Fatalf("unexpected operator %s", w.Op)
			return false
		}
	}
	group := -1
	if len(sel.GroupBy) > 0 {
		group = schema.Index(sel.GroupBy[0].Name)
	}
	var agg *AggExpr
	var out relation.Schema
	for i, it := range sel.Items {
		if a, ok := it.Expr.(*AggExpr); ok {
			agg = a
		}
		out = append(out, outputName(it, i))
	}
	arg := -1
	if !agg.Star {
		arg = schema.Index(agg.Arg.(*ColExpr).Ref.Name)
	}
	var answers []*relation.Relation
	for _, w := range ws.Worlds() {
		var rows []relation.Tuple
		for _, row := range w[ti].Tuples() { // Tuple.Compare order
			if keep(row) {
				rows = append(rows, row)
			}
		}
		groups := map[string][]relation.Tuple{}
		var order []string
		for _, row := range rows {
			k := ""
			if group >= 0 {
				k = relation.Tuple{row[group]}.Key()
			}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], row)
		}
		if group < 0 && len(rows) == 0 {
			order = []string{""}
		}
		ans := relation.New(out)
		for _, k := range order {
			g := groups[k]
			var row relation.Tuple
			if group >= 0 {
				row = relation.Tuple{g[0][group]}
			}
			ans.Insert(append(row, aggregate(agg.Fn, arg, g)))
		}
		answers = append(answers, ans)
	}
	return distinctAnswers(answers)
}

// aggregate computes fn over column arg (-1 for count(*)) of rows, in
// their order: sum and avg add as floats in that order once a value is
// not an integer; an empty sum is 0, an empty min or max NULL.
func aggregate(fn string, arg int, rows []relation.Tuple) value.Value {
	if arg < 0 {
		return value.Int(int64(len(rows)))
	}
	var vals []value.Value
	for _, r := range rows {
		if !r[arg].IsNull() {
			vals = append(vals, r[arg])
		}
	}
	switch fn {
	case "count":
		return value.Int(int64(len(vals)))
	case "sum":
		var i int64
		var f float64
		allInt := true
		for _, v := range vals {
			if v.Kind() == value.KindInt {
				i += v.AsInt()
			} else {
				allInt = false
			}
			f += v.AsFloat()
		}
		if allInt {
			return value.Int(i)
		}
		return value.Float(f)
	case "min", "max":
		if len(vals) == 0 {
			return value.Null()
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if c := v.Compare(best); fn == "min" && c < 0 || fn == "max" && c > 0 {
				best = v
			}
		}
		return best
	}
	panic("aggregate: unexpected function " + fn)
}

// notInOracle computes, world by world, the distinct answers of
// `select col from table where col not in (select subCol from sub)`.
func notInOracle(ws *worldset.WorldSet, table, col, sub, subCol string) []*relation.Relation {
	ti, si := ws.IndexOf(table), ws.IndexOf(sub)
	c, sc := ws.Schemas()[ti].Index(col), ws.Schemas()[si].Index(subCol)
	var answers []*relation.Relation
	for _, w := range ws.Worlds() {
		ans := relation.New(relation.NewSchema(col))
		w[ti].Each(func(row relation.Tuple) {
			found := false
			w[si].Each(func(u relation.Tuple) { found = found || u[sc].Compare(row[c]) == 0 })
			if !found {
				ans.Insert(relation.Tuple{row[c]})
			}
		})
		answers = append(answers, ans)
	}
	return distinctAnswers(answers)
}

// TestFloatSumOrderPinned: a float sum and average whose value depends
// on the order its terms are added in — 1e16, 1 and -1e16 give 1 or 0
// or 2 — render the same bytes however the rows were inserted, in 50
// fresh sessions, and equal the sum taken in Tuple.Compare order.
func TestFloatSumOrderPinned(t *testing.T) {
	rows := []relation.Tuple{
		{value.Int(1), value.Int(1), value.Float(1e16)},
		{value.Int(1), value.Int(2), value.Float(1)},
		{value.Int(1), value.Int(3), value.Float(-1e16)},
		{value.Int(1), value.Int(4), value.Float(1)},
		{value.Int(2), value.Int(1), value.Float(1)},
		{value.Int(2), value.Int(2), value.Float(-1e16)},
		{value.Int(2), value.Int(3), value.Float(1)},
		{value.Int(2), value.Int(4), value.Float(1e16)},
	}
	// The expected sums, added up in Tuple.Compare order.
	sorted := slices.Clone(rows)
	slices.SortFunc(sorted, relation.Tuple.Compare)
	sums := map[int64]float64{}
	for _, r := range sorted {
		sums[r[0].AsInt()] += r[2].AsFloat()
	}
	if sums[1] == sums[2] {
		t.Fatalf("fixture does not depend on addition order: both groups sum to %v", sums[1])
	}
	rng := rand.New(rand.NewSource(1e16))
	var first string
	for i := 0; i < 50; i++ {
		s := NewSession()
		mustExec(t, s, "create table T (G, K, V);")
		for _, j := range rng.Perm(len(rows)) {
			r := rows[j]
			mustExec(t, s, fmt.Sprintf("insert into T values (%s, %s, %.1f);", r[0], r[1], r[2].AsFloat()))
		}
		res := mustExec(t, s, "select G, sum(V) as S, avg(V) as M from T group by G;")
		if len(res.Answers) != 1 {
			t.Fatalf("%d answers, want 1", len(res.Answers))
		}
		ans := res.Answers[0]
		for g, sum := range sums {
			row := relation.Tuple{value.Int(g), value.Float(sum), value.Float(sum / 4)}
			if !ans.Contains(row) {
				t.Fatalf("session %d: answer\n%slacks the Tuple.Compare-order row %v", i, ans, row)
			}
		}
		if got := ans.String(); first == "" {
			first = got
		} else if got != first {
			t.Fatalf("session %d renders\n%swhere session 0 rendered\n%s", i, got, first)
		}
	}
}
