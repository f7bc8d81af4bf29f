package randquery

import (
	"fmt"
	"math/rand"
	"strings"

	"worldsetdb/internal/relation"
)

// sqlTable is one queryable table of a generated script.
type sqlTable struct {
	name string
	cols []string
	// key is the column a created table's choice-of or repair-by-key
	// split on ("" for a base table).
	key string
}

// StmtGen generates random I-SQL statements over a growing set of
// tables: the certain base tables it starts from plus the uncertain
// tables its create-table-as statements derive from them. The selects
// cover the clean WSA fragment (projections, selections, aliased
// joins, group-worlds-by, certain/possible) and the shapes outside it
// — aggregation (count/sum/min/max, group by) and subqueries (in,
// correlated exists) — and Mutate adds DELETE and UPDATE on both arms:
// tuple-local predicates (native on the decomposition's pieces) and
// subquery predicates (the bounded arm). It is the statement-level
// complement of the algebra-level QueryGen, behind the bounded-arm
// differential sweeps.
//
// Uncertainty enters only through CreateUncertain, which applies
// choice-of or repair-by-key to certain scans (CreateDerived projects
// such a table, sharing its components); the generated selects
// never put either construct over an uncertain answer, so on the
// factorized engine every fragment statement must evaluate natively
// (merging components at worst, never enumerating). A Mutate with a
// subquery over an uncertain table can make a base table uncertain, so
// scripts call CreateUncertain before the first Mutate.
type StmtGen struct {
	rng  *rand.Rand
	base []sqlTable // certain seed tables
	all  []sqlTable // base plus created uncertain tables
	// Domain is the integer constant domain of generated comparisons;
	// it should match the data generator's domain.
	Domain int
	fresh  int
}

// NewStmtGen builds a statement generator over the given base tables.
func NewStmtGen(rng *rand.Rand, names []string, schemas []relation.Schema) *StmtGen {
	g := &StmtGen{rng: rng, Domain: 8}
	for i, n := range names {
		t := sqlTable{name: n, cols: append([]string{}, schemas[i]...)}
		g.base = append(g.base, t)
		g.all = append(g.all, t)
	}
	return g
}

// CreateUncertain emits a create-table-as introducing fresh components:
// choice-of or repair-by-key over a (possibly filtered) certain base
// table. The new table joins the pool later selects draw from.
func (g *StmtGen) CreateUncertain() string {
	g.fresh++
	name := fmt.Sprintf("U%d", g.fresh)
	t := g.base[g.rng.Intn(len(g.base))]
	key := t.cols[g.rng.Intn(len(t.cols))]
	op := "choice of " + key
	if g.rng.Intn(2) == 0 {
		op = "repair by key " + key
	}
	where := ""
	if g.rng.Intn(3) == 0 {
		where = fmt.Sprintf(" where %s >= %d", t.cols[g.rng.Intn(len(t.cols))], g.rng.Intn(g.Domain/2))
	}
	g.all = append(g.all, sqlTable{name: name, cols: t.cols, key: key})
	return fmt.Sprintf("create table %s as select * from %s%s %s;", name, t.name, where, op)
}

// CreateDerived emits a create-table-as projecting the table the last
// CreateUncertain created to one of its columns (call it right after
// one), which evaluates natively: the
// components of the source then contribute to both tables, and
// alternatives that differ only in the dropped columns differ only in
// the source. A statement naming just one of the two must still
// enumerate both, or it collapses worlds. The projected column is the
// new table's key, so Mutate never updates it: the table is a set of
// one-column tuples, and an UPDATE could merge two of them.
func (g *StmtGen) CreateDerived() string {
	src := g.all[len(g.all)-1]
	col := src.cols[g.rng.Intn(len(src.cols))]
	g.fresh++
	name := fmt.Sprintf("D%d", g.fresh)
	g.all = append(g.all, sqlTable{name: name, cols: []string{col}, key: col})
	return fmt.Sprintf("create table %s as select %s from %s;", name, col, src.name)
}

// Select emits one random select statement over the known tables.
func (g *StmtGen) Select() string {
	col := func(t sqlTable) string { return t.cols[g.rng.Intn(len(t.cols))] }
	t := g.all[g.rng.Intn(len(g.all))]
	close := ""
	switch g.rng.Intn(3) {
	case 0:
		close = "certain "
	case 1:
		close = "possible "
	}
	where := ""
	if g.rng.Intn(2) == 0 {
		ops := []string{"=", "!=", "<", ">="}
		where = fmt.Sprintf(" where %s %s %s", col(t), ops[g.rng.Intn(len(ops))], literal(g.rng, g.Domain))
	}
	switch g.rng.Intn(8) {
	case 0: // σ/π with a world closure
		return fmt.Sprintf("select %s%s from %s%s;", close, col(t), t.name, where)
	case 1: // group-worlds-by (attribute form)
		if close == "" {
			close = "certain "
		}
		return fmt.Sprintf("select %s%s from %s%s group worlds by %s;", close, col(t), t.name, where, col(t))
	case 2: // aliased equi-join; self-joins entangle and must merge
		u := g.all[g.rng.Intn(len(g.all))]
		return fmt.Sprintf("select %sX.%s from %s X, %s Y where X.%s = Y.%s;",
			close, col(t), t.name, u.name, col(t), col(u))
	case 3: // count(*)
		return fmt.Sprintf("select count(*) as N from %s%s;", t.name, where)
	case 4: // column aggregate
		fn := []string{"sum", "min", "max"}[g.rng.Intn(3)]
		return fmt.Sprintf("select %s(%s) as S from %s%s;", fn, col(t), t.name, where)
	case 5: // group by with an aggregate
		gc := col(t)
		return fmt.Sprintf("select %s, count(*) as N from %s%s group by %s;", gc, t.name, where, gc)
	case 6: // (not) in subquery
		u := g.all[g.rng.Intn(len(g.all))]
		neg := ""
		if g.rng.Intn(3) == 0 {
			neg = "not "
		}
		return fmt.Sprintf("select %s from %s where %s %sin (select %s from %s);",
			col(t), t.name, col(t), neg, col(u), u.name)
	default: // correlated (not) exists
		u := g.all[g.rng.Intn(len(g.all))]
		neg := ""
		if g.rng.Intn(3) == 0 {
			neg = "not "
		}
		return fmt.Sprintf("select X.%s from %s X where %sexists (select * from %s Y where Y.%s = X.%s);",
			col(t), t.name, neg, u.name, col(u), col(t))
	}
}

// Insert emits an INSERT of one or two rows of domain constants into a
// known table, base or created. Into a created table it can make an
// alternative's tuple certain, so the insert strips, de-duplicates or
// collapses that table's components.
func (g *StmtGen) Insert() string {
	t := g.all[g.rng.Intn(len(g.all))]
	rows := make([]string, 1+g.rng.Intn(2))
	for i := range rows {
		vals := make([]string, len(t.cols))
		for c := range vals {
			vals[c] = fmt.Sprint(g.rng.Intn(g.Domain))
		}
		rows[i] = "(" + strings.Join(vals, ", ") + ")"
	}
	return fmt.Sprintf("insert into %s values %s;", t.name, strings.Join(rows, ", "))
}

// Mutate emits one random DELETE or UPDATE over the known tables, base
// and created. The predicate is tuple-local (a comparison with a
// constant), an (not) in subquery, or a (not) exists subquery
// correlated with the target tuple where the tables' columns allow it;
// an UPDATE sets one column to an arithmetic expression over the
// tuple's own columns. An UPDATE never sets the column a created table
// was split on: tuples of different repair groups must stay distinct,
// so the decomposition's world count stays exact and the
// world-weighted affected counts of the enumerating and the factorized
// sessions keep comparing equal.
func (g *StmtGen) Mutate() string {
	col := func(t sqlTable) string { return t.cols[g.rng.Intn(len(t.cols))] }
	t := g.all[g.rng.Intn(len(g.all))]
	u := g.all[g.rng.Intn(len(g.all))]
	neg := ""
	if g.rng.Intn(3) == 0 {
		neg = "not "
	}
	var where string
	switch g.rng.Intn(4) {
	case 0, 1: // tuple-local
		ops := []string{"=", "!=", "<", ">="}
		where = fmt.Sprintf("%s %s %s", col(t), ops[g.rng.Intn(len(ops))], literal(g.rng, g.Domain))
	case 2: // (not) in subquery, itself filtered
		uc := col(u)
		where = fmt.Sprintf("%s %sin (select %s from %s where %s >= %d)", col(t), neg, uc, u.name, uc, g.rng.Intn(g.Domain/2))
	default: // (not) exists; correlated when the outer column is not also u's
		where = fmt.Sprintf("%sexists (select * from %s Y where Y.%s = %s)", neg, u.name, col(u), col(t))
	}
	var settable []string
	for _, c := range t.cols {
		if c != t.key {
			settable = append(settable, c)
		}
	}
	if len(settable) == 0 || g.rng.Intn(2) == 0 {
		return fmt.Sprintf("delete from %s where %s;", t.name, where)
	}
	sc := settable[g.rng.Intn(len(settable))]
	expr := fmt.Sprintf("%s + %d", col(t), 1+g.rng.Intn(3))
	if g.rng.Intn(3) == 0 {
		expr = fmt.Sprintf("%s * 2 - %s", sc, col(t))
	}
	return fmt.Sprintf("update %s set %s = %s where %s;", t.name, sc, expr, where)
}
