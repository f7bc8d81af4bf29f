package isql

import (
	"fmt"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
)

// resolve finds a column in the context chain, innermost scope first.
func (c *evalCtx) resolve(ref ColumnRef) (value.Value, error) {
	for cur := c; cur != nil; cur = cur.outer {
		if i := cur.schema.Index(ref.Full()); i >= 0 {
			return cur.tuple[i], nil
		}
	}
	return value.Null(), &columnNotFoundError{name: ref.Full()}
}

// evalBool evaluates a boolean expression.
func (c *evalCtx) evalBool(e Expr) (bool, error) {
	v, err := c.evalExpr(e)
	if err != nil {
		return false, err
	}
	if v.Kind() != value.KindBool {
		return false, fmt.Errorf("isql: expected boolean, got %s in %s", v.Kind(), e)
	}
	return v.AsBool(), nil
}

// evalExpr evaluates a scalar expression in the current context.
func (c *evalCtx) evalExpr(e Expr) (value.Value, error) {
	switch n := e.(type) {
	case *LitExpr:
		return n.Val, nil

	case *ParamExpr:
		return value.Null(), fmt.Errorf("isql: unbound parameter $%d (bind it with execute)", n.N)

	case *ColExpr:
		return c.resolve(n.Ref)

	case *BinExpr:
		l, err := c.evalExpr(n.L)
		if err != nil {
			return value.Null(), err
		}
		r, err := c.evalExpr(n.R)
		if err != nil {
			return value.Null(), err
		}
		switch n.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			return value.Bool(cmpOp(n.Op, l, r)), nil
		case "+", "-", "*", "/":
			return arith(n.Op, l, r)
		}
		return value.Null(), fmt.Errorf("isql: unknown operator %q", n.Op)

	case *LogicExpr:
		l, err := c.evalBool(n.L)
		if err != nil {
			return value.Null(), err
		}
		// Short-circuit.
		if n.Op == "and" && !l {
			return value.Bool(false), nil
		}
		if n.Op == "or" && l {
			return value.Bool(true), nil
		}
		r, err := c.evalBool(n.R)
		if err != nil {
			return value.Null(), err
		}
		return value.Bool(r), nil

	case *NotExpr:
		b, err := c.evalBool(n.E)
		if err != nil {
			return value.Null(), err
		}
		return value.Bool(!b), nil

	case *AggExpr:
		return c.evalAgg(n)

	case *InExpr:
		rel, err := c.subRelation(n.Sub)
		if err != nil {
			return value.Null(), err
		}
		lv, err := c.evalExpr(n.Left)
		if err != nil {
			return value.Null(), err
		}
		col, err := matchColumn(rel.Schema(), n.Left)
		if err != nil {
			return value.Null(), err
		}
		found := false
		rel.Each(func(t relation.Tuple) {
			if t[col].Equal(lv) {
				found = true
			}
		})
		return value.Bool(found != n.Neg), nil

	case *ExistsExpr:
		rel, err := c.subRelation(n.Sub)
		if err != nil {
			return value.Null(), err
		}
		return value.Bool((rel.Len() > 0) != n.Neg), nil

	case *SubqueryExpr:
		rel, err := c.subRelation(n.Sub)
		if err != nil {
			return value.Null(), err
		}
		if len(rel.Schema()) != 1 {
			return value.Null(), fmt.Errorf("isql: scalar subquery must return one column, got %v", rel.Schema())
		}
		switch rel.Len() {
		case 0:
			return value.Null(), nil
		case 1:
			return rel.Tuples()[0][0], nil
		}
		return value.Null(), fmt.Errorf("isql: scalar subquery returned %d rows", rel.Len())
	}
	return value.Null(), fmt.Errorf("isql: unsupported expression %T", e)
}

// subRelation returns the subquery's answer in the current world: the
// lifted instance for uncorrelated subqueries, or a per-tuple evaluation
// for correlated ones.
func (c *evalCtx) subRelation(sub *SelectStmt) (*relation.Relation, error) {
	if idx, ok := c.lifted[sub]; ok {
		return c.world[idx], nil
	}
	single := worldset.New(c.names, c.schemas)
	single.Add(c.world[:len(c.names)])
	res, err := c.session.evalSelect(sub, single, c)
	if err != nil {
		return nil, err
	}
	// One input world: its answers are as many as its worlds.
	answers := wsa.DistinctLast(res)
	if len(answers) != 1 {
		return nil, fmt.Errorf("isql: correlated subquery created %d worlds", len(answers))
	}
	return answers[0], nil
}

// matchColumn picks the subquery column an IN test compares against:
// the column with the same unqualified name as the left-hand column, or
// the only column.
func matchColumn(s relation.Schema, left Expr) (int, error) {
	if col, ok := left.(*ColExpr); ok {
		want := col.Ref.Name
		found := -1
		for i, n := range s {
			if unqualified(n) == want {
				if found >= 0 {
					return 0, fmt.Errorf("isql: ambiguous IN column %q in %v", want, s)
				}
				found = i
			}
		}
		if found >= 0 {
			return found, nil
		}
	}
	if len(s) == 1 {
		return 0, nil
	}
	return 0, fmt.Errorf("isql: cannot determine IN comparison column in %v", s)
}

func cmpOp(op string, l, r value.Value) bool {
	c := l.Compare(r)
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

func arith(op string, l, r value.Value) (value.Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return value.Null(), fmt.Errorf("isql: arithmetic on non-numeric values %s, %s", l, r)
	}
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt && op != "/" {
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case "+":
			return value.Int(a + b), nil
		case "-":
			return value.Int(a - b), nil
		case "*":
			return value.Int(a * b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return value.Float(a + b), nil
	case "-":
		return value.Float(a - b), nil
	case "*":
		return value.Float(a * b), nil
	case "/":
		if b == 0 {
			return value.Null(), fmt.Errorf("isql: division by zero")
		}
		return value.Float(a / b), nil
	}
	return value.Null(), fmt.Errorf("isql: unknown arithmetic operator %q", op)
}

// evalAgg evaluates an aggregate over the current group's rows.
func (c *evalCtx) evalAgg(a *AggExpr) (value.Value, error) {
	if c.groupRows == nil {
		return value.Null(), fmt.Errorf("isql: aggregate %s outside an aggregation context", a)
	}
	if a.Star {
		if a.Fn != "count" {
			return value.Null(), fmt.Errorf("isql: %s(*) is not valid", a.Fn)
		}
		return value.Int(int64(len(c.groupRows))), nil
	}
	saved := c.tuple
	defer func() { c.tuple = saved }()

	var (
		count    int64
		sumInt   int64
		sumFloat float64
		allInt   = true
		min, max value.Value
	)
	for _, row := range c.groupRows {
		c.tuple = row
		v, err := c.evalExpr(a.Arg)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() {
			continue
		}
		count++
		if a.Fn == "sum" || a.Fn == "avg" {
			if !v.IsNumeric() {
				return value.Null(), fmt.Errorf("isql: %s over non-numeric value %s", a.Fn, v)
			}
			if v.Kind() == value.KindInt {
				sumInt += v.AsInt()
			} else {
				allInt = false
			}
			sumFloat += v.AsFloat()
		}
		if count == 1 {
			min, max = v, v
		} else {
			if v.Less(min) {
				min = v
			}
			if max.Less(v) {
				max = v
			}
		}
	}
	switch a.Fn {
	case "count":
		return value.Int(count), nil
	case "sum":
		// SUM over the empty set is 0 here (documented deviation from
		// SQL's NULL): the §2 revenue comparisons subtract sums and a
		// missing year should contribute no revenue.
		if count == 0 {
			return value.Int(0), nil
		}
		if allInt {
			return value.Int(sumInt), nil
		}
		return value.Float(sumFloat), nil
	case "avg":
		if count == 0 {
			return value.Null(), nil
		}
		return value.Float(sumFloat / float64(count)), nil
	case "min":
		if count == 0 {
			return value.Null(), nil
		}
		return min, nil
	case "max":
		if count == 0 {
			return value.Null(), nil
		}
		return max, nil
	}
	return value.Null(), fmt.Errorf("isql: unknown aggregate %q", a.Fn)
}
