package isql

import (
	"errors"
	"fmt"

	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsa"
)

// fragmentError marks a statement as lying outside the clean World-set
// Algebra fragment — a capability limit of compilation, not a mistake
// in the statement. The session falls back to the explicit world-set
// evaluator exactly on this error type; genuine errors (unknown
// relations or columns, ambiguity) surface directly.
type fragmentError struct {
	// op is the short name of the fragment feature that routed the
	// statement to the bounded arm ("aggregation", "divide-by", ...),
	// the key execution statistics attribute bounded evaluations to.
	op  string
	msg string
}

func (e *fragmentError) Error() string { return e.msg }

// outsideFragment builds a fragmentError.
func outsideFragment(op, format string, args ...any) error {
	return &fragmentError{op: op, msg: fmt.Sprintf(format, args...)}
}

// fragmentOp extracts the fragment feature name from a fragmentError
// chain ("" when the error is not one).
func fragmentOp(err error) string {
	var fe *fragmentError
	if errors.As(err, &fe) {
		return fe.op
	}
	return ""
}

// Compile translates the clean I-SQL fragment of §4 — no aggregation,
// no expression subqueries, no divide-by — into World-set Algebra. The
// resulting expression can be fed to the reference evaluator, the
// rewrite optimizer and the §5 translations.
//
// The compiled query follows the paper's order of evaluation: the
// select-list projection applies after choice-of and repair-by-key, and
// group-worlds-by compiles to pγ/cγ whose grouping attributes refer to
// the pre-projection join.
func (s *Session) Compile(sel *SelectStmt) (wsa.Expr, error) {
	snap, err := s.snapshotForRead()
	if err != nil {
		return nil, err
	}
	return s.compileOn(snap.DB.Names, snap.DB.Schemas, sel)
}

// compileOn compiles against an explicit relational schema (the names
// and per-relation schemas of a catalog snapshot).
func (s *Session) compileOn(names []string, schemas []relation.Schema, sel *SelectStmt) (wsa.Expr, error) {
	info, err := s.analyzeSelect(sel, names, schemas, nil)
	if err != nil {
		return nil, err
	}
	if info.aggregated {
		return nil, outsideFragment("aggregation", "isql: aggregation is outside the World-set Algebra fragment")
	}
	if sel.Divide != nil {
		return nil, outsideFragment("divide-by", "isql: divide-by is outside the World-set Algebra fragment")
	}
	if len(info.correlated) > 0 || len(info.uncorrelated) > 0 {
		return nil, outsideFragment("expression subquery", "isql: expression subqueries are outside the World-set Algebra fragment")
	}

	// FROM: product of the (alias-renamed) items.
	var joined wsa.Expr
	for i, item := range sel.From {
		e, err := s.compileFromItem(item, info.fromSchemas[i], names, schemas)
		if err != nil {
			return nil, err
		}
		if joined == nil {
			joined = e
		} else {
			joined = wsa.NewProduct(joined, e)
		}
	}
	if joined == nil {
		return nil, outsideFragment("select without from", "isql: select without from is not supported")
	}

	q := joined
	if sel.Where != nil {
		pred, err := compilePred(sel.Where)
		if err != nil {
			return nil, err
		}
		q = &wsa.Select{Pred: pred, From: q}
	}
	if len(sel.ChoiceOf) > 0 {
		q = &wsa.Choice{Attrs: resolveRefs(sel.ChoiceOf, info.joined), From: q}
	}
	if len(sel.RepairKey) > 0 {
		q = &wsa.RepairKey{Attrs: resolveRefs(sel.RepairKey, info.joined), From: q}
	}

	// Select list: source columns in the joined schema and their output
	// names.
	var srcCols []string
	var outNames []string
	if sel.Star {
		srcCols = append(srcCols, info.joined...)
		outNames = append(outNames, info.out...)
	} else {
		for i, it := range sel.Items {
			col, ok := it.Expr.(*ColExpr)
			if !ok {
				return nil, outsideFragment("expression select list", "isql: select item %s is outside the World-set Algebra fragment (plain columns only)", it.Expr)
			}
			j := info.joined.Index(col.Ref.Full())
			if j < 0 {
				return nil, &columnNotFoundError{name: col.Ref.Full()}
			}
			srcCols = append(srcCols, info.joined[j])
			outNames = append(outNames, info.out[i])
		}
	}

	if sel.GroupWorlds != nil {
		if sel.GroupWorlds.Query != nil {
			return nil, outsideFragment("query-form group-worlds-by", "isql: query-form group-worlds-by is outside the World-set Algebra fragment (use the attribute form)")
		}
		groupBy := resolveRefs(sel.GroupWorlds.Attrs, info.joined)
		g := &wsa.Group{Kind: sel.Close.groupKind(), GroupBy: groupBy, Proj: srcCols, From: q}
		return renameOut(g, srcCols, outNames), nil
	}

	q = renameOut(&wsa.Project{Columns: srcCols, From: q}, srcCols, outNames)
	switch sel.Close {
	case ClosePossible:
		q = wsa.NewPoss(q)
	case CloseCertain:
		q = wsa.NewCert(q)
	}
	return q, nil
}

// CompileString parses and compiles a select statement.
func (s *Session) CompileString(sql string) (wsa.Expr, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("isql: only select statements compile to World-set Algebra")
	}
	return s.Compile(sel)
}

// compileFromItem compiles a base table, view or derived table and
// renames its attributes to the alias-qualified names of the analysis.
func (s *Session) compileFromItem(item FromItem, qualified relation.Schema, names []string, schemas []relation.Schema) (wsa.Expr, error) {
	var inner wsa.Expr
	var innerSchema relation.Schema
	switch {
	case item.Sub != nil:
		sub, err := s.compileOn(names, schemas, item.Sub)
		if err != nil {
			return nil, err
		}
		si, err := s.analyzeSelect(item.Sub, names, schemas, nil)
		if err != nil {
			return nil, err
		}
		inner, innerSchema = sub, si.out
	default:
		if view, ok := s.views[item.Table]; ok {
			sub, err := s.compileOn(names, schemas, view)
			if err != nil {
				return nil, err
			}
			si, err := s.analyzeSelect(view, names, schemas, nil)
			if err != nil {
				return nil, err
			}
			inner, innerSchema = sub, si.out
		} else {
			idx := -1
			for i, n := range names {
				if n == item.Table {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("isql: unknown relation %q", item.Table)
			}
			inner, innerSchema = &wsa.Rel{Name: item.Table}, schemas[idx]
		}
	}
	pairs := make([]ra.RenamePair, len(innerSchema))
	for i, a := range innerSchema {
		pairs[i] = ra.RenamePair{From: a, To: qualified[i]}
	}
	return &wsa.Rename{Pairs: pairs, From: inner}, nil
}

// renameOut renames projected source columns to their output names,
// omitting the node when nothing changes.
func renameOut(q wsa.Expr, src, out []string) wsa.Expr {
	var pairs []ra.RenamePair
	for i := range src {
		if src[i] != out[i] {
			pairs = append(pairs, ra.RenamePair{From: src[i], To: out[i]})
		}
	}
	if len(pairs) == 0 {
		return q
	}
	if g, ok := q.(*wsa.Group); ok {
		// Renaming after a group keeps the γ proj list consistent: wrap.
		return &wsa.Rename{Pairs: pairs, From: g}
	}
	return &wsa.Rename{Pairs: pairs, From: q}
}

// compilePred converts an I-SQL boolean expression over columns and
// literals into an ra.Pred.
func compilePred(e Expr) (ra.Pred, error) {
	switch n := e.(type) {
	case *LogicExpr:
		l, err := compilePred(n.L)
		if err != nil {
			return nil, err
		}
		r, err := compilePred(n.R)
		if err != nil {
			return nil, err
		}
		if n.Op == "and" {
			return ra.And{L: l, R: r}, nil
		}
		return ra.Or{L: l, R: r}, nil
	case *NotExpr:
		p, err := compilePred(n.E)
		if err != nil {
			return nil, err
		}
		return ra.Not{P: p}, nil
	case *BinExpr:
		var op ra.CmpOp
		switch n.Op {
		case "=":
			op = ra.OpEq
		case "!=":
			op = ra.OpNe
		case "<":
			op = ra.OpLt
		case "<=":
			op = ra.OpLe
		case ">":
			op = ra.OpGt
		case ">=":
			op = ra.OpGe
		default:
			return nil, outsideFragment("expression condition", "isql: operator %q is outside the World-set Algebra fragment", n.Op)
		}
		l, err := compileOperand(n.L)
		if err != nil {
			return nil, err
		}
		r, err := compileOperand(n.R)
		if err != nil {
			return nil, err
		}
		return ra.Cmp{Left: l, Op: op, Right: r}, nil
	}
	return nil, outsideFragment("expression condition", "isql: condition %s is outside the World-set Algebra fragment", e)
}

func compileOperand(e Expr) (ra.Operand, error) {
	switch n := e.(type) {
	case *ColExpr:
		return ra.Col(n.Ref.Full()), nil
	case *LitExpr:
		return ra.Const(n.Val), nil
	case *ParamExpr:
		// A $n placeholder compiles to a parameter slot: the prepared
		// plan is compiled (and prelowered) once with the slot in place,
		// and EXECUTE binds the argument into the cached plan.
		return ra.Param(n.N), nil
	}
	return ra.Operand{}, outsideFragment("expression condition", "isql: operand %s is outside the World-set Algebra fragment", e)
}

// resolveRefs maps written column references to the joined-schema names
// they resolve to.
func resolveRefs(refs []ColumnRef, joined relation.Schema) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		if j := joined.Index(r.Full()); j >= 0 {
			out[i] = joined[j]
		} else {
			out[i] = r.Full()
		}
	}
	return out
}
