package isql

import (
	"fmt"
	"strings"

	"worldsetdb/internal/relation"
)

// columnNotFoundError reports a column reference that resolves in no
// scope.
type columnNotFoundError struct{ name string }

func (e *columnNotFoundError) Error() string {
	return fmt.Sprintf("isql: unknown column %q", e.name)
}

// selectInfo is the static analysis of one select statement.
type selectInfo struct {
	// joined is the schema of the product of the from items, with
	// alias-qualified attribute names.
	joined relation.Schema
	// fromSchemas are the per-item qualified schemas.
	fromSchemas []relation.Schema
	// divSchema is the divisor item's qualified schema (nil without
	// divide-by).
	divSchema relation.Schema
	// out is the output schema of the select.
	out relation.Schema
	// outExprs are the expressions computing each output column (nil
	// for a star select, which copies the joined row).
	outExprs []Expr
	// aggregated reports whether grouping/aggregation applies.
	aggregated bool
	// correlated marks subqueries (appearing in this select's
	// expressions) that reference enclosing scopes and therefore must be
	// evaluated per tuple.
	correlated map[*SelectStmt]bool
	// uncorrelated lists subqueries that can be lifted: evaluated once
	// against the world-set before tuple processing.
	uncorrelated []*SelectStmt
}

// analyzeSelect resolves names and computes schemas. scopes holds the
// schemas of enclosing selects, innermost first; resolution tries the
// select's own joined schema first, then the scopes outward.
func (s *Session) analyzeSelect(sel *SelectStmt, names []string, schemas []relation.Schema, scopes []relation.Schema) (*selectInfo, error) {
	info := &selectInfo{correlated: map[*SelectStmt]bool{}}

	// From items.
	for _, item := range sel.From {
		fs, err := s.fromItemSchema(item, names, schemas)
		if err != nil {
			return nil, err
		}
		info.fromSchemas = append(info.fromSchemas, fs)
		info.joined = append(info.joined, fs...)
	}
	if dup := firstDup(info.joined); dup != "" {
		return nil, fmt.Errorf("isql: ambiguous attribute %q in from clause (use aliases)", dup)
	}
	if sel.Divide != nil {
		ds, err := s.fromItemSchema(sel.Divide.Item, names, schemas)
		if err != nil {
			return nil, err
		}
		info.divSchema = ds
	}

	innerScopes := append([]relation.Schema{info.joined}, scopes...)

	// Where clause.
	if sel.Where != nil {
		if err := s.checkExpr(sel.Where, info, innerScopes, names, schemas); err != nil {
			return nil, err
		}
	}
	if sel.Divide != nil {
		// The ON condition sees the joined schema plus the divisor.
		divScopes := append([]relation.Schema{info.joined.Concat(info.divSchema)}, scopes...)
		if err := s.checkExpr(sel.Divide.On, info, divScopes, names, schemas); err != nil {
			return nil, err
		}
	}

	// Aggregation.
	info.aggregated = len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if containsAgg(it.Expr) {
			info.aggregated = true
		}
	}
	if sel.Star && info.aggregated {
		return nil, fmt.Errorf("isql: select * cannot be combined with aggregation")
	}
	if sel.Divide != nil && info.aggregated {
		return nil, fmt.Errorf("isql: divide by cannot be combined with aggregation")
	}

	// Output schema.
	if sel.Star {
		info.out = dequalify(info.joined)
	} else {
		seen := map[string]bool{}
		for i, it := range sel.Items {
			if err := s.checkExpr(it.Expr, info, innerScopes, names, schemas); err != nil {
				return nil, err
			}
			name := outputName(it, i)
			if seen[name] {
				return nil, fmt.Errorf("isql: duplicate output column %q", name)
			}
			seen[name] = true
			info.out = append(info.out, name)
			info.outExprs = append(info.outExprs, it.Expr)
		}
	}

	// Group-by, choice-of, repair-by-key and group-worlds-by attributes
	// all resolve against the joined schema: per §3's order of
	// evaluation, the world-manipulating operators apply to the
	// where-filtered product, before the select list projects.
	for _, refs := range [][]ColumnRef{sel.GroupBy, sel.ChoiceOf, sel.RepairKey} {
		for _, r := range refs {
			if info.joined.Index(r.Full()) < 0 {
				return nil, &columnNotFoundError{name: r.Full()}
			}
		}
	}
	if gw := sel.GroupWorlds; gw != nil {
		for _, r := range gw.Attrs {
			if info.joined.Index(r.Full()) < 0 {
				return nil, &columnNotFoundError{name: r.Full()}
			}
		}
		if sel.Close == CloseNone {
			return nil, fmt.Errorf("isql: group worlds by requires select possible or select certain")
		}
	}
	return info, nil
}

// fromItemSchema computes a from item's schema with alias-qualified
// names.
func (s *Session) fromItemSchema(item FromItem, names []string, schemas []relation.Schema) (relation.Schema, error) {
	var base relation.Schema
	if item.Sub != nil {
		sub, err := s.analyzeSelect(item.Sub, names, schemas, nil)
		if err != nil {
			return nil, err
		}
		base = sub.out
	} else if view, ok := s.views[item.Table]; ok {
		sub, err := s.analyzeSelect(view, names, schemas, nil)
		if err != nil {
			return nil, err
		}
		base = sub.out
	} else {
		found := false
		for i, n := range names {
			if n == item.Table {
				base = schemas[i]
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("isql: unknown relation %q", item.Table)
		}
	}
	alias := item.name()
	out := make(relation.Schema, len(base))
	for i, a := range base {
		out[i] = alias + "." + unqualified(a)
	}
	return out, nil
}

// checkExpr resolves the expression's column references and classifies
// its subqueries as correlated or liftable.
func (s *Session) checkExpr(e Expr, info *selectInfo, scopes []relation.Schema, names []string, schemas []relation.Schema) error {
	switch n := e.(type) {
	case *LitExpr:
		return nil
	case *ParamExpr:
		// Valid in a prepared statement: analysis sees the unbound tree
		// when the plan is compiled once with parameter slots. Executing
		// without binding still fails, at evaluation time.
		return nil
	case *ColExpr:
		for _, sc := range scopes {
			if sc.Index(n.Ref.Full()) >= 0 {
				return nil
			}
		}
		return &columnNotFoundError{name: n.Ref.Full()}
	case *BinExpr:
		if err := s.checkExpr(n.L, info, scopes, names, schemas); err != nil {
			return err
		}
		return s.checkExpr(n.R, info, scopes, names, schemas)
	case *LogicExpr:
		if err := s.checkExpr(n.L, info, scopes, names, schemas); err != nil {
			return err
		}
		return s.checkExpr(n.R, info, scopes, names, schemas)
	case *NotExpr:
		return s.checkExpr(n.E, info, scopes, names, schemas)
	case *AggExpr:
		if n.Arg != nil {
			return s.checkExpr(n.Arg, info, scopes, names, schemas)
		}
		return nil
	case *InExpr:
		if err := s.checkExpr(n.Left, info, scopes, names, schemas); err != nil {
			return err
		}
		return s.classifySubquery(n.Sub, info, scopes, names, schemas)
	case *ExistsExpr:
		return s.classifySubquery(n.Sub, info, scopes, names, schemas)
	case *SubqueryExpr:
		return s.classifySubquery(n.Sub, info, scopes, names, schemas)
	}
	return fmt.Errorf("isql: unsupported expression %T", e)
}

// classifySubquery analyzes a nested select in expression position and
// records whether it is correlated (references an enclosing scope).
func (s *Session) classifySubquery(sub *SelectStmt, info *selectInfo, scopes []relation.Schema, names []string, schemas []relation.Schema) error {
	// First try to analyze with no outer scopes: success means every
	// reference resolves locally — the subquery can be lifted.
	if _, err := s.analyzeSelect(sub, names, schemas, nil); err == nil {
		info.uncorrelated = append(info.uncorrelated, sub)
		return nil
	} else if _, ok := unwrapColumnNotFound(err); !ok {
		return err
	}
	// Retry with the enclosing scopes: success means correlated.
	if _, err := s.analyzeSelect(sub, names, schemas, scopes); err != nil {
		return err
	}
	if createsWorlds(s, sub) {
		return fmt.Errorf("isql: correlated subquery (%s) cannot use choice-of or repair-by-key", sub)
	}
	info.correlated[sub] = true
	return nil
}

func unwrapColumnNotFound(err error) (*columnNotFoundError, bool) {
	for err != nil {
		if c, ok := err.(*columnNotFoundError); ok {
			return c, true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return nil, false
		}
		err = u.Unwrap()
	}
	return nil, false
}

// createsWorlds reports whether evaluating the select can change the
// world count (choice-of or repair-by-key anywhere in its tree,
// including views).
func createsWorlds(s *Session, sel *SelectStmt) bool {
	found := false
	var visit func(node any) bool
	visit = func(node any) bool {
		switch n := node.(type) {
		case *SelectStmt:
			found = found || len(n.ChoiceOf) > 0 || len(n.RepairKey) > 0
		case FromItem:
			if v, ok := s.views[n.Table]; ok && n.Sub == nil {
				walkSelect(v, visit)
			}
		}
		return !found
	}
	walkSelect(sel, visit)
	return found
}

// containsAgg reports whether the expression holds an aggregate of its
// own select: a subquery's aggregates are the subquery's.
func containsAgg(e Expr) bool {
	found := false
	walkExpr(e, func(node any) bool {
		switch node.(type) {
		case *AggExpr:
			found = true
		case *SelectStmt:
			return false
		}
		return !found
	})
	return found
}

func unqualified(name string) string {
	if i := strings.LastIndex(name, "."); i >= 0 {
		return name[i+1:]
	}
	return name
}

// dequalify strips qualifiers from attribute names where the result
// stays unambiguous, matching the paper's rendering of select * results.
func dequalify(s relation.Schema) relation.Schema {
	counts := map[string]int{}
	for _, n := range s {
		counts[unqualified(n)]++
	}
	out := make(relation.Schema, len(s))
	for i, n := range s {
		if counts[unqualified(n)] == 1 {
			out[i] = unqualified(n)
		} else {
			out[i] = n
		}
	}
	return out
}

func outputName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColExpr); ok {
		return c.Ref.Name
	}
	if a, ok := it.Expr.(*AggExpr); ok {
		return a.Fn
	}
	return fmt.Sprintf("col%d", i+1)
}

func firstDup(s relation.Schema) string {
	seen := map[string]bool{}
	for _, n := range s {
		if seen[n] {
			return n
		}
		seen[n] = true
	}
	return ""
}
