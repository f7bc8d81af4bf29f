package isql

import (
	"fmt"
	"strings"

	"worldsetdb/internal/value"
)

// CloseMode is the optional possible/certain closing of a select.
type CloseMode int

// Closing modes.
const (
	CloseNone CloseMode = iota
	ClosePossible
	CloseCertain
)

func (m CloseMode) String() string {
	switch m {
	case ClosePossible:
		return "possible"
	case CloseCertain:
		return "certain"
	}
	return ""
}

// Statement is any I-SQL statement.
type Statement interface {
	stmt()
	String() string
}

// ColumnRef names a column, optionally qualified by a table alias.
type ColumnRef struct {
	Qualifier string
	Name      string
}

// Full renders the reference as written.
func (c ColumnRef) Full() string {
	if c.Qualifier == "" {
		return c.Name
	}
	return c.Qualifier + "." + c.Name
}

// Expr is a scalar or boolean expression.
type Expr interface {
	exprNode()
	String() string
}

// ColExpr references a column.
type ColExpr struct{ Ref ColumnRef }

// LitExpr is a literal constant.
type LitExpr struct{ Val value.Value }

// BinExpr is a binary arithmetic or comparison expression
// (+ - * / = != < <= > >=).
type BinExpr struct {
	Op   string
	L, R Expr
}

// LogicExpr is AND/OR.
type LogicExpr struct {
	Op   string // "and" | "or"
	L, R Expr
}

// NotExpr negates a boolean expression.
type NotExpr struct{ E Expr }

// InExpr is `left [NOT] IN (subquery)`.
type InExpr struct {
	Left Expr
	Sub  *SelectStmt
	Neg  bool
}

// ExistsExpr is `[NOT] EXISTS (subquery)`.
type ExistsExpr struct {
	Sub *SelectStmt
	Neg bool
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct{ Sub *SelectStmt }

// AggExpr is an aggregate call: SUM, COUNT, AVG, MIN, MAX. Star is
// COUNT(*).
type AggExpr struct {
	Fn   string
	Arg  Expr // nil when Star
	Star bool
}

func (*ColExpr) exprNode()      {}
func (*LitExpr) exprNode()      {}
func (*BinExpr) exprNode()      {}
func (*LogicExpr) exprNode()    {}
func (*NotExpr) exprNode()      {}
func (*InExpr) exprNode()       {}
func (*ExistsExpr) exprNode()   {}
func (*SubqueryExpr) exprNode() {}
func (*AggExpr) exprNode()      {}

func (e *ColExpr) String() string { return e.Ref.Full() }
func (e *LitExpr) String() string { return renderLiteral(e.Val) }

// exprPrec returns the rendering precedence of an expression (higher
// binds tighter), mirroring the parser's grammar so that String output
// re-parses to the same tree: or < and < not < comparisons < additive
// < multiplicative < atoms.
func exprPrec(e Expr) int {
	switch n := e.(type) {
	case *LogicExpr:
		if n.Op == "or" {
			return 1
		}
		return 2
	case *NotExpr:
		return 3
	case *BinExpr:
		switch n.Op {
		case "+", "-":
			return 5
		case "*", "/":
			return 6
		}
		return 4 // comparisons
	case *InExpr, *ExistsExpr:
		return 4 // condition-level: needs parens as a comparison operand
	}
	return 7 // atoms: columns, literals, aggregates, subqueries
}

func (e *BinExpr) String() string {
	p := exprPrec(e)
	l := e.L.String()
	// The grammar parses one comparison per level, so a comparison (or
	// in/exists) operand of a comparison needs parentheses on either
	// side; arithmetic needs them only for looser operands on the left
	// (left-associative re-parse keeps `A - B - C` as written).
	if lp := exprPrec(e.L); lp < p || (lp == p && p == 4) {
		l = "(" + l + ")"
	}
	r := e.R.String()
	// A right operand binding no tighter than the operator needs
	// parentheses: `X * (0 - 2)`, `A - (B - C)`, `X = (Y = Z)`.
	if rp := exprPrec(e.R); rp <= p {
		r = "(" + r + ")"
	}
	return fmt.Sprintf("%s %s %s", l, e.Op, r)
}
func (e *LogicExpr) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (e *NotExpr) String() string   { return fmt.Sprintf("not (%s)", e.E) }
func (e *InExpr) String() string {
	neg := ""
	if e.Neg {
		neg = "not "
	}
	return fmt.Sprintf("%s %sin (%s)", e.Left, neg, e.Sub)
}
func (e *ExistsExpr) String() string {
	neg := ""
	if e.Neg {
		neg = "not "
	}
	return fmt.Sprintf("%sexists (%s)", neg, e.Sub)
}
func (e *SubqueryExpr) String() string { return "(" + e.Sub.String() + ")" }
func (e *AggExpr) String() string {
	if e.Star {
		return e.Fn + "(*)"
	}
	return fmt.Sprintf("%s(%s)", e.Fn, e.Arg)
}

// SelectItem is one output column: an expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// FromItem is a base table or derived table with an optional alias.
type FromItem struct {
	Table string      // base table name if Sub is nil
	Sub   *SelectStmt // derived table
	Alias string
}

func (f FromItem) name() string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Table
}

// GroupWorldsClause is the group-worlds-by condition: either a subquery
// (worlds producing the same answer group together) or an attribute
// list, which abbreviates the projection query (§3).
type GroupWorldsClause struct {
	Query *SelectStmt
	Attrs []ColumnRef
}

// DivideClause is the division extension used in §2's trip-planning
// discussion: `... divide by <from-item> on <cond>`.
type DivideClause struct {
	Item FromItem
	On   Expr
}

// SelectStmt is the Figure 1 select statement.
type SelectStmt struct {
	Close       CloseMode
	Star        bool
	Items       []SelectItem
	From        []FromItem
	Divide      *DivideClause
	Where       Expr
	GroupBy     []ColumnRef
	ChoiceOf    []ColumnRef
	RepairKey   []ColumnRef
	GroupWorlds *GroupWorldsClause
}

func (*SelectStmt) stmt() {}

func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("select ")
	if s.Close != CloseNone {
		b.WriteString(s.Close.String() + " ")
	}
	if s.Star {
		b.WriteString("*")
	} else {
		parts := make([]string, len(s.Items))
		for i, it := range s.Items {
			parts[i] = it.Expr.String()
			if it.Alias != "" {
				parts[i] += " as " + it.Alias
			}
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(" from ")
	fparts := make([]string, len(s.From))
	for i, f := range s.From {
		if f.Sub != nil {
			fparts[i] = "(" + f.Sub.String() + ")"
		} else {
			fparts[i] = f.Table
		}
		if f.Alias != "" {
			fparts[i] += " as " + f.Alias
		}
	}
	b.WriteString(strings.Join(fparts, ", "))
	if s.Divide != nil {
		if s.Divide.Item.Sub != nil {
			fmt.Fprintf(&b, " divide by (%s)", s.Divide.Item.Sub)
		} else {
			fmt.Fprintf(&b, " divide by %s", s.Divide.Item.Table)
		}
		if s.Divide.Item.Alias != "" {
			b.WriteString(" as " + s.Divide.Item.Alias)
		}
		fmt.Fprintf(&b, " on %s", s.Divide.On)
	}
	if s.Where != nil {
		fmt.Fprintf(&b, " where %s", s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" group by " + joinRefs(s.GroupBy))
	}
	if len(s.ChoiceOf) > 0 {
		b.WriteString(" choice of " + joinRefs(s.ChoiceOf))
	}
	if len(s.RepairKey) > 0 {
		b.WriteString(" repair by key " + joinRefs(s.RepairKey))
	}
	if s.GroupWorlds != nil {
		if s.GroupWorlds.Query != nil {
			fmt.Fprintf(&b, " group worlds by (%s)", s.GroupWorlds.Query)
		} else {
			b.WriteString(" group worlds by " + joinRefs(s.GroupWorlds.Attrs))
		}
	}
	return b.String()
}

func joinRefs(refs []ColumnRef) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.Full()
	}
	return strings.Join(parts, ", ")
}

// InsertStmt inserts literal rows into a relation, in every world.
// In a prepared statement, cells may be $N parameter placeholders:
// Params, when non-nil, parallels Rows with the 1-based parameter
// number per cell (0 = the literal in Rows is real). EXECUTE binds the
// placeholders before execution.
type InsertStmt struct {
	Table  string
	Rows   [][]value.Value
	Params [][]int
}

func (*InsertStmt) stmt() {}
func (s *InsertStmt) String() string {
	rows := make([]string, len(s.Rows))
	for i, row := range s.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			if s.Params != nil && s.Params[i][j] > 0 {
				cells[j] = fmt.Sprintf("$%d", s.Params[i][j])
			} else {
				cells[j] = renderLiteral(v)
			}
		}
		rows[i] = "(" + strings.Join(cells, ", ") + ")"
	}
	return fmt.Sprintf("insert into %s values %s", s.Table, strings.Join(rows, ", "))
}

// DeleteStmt deletes matching tuples in every world.
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}
func (s *DeleteStmt) String() string {
	if s.Where == nil {
		return "delete from " + s.Table
	}
	return fmt.Sprintf("delete from %s where %s", s.Table, s.Where)
}

// SetClause is one col = expr assignment of an update.
type SetClause struct {
	Col  ColumnRef
	Expr Expr
}

// UpdateStmt updates matching tuples in every world.
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

func (*UpdateStmt) stmt() {}
func (s *UpdateStmt) String() string {
	sets := make([]string, len(s.Sets))
	for i, sc := range s.Sets {
		sets[i] = sc.Col.Full() + " = " + sc.Expr.String()
	}
	out := fmt.Sprintf("update %s set %s", s.Table, strings.Join(sets, ", "))
	if s.Where != nil {
		out += " where " + s.Where.String()
	}
	return out
}

// CreateViewStmt registers a named view.
type CreateViewStmt struct {
	Name  string
	Query *SelectStmt
}

func (*CreateViewStmt) stmt() {}
func (s *CreateViewStmt) String() string {
	return "create view " + s.Name + " as " + s.Query.String()
}

// CreateTableStmt creates an empty base relation (untyped columns, as in
// the paper's abstract relational model).
type CreateTableStmt struct {
	Name    string
	Columns []string
}

func (*CreateTableStmt) stmt() {}
func (s *CreateTableStmt) String() string {
	return "create table " + s.Name + " (" + strings.Join(s.Columns, ", ") + ")"
}

// CreateTableAsStmt materializes a query's answer as a new base
// relation in every world — the mechanism behind the paper's
// step-by-step scenarios (U ← select …). Unlike a view, the worlds
// created by the query (choice-of, repair-by-key) become part of the
// session's world-set.
type CreateTableAsStmt struct {
	Name  string
	Query *SelectStmt
}

func (*CreateTableAsStmt) stmt() {}
func (s *CreateTableAsStmt) String() string {
	return "create table " + s.Name + " as " + s.Query.String()
}

// DropTableStmt removes a base relation from every world.
type DropTableStmt struct{ Name string }

func (*DropTableStmt) stmt()            {}
func (s *DropTableStmt) String() string { return "drop table " + s.Name }

// One traversal and one rewrite of the statement tree. Code that only
// finds or replaces nodes — parameter numbering and binding, the
// relations a statement reads, "holds a subquery / an aggregate / a
// world-creating clause" — goes through them, so a new node kind is
// added here (and where it is type-checked, evaluated and rendered) and
// nowhere else.

// walkStmt calls visit on st and on every select, from item (as a
// FromItem value) and expression below it, parents first; visit
// returning false skips the node's children. Statements that carry no
// expression are visited alone.
func walkStmt(st Statement, visit func(node any) bool) {
	if sel, ok := st.(*SelectStmt); ok {
		walkSelect(sel, visit)
		return
	}
	if !visit(st) {
		return
	}
	switch n := st.(type) {
	case *CreateTableAsStmt:
		walkSelect(n.Query, visit)
	case *CreateViewStmt:
		walkSelect(n.Query, visit)
	case *DeleteStmt:
		walkExpr(n.Where, visit)
	case *UpdateStmt:
		for _, sc := range n.Sets {
			walkExpr(sc.Expr, visit)
		}
		walkExpr(n.Where, visit)
	}
}

// walkSelect is walkStmt from a select: its items, from items (derived
// tables entered), divide-by item and condition, where clause and
// group-worlds-by query.
func walkSelect(sel *SelectStmt, visit func(node any) bool) {
	if sel == nil || !visit(sel) {
		return
	}
	walkFrom := func(item FromItem) {
		if visit(item) {
			walkSelect(item.Sub, visit)
		}
	}
	for _, it := range sel.Items {
		walkExpr(it.Expr, visit)
	}
	for _, f := range sel.From {
		walkFrom(f)
	}
	if sel.Divide != nil {
		walkFrom(sel.Divide.Item)
		walkExpr(sel.Divide.On, visit)
	}
	walkExpr(sel.Where, visit)
	if sel.GroupWorlds != nil {
		walkSelect(sel.GroupWorlds.Query, visit)
	}
}

// walkExpr is walkStmt from an expression (nil is empty), entering
// subqueries through walkSelect.
func walkExpr(e Expr, visit func(node any) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch n := e.(type) {
	case *BinExpr:
		walkExpr(n.L, visit)
		walkExpr(n.R, visit)
	case *LogicExpr:
		walkExpr(n.L, visit)
		walkExpr(n.R, visit)
	case *NotExpr:
		walkExpr(n.E, visit)
	case *AggExpr:
		walkExpr(n.Arg, visit)
	case *InExpr:
		walkExpr(n.Left, visit)
		walkSelect(n.Sub, visit)
	case *ExistsExpr:
		walkSelect(n.Sub, visit)
	case *SubqueryExpr:
		walkSelect(n.Sub, visit)
	}
}

// mapStmt returns a copy of st with every expression rewritten by
// mapExpr. The input tree is never mutated — a prepared statement stays
// in the plan cache, shared by concurrent sessions.
func mapStmt(st Statement, f func(Expr) Expr) Statement {
	switch n := st.(type) {
	case *SelectStmt:
		return mapSelect(n, f)
	case *CreateTableAsStmt:
		return &CreateTableAsStmt{Name: n.Name, Query: mapSelect(n.Query, f)}
	case *CreateViewStmt:
		return &CreateViewStmt{Name: n.Name, Query: mapSelect(n.Query, f)}
	case *DeleteStmt:
		return &DeleteStmt{Table: n.Table, Where: mapExpr(n.Where, f)}
	case *UpdateStmt:
		out := &UpdateStmt{Table: n.Table, Sets: make([]SetClause, len(n.Sets)), Where: mapExpr(n.Where, f)}
		for i, sc := range n.Sets {
			out.Sets[i] = SetClause{Col: sc.Col, Expr: mapExpr(sc.Expr, f)}
		}
		return out
	}
	return st // carries no expression
}

// mapSelect is mapStmt on a select, in every position walkSelect visits.
func mapSelect(sel *SelectStmt, f func(Expr) Expr) *SelectStmt {
	if sel == nil {
		return nil
	}
	mapFrom := func(item FromItem) FromItem {
		item.Sub = mapSelect(item.Sub, f)
		return item
	}
	out := *sel
	out.Items = make([]SelectItem, len(sel.Items))
	for i, it := range sel.Items {
		out.Items[i] = SelectItem{Expr: mapExpr(it.Expr, f), Alias: it.Alias}
	}
	out.From = make([]FromItem, len(sel.From))
	for i, item := range sel.From {
		out.From[i] = mapFrom(item)
	}
	if d := sel.Divide; d != nil {
		out.Divide = &DivideClause{Item: mapFrom(d.Item), On: mapExpr(d.On, f)}
	}
	out.Where = mapExpr(sel.Where, f)
	if gw := sel.GroupWorlds; gw != nil {
		out.GroupWorlds = &GroupWorldsClause{Query: mapSelect(gw.Query, f), Attrs: gw.Attrs}
	}
	return &out
}

// mapExpr rebuilds e top-down: a node f maps to a non-nil expression is
// replaced by it, any other node is copied with its children (and
// subqueries, through mapSelect) rebuilt the same way.
func mapExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := f(e); r != nil {
		return r
	}
	switch n := e.(type) {
	case *BinExpr:
		return &BinExpr{Op: n.Op, L: mapExpr(n.L, f), R: mapExpr(n.R, f)}
	case *LogicExpr:
		return &LogicExpr{Op: n.Op, L: mapExpr(n.L, f), R: mapExpr(n.R, f)}
	case *NotExpr:
		return &NotExpr{E: mapExpr(n.E, f)}
	case *AggExpr:
		return &AggExpr{Fn: n.Fn, Arg: mapExpr(n.Arg, f), Star: n.Star}
	case *InExpr:
		return &InExpr{Left: mapExpr(n.Left, f), Sub: mapSelect(n.Sub, f), Neg: n.Neg}
	case *ExistsExpr:
		return &ExistsExpr{Sub: mapSelect(n.Sub, f), Neg: n.Neg}
	case *SubqueryExpr:
		return &SubqueryExpr{Sub: mapSelect(n.Sub, f)}
	}
	return e // columns, literals, parameters
}
