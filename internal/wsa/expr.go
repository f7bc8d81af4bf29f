// Package wsa implements World-set Algebra: the algebra for the clean
// fragment of I-SQL defined in §4 of "From Complete to Incomplete
// Information and Back" (SIGMOD 2007). It extends relational algebra
// with poss, cert, χ_U (choice-of), pγ^V_U and cγ^V_U (group-worlds-by),
// and — as the §4.1 extension — repair-by-key.
//
// The package provides the query AST with static schema and operator
// type inference (1↦1, 1↦m, m↦1, m↦m), and a reference evaluator that
// implements the compositional semantics of Figure 3 directly on
// world-sets.
package wsa

import (
	"fmt"
	"strings"

	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
)

// Env carries the world-set schema ⟨R1, …, Rk⟩ that queries are typed
// against.
type Env struct {
	names   []string
	schemas []relation.Schema
}

// NewEnv builds an environment from parallel name/schema lists.
func NewEnv(names []string, schemas []relation.Schema) *Env {
	return &Env{names: names, schemas: schemas}
}

// SchemaOf resolves a relation name.
func (e *Env) SchemaOf(name string) (relation.Schema, bool) {
	for i, n := range e.names {
		if n == name {
			return e.schemas[i], true
		}
	}
	return nil, false
}

// Names returns the relation names of the environment.
func (e *Env) Names() []string { return e.names }

// Mult is a world-set cardinality class: a singleton world-set (a
// complete database) or a general world-set.
type Mult int

// Cardinality classes.
const (
	One Mult = iota
	Many
)

func (m Mult) String() string {
	if m == One {
		return "1"
	}
	return "m"
}

func combine(a, b Mult) Mult {
	if a == Many || b == Many {
		return Many
	}
	return One
}

// Expr is a World-set Algebra query.
type Expr interface {
	// Schema infers the schema of the answer relation R_{k+1}.
	Schema(env *Env) (relation.Schema, error)
	// Out returns the output cardinality class given the input class,
	// implementing the operator typing of §4.1.
	Out(in Mult) Mult
	String() string
}

// TypeOf renders a query's type in the paper's notation for a given
// input class, e.g. "1 ↦ 1".
func TypeOf(q Expr, in Mult) string {
	return fmt.Sprintf("%s ↦ %s", in, q.Out(in))
}

// IsCompleteToComplete reports whether q has type 1 ↦ 1 (maps a complete
// database to a complete database), the precondition of Theorem 5.7.
func IsCompleteToComplete(q Expr) bool { return q.Out(One) == One }

// Rel references a relation of the schema: the identity query Ri of
// Figure 3.
type Rel struct{ Name string }

// Schema implements Expr.
func (r *Rel) Schema(env *Env) (relation.Schema, error) {
	s, ok := env.SchemaOf(r.Name)
	if !ok {
		return nil, fmt.Errorf("wsa: unknown relation %q", r.Name)
	}
	return s, nil
}

// Out implements Expr.
func (r *Rel) Out(in Mult) Mult { return in }

func (r *Rel) String() string { return r.Name }

// Select is σ_pred(From), evaluated world by world.
type Select struct {
	Pred ra.Pred
	From Expr
}

// Schema implements Expr.
func (s *Select) Schema(env *Env) (relation.Schema, error) { return schemaOver(s, s.From, env) }

// Out implements Expr.
func (s *Select) Out(in Mult) Mult { return s.From.Out(in) }

func (s *Select) String() string { return fmt.Sprintf("σ[%s](%s)", s.Pred, s.From) }

// Project is π_Columns(From), evaluated world by world.
type Project struct {
	Columns []string
	From    Expr
}

// Schema implements Expr.
func (p *Project) Schema(env *Env) (relation.Schema, error) { return schemaOver(p, p.From, env) }

// Out implements Expr.
func (p *Project) Out(in Mult) Mult { return p.From.Out(in) }

func (p *Project) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(p.Columns, ","), p.From)
}

// Rename is δ_{A→B,…}(From), evaluated world by world.
type Rename struct {
	Pairs []ra.RenamePair
	From  Expr
}

// Schema implements Expr.
func (r *Rename) Schema(env *Env) (relation.Schema, error) { return schemaOver(r, r.From, env) }

// Out implements Expr.
func (r *Rename) Out(in Mult) Mult { return r.From.Out(in) }

func (r *Rename) String() string {
	parts := make([]string, len(r.Pairs))
	for i, p := range r.Pairs {
		parts[i] = p.From + "→" + p.To
	}
	return fmt.Sprintf("δ[%s](%s)", strings.Join(parts, ","), r.From)
}

// BinOpKind enumerates the binary operators of Figure 3.
type BinOpKind int

// Binary operator kinds.
const (
	OpProduct BinOpKind = iota
	OpUnion
	OpIntersect
	OpDiff
)

func (k BinOpKind) String() string {
	switch k {
	case OpProduct:
		return "×"
	case OpUnion:
		return "∪"
	case OpIntersect:
		return "∩"
	case OpDiff:
		return "−"
	}
	return "?"
}

// BinOp is q1 Op q2 with the pairing semantics of Figure 3: the operation
// applies to combinations of answer relations from worlds agreeing on
// R1, …, Rk.
type BinOp struct {
	Kind BinOpKind
	L, R Expr
}

// NewProduct builds q1 × q2.
func NewProduct(l, r Expr) *BinOp { return &BinOp{Kind: OpProduct, L: l, R: r} }

// NewUnion builds q1 ∪ q2.
func NewUnion(l, r Expr) *BinOp { return &BinOp{Kind: OpUnion, L: l, R: r} }

// NewIntersect builds q1 ∩ q2.
func NewIntersect(l, r Expr) *BinOp { return &BinOp{Kind: OpIntersect, L: l, R: r} }

// NewDiff builds q1 − q2.
func NewDiff(l, r Expr) *BinOp { return &BinOp{Kind: OpDiff, L: l, R: r} }

// Schema implements Expr.
func (b *BinOp) Schema(env *Env) (relation.Schema, error) {
	ls, err := b.L.Schema(env)
	if err != nil {
		return nil, err
	}
	rs, err := b.R.Schema(env)
	if err != nil {
		return nil, err
	}
	if b.Kind == OpProduct {
		if shared := ls.Intersect(rs); len(shared) > 0 {
			return nil, fmt.Errorf("wsa: product operands share attributes %v", shared)
		}
		return ls.Concat(rs), nil
	}
	if len(ls) != len(rs) {
		return nil, fmt.Errorf("wsa: %s operands have arities %d and %d", b.Kind, len(ls), len(rs))
	}
	return ls, nil
}

// Out implements Expr.
func (b *BinOp) Out(in Mult) Mult { return combine(b.L.Out(in), b.R.Out(in)) }

func (b *BinOp) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Kind, b.R) }

// Join is the theta join q1 ⋈_pred q2 used in Example 4.1 and Figures
// 8–9; it abbreviates σ_pred(q1 × q2) and shares the pairing semantics.
type Join struct {
	L, R Expr
	Pred ra.Pred
}

// Schema implements Expr.
func (j *Join) Schema(env *Env) (relation.Schema, error) {
	p := BinOp{Kind: OpProduct, L: j.L, R: j.R}
	s, err := p.Schema(env)
	if err != nil {
		return nil, err
	}
	for _, c := range j.Pred.Columns(nil) {
		if s.Index(c) < 0 {
			return nil, fmt.Errorf("wsa: join attribute %q not in %v", c, s)
		}
	}
	return s, nil
}

// Out implements Expr.
func (j *Join) Out(in Mult) Mult { return combine(j.L.Out(in), j.R.Out(in)) }

func (j *Join) String() string { return fmt.Sprintf("(%s ⋈[%s] %s)", j.L, j.Pred, j.R) }

// Choice is χ_U(From): creates a new world for each combination of
// values of U in the answer relation. Type 1↦m / m↦m.
type Choice struct {
	Attrs []string
	From  Expr
}

// Schema implements Expr.
func (c *Choice) Schema(env *Env) (relation.Schema, error) { return schemaOver(c, c.From, env) }

// Out implements Expr.
func (c *Choice) Out(Mult) Mult { return Many }

func (c *Choice) String() string {
	return fmt.Sprintf("χ[%s](%s)", strings.Join(c.Attrs, ","), c.From)
}

// GroupKind selects between possible- and certain-group-worlds-by.
type GroupKind int

// Group-worlds-by kinds.
const (
	GroupPoss GroupKind = iota
	GroupCert
)

func (k GroupKind) String() string {
	if k == GroupPoss {
		return "pγ"
	}
	return "cγ"
}

// Group is pγ^Proj_GroupBy(From) or cγ^Proj_GroupBy(From): worlds whose
// answers agree on π_GroupBy are grouped; in each world the answer is
// replaced by the union (pγ) or intersection (cγ) of π_Proj over its
// group. Proj == nil means "*": all attributes of the input.
type Group struct {
	Kind    GroupKind
	GroupBy []string
	Proj    []string // nil means all attributes
	From    Expr
}

// NewPossGroup builds pγ^proj_groupBy(from).
func NewPossGroup(groupBy, proj []string, from Expr) *Group {
	return &Group{Kind: GroupPoss, GroupBy: groupBy, Proj: proj, From: from}
}

// NewCertGroup builds cγ^proj_groupBy(from).
func NewCertGroup(groupBy, proj []string, from Expr) *Group {
	return &Group{Kind: GroupCert, GroupBy: groupBy, Proj: proj, From: from}
}

// ProjOrAll resolves the projection list, expanding nil to all input
// attributes.
func (g *Group) ProjOrAll(in relation.Schema) []string {
	if g.Proj == nil {
		return in
	}
	return g.Proj
}

// Schema implements Expr.
func (g *Group) Schema(env *Env) (relation.Schema, error) { return schemaOver(g, g.From, env) }

// Out implements Expr.
func (g *Group) Out(in Mult) Mult { return g.From.Out(in) }

func (g *Group) String() string {
	proj := "*"
	if g.Proj != nil {
		proj = strings.Join(g.Proj, ",")
	}
	return fmt.Sprintf("%s[%s|%s](%s)", g.Kind, strings.Join(g.GroupBy, ","), proj, g.From)
}

// CloseKind selects between poss and cert.
type CloseKind int

// Possible-worlds closing kinds.
const (
	ClosePoss CloseKind = iota
	CloseCert
)

func (k CloseKind) String() string {
	if k == ClosePoss {
		return "poss"
	}
	return "cert"
}

// Close is poss(From) or cert(From): the answer relation is replaced in
// every world by the union (poss) or intersection (cert) of its
// instances across all worlds. Type m↦1.
type Close struct {
	Kind CloseKind
	From Expr
}

// NewPoss builds poss(from).
func NewPoss(from Expr) *Close { return &Close{Kind: ClosePoss, From: from} }

// NewCert builds cert(from).
func NewCert(from Expr) *Close { return &Close{Kind: CloseCert, From: from} }

// Schema implements Expr.
func (c *Close) Schema(env *Env) (relation.Schema, error) { return schemaOver(c, c.From, env) }

// Out implements Expr.
func (c *Close) Out(Mult) Mult { return One }

func (c *Close) String() string { return fmt.Sprintf("%s(%s)", c.Kind, c.From) }

// RepairKey is the repair-by-key extension of §4.1: it creates one world
// per maximal repair of the answer relation under the key constraint on
// Attrs (one tuple chosen per distinct key value). Evaluating it is
// NP-hard in general (Proposition 4.2).
type RepairKey struct {
	Attrs []string
	From  Expr
}

// Schema implements Expr.
func (r *RepairKey) Schema(env *Env) (relation.Schema, error) { return schemaOver(r, r.From, env) }

// Out implements Expr.
func (r *RepairKey) Out(Mult) Mult { return Many }

func (r *RepairKey) String() string {
	return fmt.Sprintf("repair[%s](%s)", strings.Join(r.Attrs, ","), r.From)
}

// schemaOver is the Schema of a unary operator q over operand from.
func schemaOver(q, from Expr, env *Env) (relation.Schema, error) {
	in, err := from.Schema(env)
	if err != nil {
		return nil, err
	}
	return SchemaOver(q, in)
}

// SchemaOver returns the answer schema of the unary operator q given its
// operand's schema, checking what q.Schema checks at q itself: Schema
// without re-deriving the operand's. An evaluator that already holds
// the operand's answer uses it, so deriving every node's schema costs
// one step per node rather than one walk of its subtree.
func SchemaOver(q Expr, in relation.Schema) (relation.Schema, error) {
	switch n := q.(type) {
	case *Select:
		for _, c := range n.Pred.Columns(nil) {
			if in.Index(c) < 0 {
				return nil, fmt.Errorf("wsa: selection attribute %q not in %v", c, in)
			}
		}
		return in, nil
	case *Project:
		out := make(relation.Schema, len(n.Columns))
		for i, c := range n.Columns {
			j := in.Index(c)
			if j < 0 {
				return nil, fmt.Errorf("wsa: projection attribute %q not in %v", c, in)
			}
			out[i] = in[j]
		}
		return relation.NewSchema(out...), nil
	case *Rename:
		out := in.Clone()
		for _, p := range n.Pairs {
			i := in.Index(p.From)
			if i < 0 {
				return nil, fmt.Errorf("wsa: rename source %q not in %v", p.From, in)
			}
			out[i] = p.To
		}
		return relation.NewSchema(out...), nil
	case *Choice:
		if _, err := in.Indexes(n.Attrs); err != nil {
			return nil, fmt.Errorf("wsa: choice-of: %w", err)
		}
		return in, nil
	case *Group:
		if _, err := in.Indexes(n.GroupBy); err != nil {
			return nil, fmt.Errorf("wsa: group-worlds-by: %w", err)
		}
		proj := n.ProjOrAll(in)
		if _, err := in.Indexes(proj); err != nil {
			return nil, fmt.Errorf("wsa: group-worlds-by projection: %w", err)
		}
		return relation.NewSchema(proj...), nil
	case *Close:
		return in, nil
	case *RepairKey:
		if _, err := in.Indexes(n.Attrs); err != nil {
			return nil, fmt.Errorf("wsa: repair-by-key: %w", err)
		}
		return in, nil
	}
	return nil, fmt.Errorf("wsa: %T is not a unary operator", q)
}

// Equal reports structural equality of two queries via their canonical
// string forms.
func Equal(a, b Expr) bool { return a.String() == b.String() }

// Walk calls f on q and every subquery, pre-order.
func Walk(q Expr, f func(Expr)) {
	f(q)
	switch n := q.(type) {
	case *Select:
		Walk(n.From, f)
	case *Project:
		Walk(n.From, f)
	case *Rename:
		Walk(n.From, f)
	case *BinOp:
		Walk(n.L, f)
		Walk(n.R, f)
	case *Join:
		Walk(n.L, f)
		Walk(n.R, f)
	case *Choice:
		Walk(n.From, f)
	case *Group:
		Walk(n.From, f)
	case *Close:
		Walk(n.From, f)
	case *RepairKey:
		Walk(n.From, f)
	}
}

// Relations returns the set of base relation names q mentions.
func Relations(q Expr) map[string]bool {
	out := map[string]bool{}
	Walk(q, func(n Expr) {
		if r, ok := n.(*Rel); ok {
			out[r.Name] = true
		}
	})
	return out
}

// Size returns the number of AST nodes in q.
func Size(q Expr) int {
	n := 0
	Walk(q, func(Expr) { n++ })
	return n
}
