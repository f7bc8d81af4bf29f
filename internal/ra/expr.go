package ra

import (
	"fmt"
	"strings"

	"worldsetdb/internal/relation"
)

// DB is a catalog of named relations: the "complete database" the
// translated queries of §5 run against.
type DB map[string]*relation.Relation

// SchemaOf looks up the schema of a base relation.
func (db DB) SchemaOf(name string) (relation.Schema, bool) {
	r, ok := db[name]
	if !ok {
		return nil, false
	}
	return r.Schema(), true
}

// Catalog resolves base-relation schemas during static schema inference.
type Catalog interface {
	SchemaOf(name string) (relation.Schema, bool)
}

// Expr is a relational algebra expression.
type Expr interface {
	// Schema infers the output schema against a catalog.
	Schema(cat Catalog) (relation.Schema, error)
	// Eval computes the result against a database.
	Eval(db DB) (*relation.Relation, error)
	String() string
}

// Base references a named relation of the database.
type Base struct{ Name string }

// Schema implements Expr.
func (b *Base) Schema(cat Catalog) (relation.Schema, error) {
	s, ok := cat.SchemaOf(b.Name)
	if !ok {
		return nil, fmt.Errorf("ra: unknown relation %q", b.Name)
	}
	return s, nil
}

func (b *Base) String() string { return b.Name }

// Lit is a literal constant relation, e.g. the nullary world table {⟨⟩}
// of Example 5.6 or the padding tuple {⟨c, …, c⟩} of Remark 5.5.
type Lit struct {
	Rel *relation.Relation
	// Label overrides rendering (e.g. "{⟨⟩}").
	Label string
}

// Schema implements Expr.
func (l *Lit) Schema(Catalog) (relation.Schema, error) { return l.Rel.Schema(), nil }

// Eval implements Expr. Like Base.Eval it returns the relation itself,
// not a copy — relations are immutable once shared and every operator
// allocates its own result — so an index cached on the literal by one
// join (relation.IndexOn) serves the next.
func (l *Lit) Eval(DB) (*relation.Relation, error) { return l.Rel, nil }

func (l *Lit) String() string {
	if l.Label != "" {
		return l.Label
	}
	return fmt.Sprintf("lit%v", l.Rel.Schema())
}

// Select is σ_pred(From).
type Select struct {
	Pred Pred
	From Expr
}

// Schema implements Expr.
func (s *Select) Schema(cat Catalog) (relation.Schema, error) {
	in, err := s.From.Schema(cat)
	if err != nil {
		return nil, err
	}
	for _, c := range s.Pred.Columns(nil) {
		if in.Index(c) < 0 {
			return nil, fmt.Errorf("ra: selection attribute %q not in %v", c, in)
		}
	}
	return in, nil
}

func (s *Select) String() string {
	return fmt.Sprintf("σ[%s](%s)", s.Pred, s.From)
}

// ProjCol is one output column of a generalized projection: source
// attribute Src exposed under name As. Src == As is a plain projection
// column; Src != As renames (and, if Src also appears elsewhere in the
// list, duplicates) the column, which is how the translation's
// π_{D, V, B as V_B} is expressed.
type ProjCol struct {
	As  string
	Src string
}

// Cols builds a plain projection column list (no renaming).
func Cols(names ...string) []ProjCol {
	out := make([]ProjCol, len(names))
	for i, n := range names {
		out[i] = ProjCol{As: n, Src: n}
	}
	return out
}

// ColsAs appends a renamed copy "src as as" to a column list.
func ColsAs(cols []ProjCol, src, as string) []ProjCol {
	return append(append([]ProjCol{}, cols...), ProjCol{As: as, Src: src})
}

// Project is the generalized projection π_{cols}(From).
type Project struct {
	Columns []ProjCol
	From    Expr
}

// ProjectNames is a convenience constructor for a plain projection.
func ProjectNames(from Expr, names ...string) *Project {
	return &Project{Columns: Cols(names...), From: from}
}

// Schema implements Expr.
func (p *Project) Schema(cat Catalog) (relation.Schema, error) {
	in, err := p.From.Schema(cat)
	if err != nil {
		return nil, err
	}
	out := make(relation.Schema, len(p.Columns))
	for i, c := range p.Columns {
		if in.Index(c.Src) < 0 {
			return nil, fmt.Errorf("ra: projection attribute %q not in %v", c.Src, in)
		}
		out[i] = c.As
	}
	if dup := firstDuplicate(out); dup != "" {
		return nil, fmt.Errorf("ra: duplicate output attribute %q in projection", dup)
	}
	return out, nil
}

func firstDuplicate(s relation.Schema) string {
	seen := make(map[string]bool, len(s))
	for _, n := range s {
		if seen[n] {
			return n
		}
		seen[n] = true
	}
	return ""
}

func (p *Project) String() string {
	parts := make([]string, len(p.Columns))
	for i, c := range p.Columns {
		if c.As == c.Src {
			parts[i] = c.As
		} else {
			parts[i] = c.Src + " as " + c.As
		}
	}
	return fmt.Sprintf("π[%s](%s)", strings.Join(parts, ","), p.From)
}

// RenamePair is one A→B renaming of δ.
type RenamePair struct{ From, To string }

// Rename is δ_{A→B, …}(From): attribute renaming in place (schema order
// preserved).
type Rename struct {
	Pairs []RenamePair
	From  Expr
}

// RenameAttrs builds δ with the given from→to pairs.
func RenameAttrs(from Expr, pairs ...RenamePair) *Rename {
	return &Rename{Pairs: pairs, From: from}
}

func (r *Rename) mapped(in relation.Schema) (relation.Schema, error) {
	out := in.Clone()
	for _, p := range r.Pairs {
		i := in.Index(p.From)
		if i < 0 {
			return nil, fmt.Errorf("ra: rename source %q not in %v", p.From, in)
		}
		out[i] = p.To
	}
	if dup := firstDuplicate(out); dup != "" {
		return nil, fmt.Errorf("ra: rename creates duplicate attribute %q", dup)
	}
	return out, nil
}

// Schema implements Expr.
func (r *Rename) Schema(cat Catalog) (relation.Schema, error) {
	in, err := r.From.Schema(cat)
	if err != nil {
		return nil, err
	}
	return r.mapped(in)
}

func (r *Rename) String() string {
	parts := make([]string, len(r.Pairs))
	for i, p := range r.Pairs {
		parts[i] = p.From + "→" + p.To
	}
	return fmt.Sprintf("δ[%s](%s)", strings.Join(parts, ","), r.From)
}

// Product is the cross product ×; operand schemas must be disjoint.
type Product struct{ L, R Expr }

// Schema implements Expr.
func (p *Product) Schema(cat Catalog) (relation.Schema, error) {
	ls, err := p.L.Schema(cat)
	if err != nil {
		return nil, err
	}
	rs, err := p.R.Schema(cat)
	if err != nil {
		return nil, err
	}
	if shared := ls.Intersect(rs); len(shared) > 0 {
		return nil, fmt.Errorf("ra: product operands share attributes %v", shared)
	}
	return ls.Concat(rs), nil
}

func (p *Product) String() string { return fmt.Sprintf("(%s × %s)", p.L, p.R) }

// Join is the theta join L ⋈_pred R: σ_pred(L × R) with hash-join
// evaluation for the equality conjuncts.
type Join struct {
	L, R Expr
	Pred Pred
}

// Schema implements Expr.
func (j *Join) Schema(cat Catalog) (relation.Schema, error) {
	p := Product{j.L, j.R}
	s, err := p.Schema(cat)
	if err != nil {
		return nil, err
	}
	for _, c := range j.Pred.Columns(nil) {
		if s.Index(c) < 0 {
			return nil, fmt.Errorf("ra: join attribute %q not in %v", c, s)
		}
	}
	return s, nil
}

func (j *Join) String() string { return fmt.Sprintf("(%s ⋈[%s] %s)", j.L, j.Pred, j.R) }

// NaturalJoin joins on all attributes with equal names; the output keeps
// L's schema followed by R's non-shared attributes. The translation of
// Figure 6 writes these joins as R_i ⋈ W′ (joins on the shared world-id
// attributes).
type NaturalJoin struct{ L, R Expr }

// Schema implements Expr.
func (j *NaturalJoin) Schema(cat Catalog) (relation.Schema, error) {
	ls, err := j.L.Schema(cat)
	if err != nil {
		return nil, err
	}
	rs, err := j.R.Schema(cat)
	if err != nil {
		return nil, err
	}
	return ls.Concat(rs.Minus(ls)), nil
}

func (j *NaturalJoin) String() string { return fmt.Sprintf("(%s ⋈ %s)", j.L, j.R) }

// LeftOuterPad is the modified left outer join =⊲⊳ of Remark 5.5:
//
//	R =⊲⊳ S  =  R ⋈ S  ∪  (R − R ⋉ S) × {⟨c, …, c⟩}
//
// i.e. a natural left outer join whose dangling tuples are padded with
// the distinguished constant c instead of nulls.
type LeftOuterPad struct{ L, R Expr }

// Schema implements Expr.
func (j *LeftOuterPad) Schema(cat Catalog) (relation.Schema, error) {
	n := NaturalJoin{j.L, j.R}
	return n.Schema(cat)
}

func (j *LeftOuterPad) String() string { return fmt.Sprintf("(%s =⊲⊳ %s)", j.L, j.R) }

// Union is ∪. Operands must have equal arity; columns align by position
// and the result carries L's schema.
type Union struct{ L, R Expr }

// Schema implements Expr.
func (u *Union) Schema(cat Catalog) (relation.Schema, error) {
	return setOpSchema(cat, u.L, u.R, "∪")
}

func (u *Union) String() string { return fmt.Sprintf("(%s ∪ %s)", u.L, u.R) }

// Diff is set difference −.
type Diff struct{ L, R Expr }

// Schema implements Expr.
func (d *Diff) Schema(cat Catalog) (relation.Schema, error) { return setOpSchema(cat, d.L, d.R, "−") }

func (d *Diff) String() string { return fmt.Sprintf("(%s − %s)", d.L, d.R) }

// Intersect is ∩.
type Intersect struct{ L, R Expr }

// Schema implements Expr.
func (i *Intersect) Schema(cat Catalog) (relation.Schema, error) {
	return setOpSchema(cat, i.L, i.R, "∩")
}

func (i *Intersect) String() string { return fmt.Sprintf("(%s ∩ %s)", i.L, i.R) }

func setOpSchema(cat Catalog, l, r Expr, op string) (relation.Schema, error) {
	ls, err := l.Schema(cat)
	if err != nil {
		return nil, err
	}
	rs, err := r.Schema(cat)
	if err != nil {
		return nil, err
	}
	if len(ls) != len(rs) {
		return nil, fmt.Errorf("ra: %s operands have arities %d and %d", op, len(ls), len(rs))
	}
	return ls, nil
}

// Divide is relational division L ÷ R: with D = attrs(L) − attrs(R)
// (matched by exact name), the result contains the D-tuples d such that
// for every tuple v of R, the combined tuple (d, v) is in L. The cert
// translation of Figure 6 divides the answer table by the world table.
type Divide struct{ L, R Expr }

// Schema implements Expr.
func (d *Divide) Schema(cat Catalog) (relation.Schema, error) {
	ls, err := d.L.Schema(cat)
	if err != nil {
		return nil, err
	}
	rs, err := d.R.Schema(cat)
	if err != nil {
		return nil, err
	}
	shared := ls.Intersect(rs)
	if len(shared) != len(rs) {
		return nil, fmt.Errorf("ra: divisor schema %v not contained in dividend schema %v", rs, ls)
	}
	return ls.Minus(rs), nil
}

func (d *Divide) String() string { return fmt.Sprintf("(%s ÷ %s)", d.L, d.R) }

// Nullary returns the nullary relation {⟨⟩}: the initial world table of
// a complete database (Example 5.6, step 1).
func Nullary() *Lit {
	r := relation.New(relation.Schema{})
	r.Insert(relation.Tuple{})
	return &Lit{Rel: r, Label: "{⟨⟩}"}
}
