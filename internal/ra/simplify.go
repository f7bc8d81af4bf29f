package ra

import (
	"worldsetdb/internal/relation"
)

// SimplifyOptions gate context-dependent simplifications.
type SimplifyOptions struct {
	// DropNullaryOuterPad rewrites {⟨⟩} =⊲⊳ X to X. The two differ only
	// when X is empty ({⟨c,…,c⟩} vs ∅); the optimized translator enables
	// this because in its output the world table and the dividend it
	// guards are derived from the same base expression, so both are
	// empty together and division results coincide (see §5.3 and
	// Example 5.8).
	DropNullaryOuterPad bool
}

func simplifyOnce(e Expr, opt SimplifyOptions) (Expr, bool) {
	switch n := e.(type) {
	case *Base, *Lit, nil:
		return e, false

	case *Select:
		from, ch := simplifyOnce(n.From, opt)
		if _, isTrue := n.Pred.(True); isTrue {
			return from, true
		}
		if ch {
			return &Select{Pred: n.Pred, From: from}, true
		}
		return e, false

	case *Project:
		from, ch := simplifyOnce(n.From, opt)
		if ch {
			return &Project{Columns: n.Columns, From: from}, true
		}
		// π ∘ π fusion: rewrite sources through the inner column list.
		if inner, ok := n.From.(*Project); ok {
			cols := make([]ProjCol, len(n.Columns))
			okAll := true
			for i, c := range n.Columns {
				src, found := lookupProj(inner.Columns, c.Src)
				if !found {
					okAll = false
					break
				}
				cols[i] = ProjCol{As: c.As, Src: src}
			}
			if okAll {
				return &Project{Columns: cols, From: inner.From}, true
			}
		}
		// π ∘ δ fusion: rewrite sources through the rename.
		if inner, ok := n.From.(*Rename); ok {
			cols := make([]ProjCol, len(n.Columns))
			for i, c := range n.Columns {
				src := c.Src
				for _, p := range inner.Pairs {
					if p.To == src {
						src = p.From
						break
					}
				}
				cols[i] = ProjCol{As: c.As, Src: src}
			}
			return &Project{Columns: cols, From: inner.From}, true
		}
		// Identity projection elimination.
		if s, err := n.From.Schema(emptyCatalog{}); err == nil && identityProj(n.Columns, s) {
			return n.From, true
		}
		return e, false

	case *Rename:
		from, ch := simplifyOnce(n.From, opt)
		if len(n.Pairs) == 0 {
			return from, true
		}
		if ch {
			return &Rename{Pairs: n.Pairs, From: from}, true
		}
		// δ ∘ π fusion: apply the rename to the projection's output
		// names.
		if inner, ok := n.From.(*Project); ok {
			cols := make([]ProjCol, len(inner.Columns))
			for i, c := range inner.Columns {
				as := c.As
				for _, p := range n.Pairs {
					if p.From == as {
						as = p.To
						break
					}
				}
				cols[i] = ProjCol{As: as, Src: c.Src}
			}
			return &Project{Columns: cols, From: inner.From}, true
		}
		return e, false

	case *Product:
		l, ch1 := simplifyOnce(n.L, opt)
		r, ch2 := simplifyOnce(n.R, opt)
		if isNullaryLit(l) {
			return r, true
		}
		if isNullaryLit(r) {
			return l, true
		}
		if ch1 || ch2 {
			return &Product{L: l, R: r}, true
		}
		return e, false

	case *Join:
		l, ch1 := simplifyOnce(n.L, opt)
		r, ch2 := simplifyOnce(n.R, opt)
		if ch1 || ch2 {
			return &Join{L: l, R: r, Pred: n.Pred}, true
		}
		return e, false

	case *NaturalJoin:
		l, ch1 := simplifyOnce(n.L, opt)
		r, ch2 := simplifyOnce(n.R, opt)
		if isNullaryLit(l) {
			return r, true
		}
		if isNullaryLit(r) {
			return l, true
		}
		if ch1 || ch2 {
			return &NaturalJoin{L: l, R: r}, true
		}
		return e, false

	case *LeftOuterPad:
		l, ch1 := simplifyOnce(n.L, opt)
		r, ch2 := simplifyOnce(n.R, opt)
		if opt.DropNullaryOuterPad && isNullaryLit(l) {
			return r, true
		}
		if ch1 || ch2 {
			return &LeftOuterPad{L: l, R: r}, true
		}
		return e, false

	case *Union:
		return simplifyBinary(e, n.L, n.R, opt, func(l, r Expr) Expr { return &Union{L: l, R: r} })
	case *Diff:
		return simplifyBinary(e, n.L, n.R, opt, func(l, r Expr) Expr { return &Diff{L: l, R: r} })
	case *Intersect:
		return simplifyBinary(e, n.L, n.R, opt, func(l, r Expr) Expr { return &Intersect{L: l, R: r} })
	case *Divide:
		return simplifyBinary(e, n.L, n.R, opt, func(l, r Expr) Expr { return &Divide{L: l, R: r} })
	}
	return e, false
}

func simplifyBinary(orig, l, r Expr, opt SimplifyOptions, rebuild func(l, r Expr) Expr) (Expr, bool) {
	ls, ch1 := simplifyOnce(l, opt)
	rs, ch2 := simplifyOnce(r, opt)
	if ch1 || ch2 {
		return rebuild(ls, rs), true
	}
	return orig, false
}

func lookupProj(cols []ProjCol, name string) (string, bool) {
	for _, c := range cols {
		if c.As == name {
			return c.Src, true
		}
	}
	return "", false
}

func identityProj(cols []ProjCol, s relation.Schema) bool {
	if len(cols) != len(s) {
		return false
	}
	for i, c := range cols {
		if c.As != c.Src || c.As != s[i] {
			return false
		}
	}
	return true
}

func isNullaryLit(e Expr) bool {
	l, ok := e.(*Lit)
	return ok && len(l.Rel.Schema()) == 0 && l.Rel.Len() == 1
}

// emptyCatalog resolves no names: schema inference under it succeeds
// only for subtrees whose leaves are literals, which is all the identity
// check needs (failures simply skip the rewrite).
type emptyCatalog struct{}

func (emptyCatalog) SchemaOf(string) (relation.Schema, bool) { return nil, false }

// SchemaCatalog builds a Catalog from a fixed name → schema map.
type SchemaCatalog map[string]relation.Schema

// SchemaOf implements Catalog.
func (c SchemaCatalog) SchemaOf(name string) (relation.Schema, bool) {
	s, ok := c[name]
	return s, ok
}

// SimplifyWith rewrites e into a smaller equivalent plan using sound
// local rules: projection/projection and rename/rename fusion, identity
// projection and empty-rename elimination, σ_true removal, and products
// with the nullary relation {⟨⟩}. The catalog lets identity projections
// over base tables be eliminated too.
func SimplifyWith(e Expr, cat Catalog, opt SimplifyOptions) Expr {
	for {
		next, changed := simplifyOnceCat(e, cat, opt)
		if !changed {
			return next
		}
		e = next
	}
}

func simplifyOnceCat(e Expr, cat Catalog, opt SimplifyOptions) (Expr, bool) {
	// Run the catalog-free pass first.
	if next, changed := simplifyOnce(e, opt); changed {
		return next, true
	}
	// Then the identity-projection check with real schemas, applied
	// top-down.
	switch n := e.(type) {
	case *Project:
		if s, err := n.From.Schema(cat); err == nil && identityProj(n.Columns, s) {
			return n.From, true
		}
		if from, ch := simplifyOnceCat(n.From, cat, opt); ch {
			return &Project{Columns: n.Columns, From: from}, true
		}
	case *Select:
		if from, ch := simplifyOnceCat(n.From, cat, opt); ch {
			return &Select{Pred: n.Pred, From: from}, true
		}
	case *Rename:
		if from, ch := simplifyOnceCat(n.From, cat, opt); ch {
			return &Rename{Pairs: n.Pairs, From: from}, true
		}
	case *Product:
		if l, ch := simplifyOnceCat(n.L, cat, opt); ch {
			return &Product{L: l, R: n.R}, true
		}
		if r, ch := simplifyOnceCat(n.R, cat, opt); ch {
			return &Product{L: n.L, R: r}, true
		}
	case *Join:
		if l, ch := simplifyOnceCat(n.L, cat, opt); ch {
			return &Join{L: l, R: n.R, Pred: n.Pred}, true
		}
		if r, ch := simplifyOnceCat(n.R, cat, opt); ch {
			return &Join{L: n.L, R: r, Pred: n.Pred}, true
		}
	case *NaturalJoin:
		if l, ch := simplifyOnceCat(n.L, cat, opt); ch {
			return &NaturalJoin{L: l, R: n.R}, true
		}
		if r, ch := simplifyOnceCat(n.R, cat, opt); ch {
			return &NaturalJoin{L: n.L, R: r}, true
		}
	case *LeftOuterPad:
		if l, ch := simplifyOnceCat(n.L, cat, opt); ch {
			return &LeftOuterPad{L: l, R: n.R}, true
		}
		if r, ch := simplifyOnceCat(n.R, cat, opt); ch {
			return &LeftOuterPad{L: n.L, R: r}, true
		}
	case *Union:
		if l, ch := simplifyOnceCat(n.L, cat, opt); ch {
			return &Union{L: l, R: n.R}, true
		}
		if r, ch := simplifyOnceCat(n.R, cat, opt); ch {
			return &Union{L: n.L, R: r}, true
		}
	case *Diff:
		if l, ch := simplifyOnceCat(n.L, cat, opt); ch {
			return &Diff{L: l, R: n.R}, true
		}
		if r, ch := simplifyOnceCat(n.R, cat, opt); ch {
			return &Diff{L: n.L, R: r}, true
		}
	case *Intersect:
		if l, ch := simplifyOnceCat(n.L, cat, opt); ch {
			return &Intersect{L: l, R: n.R}, true
		}
		if r, ch := simplifyOnceCat(n.R, cat, opt); ch {
			return &Intersect{L: n.L, R: r}, true
		}
	case *Divide:
		if l, ch := simplifyOnceCat(n.L, cat, opt); ch {
			return &Divide{L: l, R: n.R}, true
		}
		if r, ch := simplifyOnceCat(n.R, cat, opt); ch {
			return &Divide{L: n.L, R: r}, true
		}
	}
	return e, false
}

// DAGSize counts the distinct nodes of an RA expression, following
// shared subexpressions only once. The Figure 6 translation produces
// heavily shared plans (its let-bindings): DAGSize is the right measure
// for the paper's "polynomial size" claim, whereas Size (the tree
// rendering) duplicates shared subtrees.
func DAGSize(e Expr) int {
	seen := map[Expr]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		if e == nil || seen[e] {
			return
		}
		seen[e] = true
		switch n := e.(type) {
		case *Select:
			walk(n.From)
		case *Project:
			walk(n.From)
		case *Rename:
			walk(n.From)
		case *Product:
			walk(n.L)
			walk(n.R)
		case *Join:
			walk(n.L)
			walk(n.R)
		case *NaturalJoin:
			walk(n.L)
			walk(n.R)
		case *LeftOuterPad:
			walk(n.L)
			walk(n.R)
		case *Union:
			walk(n.L)
			walk(n.R)
		case *Diff:
			walk(n.L)
			walk(n.R)
		case *Intersect:
			walk(n.L)
			walk(n.R)
		case *Divide:
			walk(n.L)
			walk(n.R)
		}
	}
	walk(e)
	return len(seen)
}

// Size counts the AST nodes of an RA expression.
func Size(e Expr) int {
	switch n := e.(type) {
	case *Base, *Lit:
		return 1
	case *Select:
		return 1 + Size(n.From)
	case *Project:
		return 1 + Size(n.From)
	case *Rename:
		return 1 + Size(n.From)
	case *Product:
		return 1 + Size(n.L) + Size(n.R)
	case *Join:
		return 1 + Size(n.L) + Size(n.R)
	case *NaturalJoin:
		return 1 + Size(n.L) + Size(n.R)
	case *LeftOuterPad:
		return 1 + Size(n.L) + Size(n.R)
	case *Union:
		return 1 + Size(n.L) + Size(n.R)
	case *Diff:
		return 1 + Size(n.L) + Size(n.R)
	case *Intersect:
		return 1 + Size(n.L) + Size(n.R)
	case *Divide:
		return 1 + Size(n.L) + Size(n.R)
	}
	return 1
}
