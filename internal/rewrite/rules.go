// Package rewrite implements the algebraic equivalences of Figure 7
// (equations (1)–(23)), equation (24), and a small set of engineering
// rules (join fusion, projection collapsing) as directed rewrite rules,
// together with a cost-based best-first optimizer that reproduces the
// q1 → q1′ and q2 → q2′ rewrites of Figures 8 and 9.
//
// Every equivalence used by the optimizer is property-tested against the
// Figure 3 reference semantics in equivalences_test.go before the
// optimizer is allowed to rely on it.
package rewrite

import (
	"sort"

	"worldsetdb/internal/ra"
	"worldsetdb/internal/wsa"
)

// Context supplies the schema environment rules need to check their side
// conditions (e.g. X ⊆ Attrs(q1) in equation (8)).
type Context struct {
	Env *wsa.Env
}

// Rule is a directed rewrite l → r applicable at the root of an
// expression. Apply returns the rewritten expressions (usually zero or
// one) when the rule matches.
//
// Rules marked CompleteOnly are only sound when the query's input is a
// singleton world-set (a complete database): the group-worlds-by and
// choice-of absorption rules of Figure 7 merge worlds by the value of
// their answer projection, which on multi-world inputs can group worlds
// that descend from different input worlds. The paper's rewriting
// examples (Figures 8 and 9) all start from complete databases, where
// these rules are exact; our property tests record counterexamples for
// the unrestricted forms (TestPaperFormCounterexamples).
type Rule struct {
	// ID is the paper's equation number, e.g. "(11)", or an engineering
	// rule tag like "(join)".
	ID string
	// Name describes the rewrite.
	Name string
	// CompleteOnly marks rules sound only for singleton input world-sets.
	CompleteOnly bool
	Apply        func(ctx *Context, q wsa.Expr) []wsa.Expr
}

// attrset helpers ------------------------------------------------------

func asSet(attrs []string) map[string]bool {
	m := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		m[a] = true
	}
	return m
}

func subset(a, b []string) bool {
	bs := asSet(b)
	for _, x := range a {
		if !bs[x] {
			return false
		}
	}
	return true
}

func unionAttrs(a, b []string) []string {
	seen := asSet(a)
	out := append([]string{}, a...)
	for _, x := range b {
		if !seen[x] {
			out = append(out, x)
			seen[x] = true
		}
	}
	sort.Strings(out)
	return out
}

func sameSet(a, b []string) bool { return subset(a, b) && subset(b, a) }

// schemaAttrs returns the output attributes of q, or nil if q does not
// typecheck in ctx (in which case rules relying on it do not fire).
func schemaAttrs(ctx *Context, q wsa.Expr) []string {
	s, err := q.Schema(ctx.Env)
	if err != nil {
		return nil
	}
	return s
}

// groupProj resolves a Group's projection list ("*" = all attributes of
// the input).
func groupProj(ctx *Context, g *wsa.Group) []string {
	if g.Proj != nil {
		return g.Proj
	}
	in, err := g.From.Schema(ctx.Env)
	if err != nil {
		return nil
	}
	return in
}

// Rules returns the directed rule set used by the optimizer.
func Rules() []Rule {
	return []Rule{
		// ---- Commute rules (push poss/cert down) ----
		{ID: "(1)", Name: "poss(σ(q)) → σ(poss(q))", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok && c.Kind == wsa.ClosePoss {
				if s, ok := c.From.(*wsa.Select); ok {
					return []wsa.Expr{&wsa.Select{Pred: s.Pred, From: wsa.NewPoss(s.From)}}
				}
			}
			return nil
		}},
		{ID: "(2)", Name: "poss(π(q)) → π(poss(q))", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok && c.Kind == wsa.ClosePoss {
				if p, ok := c.From.(*wsa.Project); ok {
					return []wsa.Expr{&wsa.Project{Columns: p.Columns, From: wsa.NewPoss(p.From)}}
				}
			}
			return nil
		}},
		{ID: "(3)", Name: "poss(q1 ∪ q2) → poss(q1) ∪ poss(q2)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok && c.Kind == wsa.ClosePoss {
				if b, ok := c.From.(*wsa.BinOp); ok && b.Kind == wsa.OpUnion {
					return []wsa.Expr{wsa.NewUnion(wsa.NewPoss(b.L), wsa.NewPoss(b.R))}
				}
			}
			return nil
		}},
		{ID: "(3r)", Name: "poss(q1) ∪ poss(q2) → poss(q1 ∪ q2)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if b, ok := q.(*wsa.BinOp); ok && b.Kind == wsa.OpUnion {
				l, lok := b.L.(*wsa.Close)
				r, rok := b.R.(*wsa.Close)
				if lok && rok && l.Kind == wsa.ClosePoss && r.Kind == wsa.ClosePoss {
					return []wsa.Expr{wsa.NewPoss(wsa.NewUnion(l.From, r.From))}
				}
			}
			return nil
		}},
		{ID: "(1r)", Name: "σ(poss(q)) → poss(σ(q))", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if s, ok := q.(*wsa.Select); ok {
				if c, ok := s.From.(*wsa.Close); ok && c.Kind == wsa.ClosePoss {
					return []wsa.Expr{wsa.NewPoss(&wsa.Select{Pred: s.Pred, From: c.From})}
				}
			}
			return nil
		}},
		{ID: "(2r)", Name: "π(poss(q)) → poss(π(q))", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if p, ok := q.(*wsa.Project); ok {
				if c, ok := p.From.(*wsa.Close); ok && c.Kind == wsa.ClosePoss {
					return []wsa.Expr{wsa.NewPoss(&wsa.Project{Columns: p.Columns, From: c.From})}
				}
			}
			return nil
		}},
		{ID: "(4r)", Name: "σ(cert(q)) → cert(σ(q))", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if s, ok := q.(*wsa.Select); ok {
				if c, ok := s.From.(*wsa.Close); ok && c.Kind == wsa.CloseCert {
					return []wsa.Expr{wsa.NewCert(&wsa.Select{Pred: s.Pred, From: c.From})}
				}
			}
			return nil
		}},
		{ID: "(4)", Name: "cert(σ(q)) → σ(cert(q))", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok && c.Kind == wsa.CloseCert {
				if s, ok := c.From.(*wsa.Select); ok {
					return []wsa.Expr{&wsa.Select{Pred: s.Pred, From: wsa.NewCert(s.From)}}
				}
			}
			return nil
		}},
		{ID: "(5)", Name: "cert(q1 ∩ q2) → cert(q1) ∩ cert(q2)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok && c.Kind == wsa.CloseCert {
				if b, ok := c.From.(*wsa.BinOp); ok && b.Kind == wsa.OpIntersect {
					return []wsa.Expr{wsa.NewIntersect(wsa.NewCert(b.L), wsa.NewCert(b.R))}
				}
			}
			return nil
		}},
		{ID: "(6)", Name: "cert(q1 × q2) → cert(q1) × cert(q2)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok && c.Kind == wsa.CloseCert {
				if b, ok := c.From.(*wsa.BinOp); ok && b.Kind == wsa.OpProduct {
					return []wsa.Expr{wsa.NewProduct(wsa.NewCert(b.L), wsa.NewCert(b.R))}
				}
			}
			return nil
		}},
		{ID: "(7a)", Name: "π_{X∪Y}(χ_X(q)) → χ_X(π_{X∪Y}(q))", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if p, ok := q.(*wsa.Project); ok {
				if x, ok := p.From.(*wsa.Choice); ok && subset(x.Attrs, p.Columns) {
					return []wsa.Expr{&wsa.Choice{Attrs: x.Attrs, From: &wsa.Project{Columns: p.Columns, From: x.From}}}
				}
			}
			return nil
		}},
		{ID: "(7b)", Name: "χ_X(π_{X∪Y}(q)) → π_{X∪Y}(χ_X(q))", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if x, ok := q.(*wsa.Choice); ok {
				if p, ok := x.From.(*wsa.Project); ok && subset(x.Attrs, p.Columns) {
					return []wsa.Expr{&wsa.Project{Columns: p.Columns, From: &wsa.Choice{Attrs: x.Attrs, From: p.From}}}
				}
			}
			return nil
		}},
		{ID: "(8a)", Name: "χ_X(q1 × q2) → χ_X(q1) × q2, X ⊆ Attrs(q1)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if x, ok := q.(*wsa.Choice); ok {
				if b, ok := x.From.(*wsa.BinOp); ok && b.Kind == wsa.OpProduct {
					if la := schemaAttrs(ctx, b.L); la != nil && subset(x.Attrs, la) {
						return []wsa.Expr{wsa.NewProduct(&wsa.Choice{Attrs: x.Attrs, From: b.L}, b.R)}
					}
				}
			}
			return nil
		}},
		{ID: "(8b)", Name: "χ_X(q1) × q2 → χ_X(q1 × q2)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if b, ok := q.(*wsa.BinOp); ok && b.Kind == wsa.OpProduct {
				if x, ok := b.L.(*wsa.Choice); ok {
					return []wsa.Expr{&wsa.Choice{Attrs: x.Attrs, From: wsa.NewProduct(x.From, b.R)}}
				}
			}
			return nil
		}},
		// (9) and (10) additionally require Y ⊆ X: without it the
		// selection changes which worlds group together (see the
		// counterexample in equivalences_test.go).
		{ID: "(9)", Name: "σ_φ(pγ^Y_X(q)) → pγ^Y_X(σ_φ(q)), Attrs(φ) ⊆ X∩Y, Y ⊆ X", Apply: commuteSelGamma(wsa.GroupPoss)},
		{ID: "(10)", Name: "σ_φ(cγ^Y_X(q)) → cγ^Y_X(σ_φ(q)), Attrs(φ) ⊆ X∩Y, Y ⊆ X", Apply: commuteSelGamma(wsa.GroupCert)},

		// ---- Reduce rules ----
		{ID: "(11)", Name: "poss(χ_X(q)) → poss(q)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok && c.Kind == wsa.ClosePoss {
				if x, ok := c.From.(*wsa.Choice); ok {
					return []wsa.Expr{wsa.NewPoss(x.From)}
				}
			}
			return nil
		}},
		{ID: "(12)", Name: "γ^X_{X∪Y}(q) → π_X(q), proj ⊆ group", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if g, ok := q.(*wsa.Group); ok {
				proj := groupProj(ctx, g)
				if proj != nil && subset(proj, g.GroupBy) {
					return []wsa.Expr{&wsa.Project{Columns: proj, From: g.From}}
				}
			}
			return nil
		}},
		{ID: "(13)", Name: "π_Z(pγ^{Y∪Z}_{X∪Z}(q)) → π_Z(q)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if p, ok := q.(*wsa.Project); ok {
				if g, ok := p.From.(*wsa.Group); ok && g.Kind == wsa.GroupPoss {
					proj := groupProj(ctx, g)
					if proj != nil && subset(p.Columns, proj) && subset(p.Columns, g.GroupBy) {
						return []wsa.Expr{&wsa.Project{Columns: p.Columns, From: g.From}}
					}
				}
			}
			return nil
		}},
		{ID: "(14)", Name: "π_Z(pγ^{Y∪Z}_X(q)) → pγ^Z_X(q)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if p, ok := q.(*wsa.Project); ok {
				if g, ok := p.From.(*wsa.Group); ok && g.Kind == wsa.GroupPoss {
					proj := groupProj(ctx, g)
					if proj != nil && subset(p.Columns, proj) {
						return []wsa.Expr{wsa.NewPossGroup(g.GroupBy, p.Columns, g.From)}
					}
				}
			}
			return nil
		}},
		{ID: "(15)", Name: "poss(pγ^Y_X(q)) → poss(π_Y(q))", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok && c.Kind == wsa.ClosePoss {
				if g, ok := c.From.(*wsa.Group); ok && g.Kind == wsa.GroupPoss {
					proj := groupProj(ctx, g)
					if proj != nil {
						return []wsa.Expr{wsa.NewPoss(&wsa.Project{Columns: proj, From: g.From})}
					}
				}
			}
			return nil
		}},
		{ID: "(16)", Name: "cert(cγ^Y_X(q)) → cert(π_Y(q))", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok && c.Kind == wsa.CloseCert {
				if g, ok := c.From.(*wsa.Group); ok && g.Kind == wsa.GroupCert {
					proj := groupProj(ctx, g)
					if proj != nil {
						return []wsa.Expr{wsa.NewCert(&wsa.Project{Columns: proj, From: g.From})}
					}
				}
			}
			return nil
		}},
		{ID: "(17)", Name: "χ_X(χ_Y(q)) → χ_{X∪Y}(q)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if x, ok := q.(*wsa.Choice); ok {
				if y, ok := x.From.(*wsa.Choice); ok {
					return []wsa.Expr{&wsa.Choice{Attrs: unionAttrs(x.Attrs, y.Attrs), From: y.From}}
				}
			}
			return nil
		}},
		// (18) is restricted to equal grouping attributes (X = G): with
		// X ⊊ G the outer operator merges distinct inner groups and the
		// equation fails (counterexample in equivalences_test.go). The
		// inner-cγ variant (19) fails even then and is omitted.
		{ID: "(18)", Name: "γ^Y_X(pγ^P_X(q)) → pγ^Y_X(q)", Apply: collapseGamma(wsa.GroupPoss)},
		{ID: "(20)", Name: "pγ^Y_X(χ_{X∪Z}(q)) → π_Y(χ_X(q))", CompleteOnly: true, Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if g, ok := q.(*wsa.Group); ok && g.Kind == wsa.GroupPoss {
				if x, ok := g.From.(*wsa.Choice); ok && subset(g.GroupBy, x.Attrs) {
					proj := groupProj(ctx, g)
					if proj != nil {
						return []wsa.Expr{&wsa.Project{Columns: proj,
							From: &wsa.Choice{Attrs: g.GroupBy, From: x.From}}}
					}
				}
			}
			return nil
		}},
		// (21) is restricted to χ on exactly the grouping attributes:
		// then every group is a singleton and cγ degenerates to a
		// projection. The paper's broader form χ_{X∪Y∪Z} fails because
		// choice worlds sharing an X-value but differing on Y intersect
		// to the empty relation (counterexample in equivalences_test.go).
		{ID: "(21)", Name: "cγ^Y_X(χ_X(q)) → π_Y(χ_X(q))", CompleteOnly: true, Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if g, ok := q.(*wsa.Group); ok && g.Kind == wsa.GroupCert {
				if x, ok := g.From.(*wsa.Choice); ok && sameSet(g.GroupBy, x.Attrs) {
					proj := groupProj(ctx, g)
					if proj != nil {
						return []wsa.Expr{&wsa.Project{Columns: proj, From: x}}
					}
				}
			}
			return nil
		}},
		{ID: "(22/23)", Name: "close(close(q)) → inner close", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok {
				if inner, ok := c.From.(*wsa.Close); ok {
					return []wsa.Expr{inner}
				}
			}
			return nil
		}},
		{ID: "(24r)", Name: "cert(cert(R) − S) → cert(R − S)", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if c, ok := q.(*wsa.Close); ok && c.Kind == wsa.CloseCert {
				if d, ok := c.From.(*wsa.BinOp); ok && d.Kind == wsa.OpDiff {
					if lc, ok := d.L.(*wsa.Close); ok && lc.Kind == wsa.CloseCert {
						return []wsa.Expr{wsa.NewCert(wsa.NewDiff(lc.From, d.R))}
					}
				}
			}
			return nil
		}},

		// ---- Engineering rules ----
		{ID: "(join)", Name: "σ_φ(q1 × q2) → q1 ⋈_φ q2", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if s, ok := q.(*wsa.Select); ok {
				if b, ok := s.From.(*wsa.BinOp); ok && b.Kind == wsa.OpProduct {
					return []wsa.Expr{&wsa.Join{L: b.L, R: b.R, Pred: s.Pred}}
				}
			}
			return nil
		}},
		{ID: "(joinm)", Name: "σ_φ(q1 ⋈_ψ q2) → q1 ⋈_{φ∧ψ} q2", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if s, ok := q.(*wsa.Select); ok {
				if j, ok := s.From.(*wsa.Join); ok {
					return []wsa.Expr{&wsa.Join{L: j.L, R: j.R, Pred: ra.And{L: j.Pred, R: s.Pred}}}
				}
			}
			return nil
		}},
		{ID: "(πid)", Name: "π_identity(q) → q", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if p, ok := q.(*wsa.Project); ok {
				in := schemaAttrs(ctx, p.From)
				if in != nil && len(in) == len(p.Columns) {
					same := true
					for i := range in {
						if in[i] != p.Columns[i] {
							same = false
							break
						}
					}
					if same {
						return []wsa.Expr{p.From}
					}
				}
			}
			return nil
		}},
		{ID: "(ππ)", Name: "π_X(π_Y(q)) → π_X(q), X ⊆ Y", Apply: func(ctx *Context, q wsa.Expr) []wsa.Expr {
			if p, ok := q.(*wsa.Project); ok {
				if p2, ok := p.From.(*wsa.Project); ok && subset(p.Columns, p2.Columns) {
					return []wsa.Expr{&wsa.Project{Columns: p.Columns, From: p2.From}}
				}
			}
			return nil
		}},
	}
}

// commuteSelGamma builds equations (9) and (10): σ commutes with
// group-worlds-by when the selection only touches attributes that are
// both grouped and projected.
func commuteSelGamma(kind wsa.GroupKind) func(ctx *Context, q wsa.Expr) []wsa.Expr {
	return func(ctx *Context, q wsa.Expr) []wsa.Expr {
		s, ok := q.(*wsa.Select)
		if !ok {
			return nil
		}
		g, ok := s.From.(*wsa.Group)
		if !ok || g.Kind != kind {
			return nil
		}
		proj := groupProj(ctx, g)
		if proj == nil {
			return nil
		}
		cols := s.Pred.Columns(nil)
		if !subset(cols, g.GroupBy) || !subset(cols, proj) || !subset(proj, g.GroupBy) {
			return nil
		}
		return []wsa.Expr{&wsa.Group{Kind: kind, GroupBy: g.GroupBy, Proj: g.Proj,
			From: &wsa.Select{Pred: s.Pred, From: g.From}}}
	}
}

// collapseGamma builds the sound restriction of equation (18): nested
// group-worlds-by collapses when the outer and inner grouping attributes
// coincide as sets (then the outer operator induces exactly the inner
// partition, and the aggregated answers within a group are identical, so
// both the pγ and cγ outer variants reduce).
func collapseGamma(innerKind wsa.GroupKind) func(ctx *Context, q wsa.Expr) []wsa.Expr {
	return func(ctx *Context, q wsa.Expr) []wsa.Expr {
		outer, ok := q.(*wsa.Group)
		if !ok {
			return nil
		}
		inner, ok := outer.From.(*wsa.Group)
		if !ok || inner.Kind != innerKind {
			return nil
		}
		innerProj := groupProj(ctx, inner)
		if innerProj == nil {
			return nil
		}
		outerProj := groupProj(ctx, outer)
		if outerProj == nil {
			return nil
		}
		if !sameSet(outer.GroupBy, inner.GroupBy) ||
			!subset(outer.GroupBy, innerProj) || !subset(outerProj, innerProj) {
			return nil
		}
		return []wsa.Expr{&wsa.Group{Kind: innerKind, GroupBy: inner.GroupBy,
			Proj: outerProj, From: inner.From}}
	}
}
