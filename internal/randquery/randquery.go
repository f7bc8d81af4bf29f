// Package randquery generates random well-typed World-set Algebra
// queries over a fixed relational schema, for fuzzing the translations,
// the rewrite optimizer and the factorized engine against the Figure 3
// reference semantics.
package randquery

import (
	"fmt"
	"math/rand"
	"strconv"

	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
)

// Numerics are the literals on which numeric equality is easy to get
// wrong: −0.0 against 0, 2^53 ± 1 as Int and as Float (the Float
// nearest 2^53 + 1 is 2^53), and a float past every int64.
var Numerics = []string{"-0.0", "9007199254740991", "9007199254740991.0",
	"9007199254740993", "9007199254740993.0", "1180591620717411303424.0"}

// literal draws a comparison constant's text: mostly from the integer
// domain [0, domain), now and then one of Numerics.
func literal(rng *rand.Rand, domain int) string {
	if rng.Intn(8) == 0 {
		return Numerics[rng.Intn(len(Numerics))]
	}
	return strconv.Itoa(rng.Intn(domain))
}

// QueryGen generates random well-typed World-set Algebra queries over a
// fixed relational schema, for fuzzing the translations and the rewrite
// optimizer against the reference semantics.
type QueryGen struct {
	rng     *rand.Rand
	names   []string
	schemas []relation.Schema
	// Domain is the integer constant domain used in selections; it
	// should match the data generator's domain so selections are
	// selective but not always empty.
	Domain int
	// fresh numbers generated rename targets.
	fresh int
}

// NewQueryGen builds a generator over the given schema.
func NewQueryGen(rng *rand.Rand, names []string, schemas []relation.Schema) *QueryGen {
	return &QueryGen{rng: rng, names: names, schemas: schemas, Domain: 3}
}

// Query generates a random query with the given depth budget. The
// result is always well-typed with respect to the generator's schema.
func (g *QueryGen) Query(depth int) wsa.Expr {
	q, _ := g.gen(depth)
	return q
}

// gen returns a query and its output schema.
func (g *QueryGen) gen(depth int) (wsa.Expr, relation.Schema) {
	if depth <= 0 {
		i := g.rng.Intn(len(g.names))
		return &wsa.Rel{Name: g.names[i]}, g.schemas[i]
	}
	switch g.rng.Intn(10) {
	case 0: // σ
		sub, s := g.gen(depth - 1)
		return &wsa.Select{Pred: g.pred(s), From: sub}, s

	case 1: // π onto a random non-empty prefix-free subset
		sub, s := g.gen(depth - 1)
		cols := g.subset(s)
		return &wsa.Project{Columns: cols, From: sub}, relation.NewSchema(cols...)

	case 2: // δ of one attribute
		sub, s := g.gen(depth - 1)
		i := g.rng.Intn(len(s))
		g.fresh++
		to := fmt.Sprintf("r%d", g.fresh)
		out := s.Clone()
		out[i] = to
		return &wsa.Rename{Pairs: []ra.RenamePair{{From: s[i], To: to}}, From: sub}, out

	case 3: // χ
		sub, s := g.gen(depth - 1)
		return &wsa.Choice{Attrs: g.subset(s), From: sub}, s

	case 4: // poss / cert
		sub, s := g.gen(depth - 1)
		if g.rng.Intn(2) == 0 {
			return wsa.NewPoss(sub), s
		}
		return wsa.NewCert(sub), s

	case 5: // pγ / cγ
		sub, s := g.gen(depth - 1)
		group := g.subset(s)
		proj := g.subset(s)
		out := relation.NewSchema(proj...)
		if g.rng.Intn(2) == 0 {
			return wsa.NewPossGroup(group, proj, sub), out
		}
		return wsa.NewCertGroup(group, proj, sub), out

	case 6: // product with disjoint renaming of the right side
		l, ls := g.gen(depth - 1)
		r, rs := g.gen(depth - 1)
		pairs := make([]ra.RenamePair, len(rs))
		out := ls.Clone()
		rr := rs.Clone()
		for i, a := range rs {
			g.fresh++
			rr[i] = fmt.Sprintf("p%d", g.fresh)
			pairs[i] = ra.RenamePair{From: a, To: rr[i]}
			out = append(out, rr[i])
		}
		return wsa.NewProduct(l, &wsa.Rename{Pairs: pairs, From: r}), out

	case 7, 8: // set operations on aligned single columns
		l, ls := g.gen(depth - 1)
		r, rs := g.gen(depth - 1)
		lc, rc := ls[g.rng.Intn(len(ls))], rs[g.rng.Intn(len(rs))]
		lp := &wsa.Project{Columns: []string{lc}, From: l}
		var rp wsa.Expr = &wsa.Project{Columns: []string{rc}, From: r}
		if rc != lc {
			rp = &wsa.Rename{Pairs: []ra.RenamePair{{From: rc, To: lc}}, From: rp}
		}
		out := relation.NewSchema(lc)
		switch g.rng.Intn(3) {
		case 0:
			return wsa.NewUnion(lp, rp), out
		case 1:
			return wsa.NewIntersect(lp, rp), out
		default:
			return wsa.NewDiff(lp, rp), out
		}

	default: // join on a comparison between two sides
		l, ls := g.gen(depth - 1)
		r, rs := g.gen(depth - 1)
		pairs := make([]ra.RenamePair, len(rs))
		rr := rs.Clone()
		out := ls.Clone()
		for i, a := range rs {
			g.fresh++
			rr[i] = fmt.Sprintf("j%d", g.fresh)
			pairs[i] = ra.RenamePair{From: a, To: rr[i]}
			out = append(out, rr[i])
		}
		pred := ra.Eq(ls[g.rng.Intn(len(ls))], rr[g.rng.Intn(len(rr))])
		return &wsa.Join{L: l, R: &wsa.Rename{Pairs: pairs, From: r}, Pred: pred}, out
	}
}

// subset draws a random non-empty subset of the schema, in order.
func (g *QueryGen) subset(s relation.Schema) []string {
	var out []string
	for _, a := range s {
		if g.rng.Intn(2) == 0 {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		out = append(out, s[g.rng.Intn(len(s))])
	}
	return out
}

// pred draws a random comparison over the schema.
func (g *QueryGen) pred(s relation.Schema) ra.Pred {
	a := s[g.rng.Intn(len(s))]
	ops := []ra.CmpOp{ra.OpEq, ra.OpNe, ra.OpLt, ra.OpGe}
	op := ops[g.rng.Intn(len(ops))]
	if g.rng.Intn(3) == 0 && len(s) > 1 {
		b := s[g.rng.Intn(len(s))]
		return ra.Cmp{Left: ra.Col(a), Op: op, Right: ra.Col(b)}
	}
	c := value.Parse(literal(g.rng, g.Domain))
	return ra.Cmp{Left: ra.Col(a), Op: op, Right: ra.Const(c)}
}
