// Package translate implements §5 of the paper: the translation of
// World-set Algebra queries into relational algebra queries over inlined
// representations (Figure 6), the conservativity result for 1↦1 queries
// (Theorem 5.7), and the optimized translation for complete-to-complete
// queries (§5.3).
//
// The translator is symbolic: it produces ra.Expr trees for every table
// of the output representation, so the equivalent relational algebra
// query can be printed, simplified and evaluated on any ra.DB.
//
// One deliberate deviation from the paper: the world-pairing relation S
// of Figure 6 is symmetrized before complementation (the printed
// version mis-groups worlds whose grouping projection is a strict
// subset of another's); property tests against the Figure 3 semantics
// validate the fix.
package translate

import (
	"fmt"
	"strings"

	"worldsetdb/internal/inline"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsa"
)

// Sym is a symbolic inlined representation: one relational algebra
// expression per table of Definition 5.1, plus the expression for the
// answer table R_{k+1}.
type Sym struct {
	// Names are the represented relation names R1, …, Rk.
	Names []string
	// Tables are the expressions computing R1^T, …, Rk^T.
	Tables []ra.Expr
	// Result computes the answer table (nil before any translation).
	Result ra.Expr
	// World computes the world table W.
	World ra.Expr
}

func (s *Sym) clone() *Sym {
	return &Sym{
		Names:  s.Names,
		Tables: append([]ra.Expr{}, s.Tables...),
		Result: s.Result,
		World:  s.World,
	}
}

// Translator translates WSA queries to RA expressions over a catalog
// that resolves the base tables.
type Translator struct {
	cat   ra.Catalog
	fresh int
}

// NewTranslator returns a translator resolving base-table schemas
// against cat.
func NewTranslator(cat ra.Catalog) *Translator { return &Translator{cat: cat} }

// freshID generates a new world-id attribute name derived from base.
func (tr *Translator) freshID(base string) string {
	tr.fresh++
	base = strings.TrimPrefix(base, relation.IDPrefix)
	base = strings.Map(func(r rune) rune {
		if r == '.' || r == ' ' {
			return '_'
		}
		return r
	}, base)
	return fmt.Sprintf("%sv%d_%s", relation.IDPrefix, tr.fresh, base)
}

// freshVal generates a new value attribute name (used for the primed
// copies A′, B′ of the group-worlds-by construction).
func (tr *Translator) freshVal(base string) string {
	tr.fresh++
	return fmt.Sprintf("%s$%d", base, tr.fresh)
}

func (tr *Translator) schemaOf(e ra.Expr) (relation.Schema, error) { return e.Schema(tr.cat) }

// InitComplete builds the starting representation for a complete
// database (Example 5.6, step 1): the base tables carry no id attributes
// and the world table is the nullary relation {⟨⟩}.
func InitComplete(names []string) *Sym {
	tables := make([]ra.Expr, len(names))
	for i, n := range names {
		tables[i] = &ra.Base{Name: n}
	}
	return &Sym{Names: append([]string{}, names...), Tables: tables, World: ra.Nullary()}
}

// InitInlined builds the starting representation for an already-inlined
// world-set: base tables carry the Encode id attribute and the world
// table is the base table named inline.WorldTableName.
func InitInlined(names []string) *Sym {
	tables := make([]ra.Expr, len(names))
	for i, n := range names {
		tables[i] = &ra.Base{Name: n}
	}
	return &Sym{
		Names:  append([]string{}, names...),
		Tables: tables,
		World:  &ra.Base{Name: inline.WorldTableName},
	}
}

// Translate implements the translation function ⟦·⟧τ of Figure 6,
// mapping a WSA query and a symbolic representation to the symbolic
// representation extended with the answer table.
func (tr *Translator) Translate(q wsa.Expr, t *Sym) (*Sym, error) {
	switch n := q.(type) {
	case *wsa.Rel:
		for i, name := range t.Names {
			if name == n.Name {
				out := t.clone()
				out.Result = t.Tables[i]
				return out, nil
			}
		}
		return nil, fmt.Errorf("translate: unknown relation %q", n.Name)

	case *wsa.Select:
		sub, err := tr.Translate(n.From, t)
		if err != nil {
			return nil, err
		}
		sub.Result = &ra.Select{Pred: n.Pred, From: sub.Result}
		return sub, nil

	case *wsa.Project:
		sub, err := tr.Translate(n.From, t)
		if err != nil {
			return nil, err
		}
		s, err := tr.schemaOf(sub.Result)
		if err != nil {
			return nil, err
		}
		// π_{A}(q) keeps the id attributes V of the answer table.
		cols := append(append([]string{}, n.Columns...), s.IDAttrs()...)
		sub.Result = ra.ProjectNames(sub.Result, cols...)
		return sub, nil

	case *wsa.Rename:
		sub, err := tr.Translate(n.From, t)
		if err != nil {
			return nil, err
		}
		sub.Result = &ra.Rename{Pairs: n.Pairs, From: sub.Result}
		return sub, nil

	case *wsa.Choice:
		return tr.translateChoice(n, t)

	case *wsa.Close:
		return tr.translateClose(n, t)

	case *wsa.Group:
		return tr.translateGroup(n, t)

	case *wsa.BinOp:
		return tr.translateBinary(n.Kind, n.L, n.R, t)

	case *wsa.Join:
		// q1 ⋈_φ q2 abbreviates σ_φ(q1 × q2).
		sub, err := tr.translateBinary(wsa.OpProduct, n.L, n.R, t)
		if err != nil {
			return nil, err
		}
		sub.Result = &ra.Select{Pred: n.Pred, From: sub.Result}
		return sub, nil

	case *wsa.RepairKey:
		return nil, fmt.Errorf("translate: repair-by-key has no relational algebra equivalent (Proposition 4.2: NP-hard)")
	}
	return nil, fmt.Errorf("translate: unknown operator %T", q)
}

// translateChoice implements ⟦χ_B(q)⟧τ: the answer table is extended
// with copies of the B attributes as new id attributes V_B, the world
// table is updated with the padded left outer join of Remark 5.5 (so
// worlds whose answer is empty survive under the pad id c), and every
// other table is copied into the new worlds.
func (tr *Translator) translateChoice(n *wsa.Choice, t *Sym) (*Sym, error) {
	sub, err := tr.Translate(n.From, t)
	if err != nil {
		return nil, err
	}
	r := sub.Result
	s, err := tr.schemaOf(r)
	if err != nil {
		return nil, err
	}
	d, v := s.ValueAttrs(), s.IDAttrs()
	vb := make([]string, len(n.Attrs))
	for i, b := range n.Attrs {
		if !contains(d, b) {
			return nil, fmt.Errorf("translate: choice attribute %q not a value attribute of %v", b, s)
		}
		vb[i] = tr.freshID(b)
	}
	// X = δ_{B→V_B}(π_{V,B}(R)); W′ = W =⊲⊳ X.
	pairs := make([]ra.RenamePair, len(n.Attrs))
	for i := range n.Attrs {
		pairs[i] = ra.RenamePair{From: n.Attrs[i], To: vb[i]}
	}
	x := &ra.Rename{Pairs: pairs,
		From: ra.ProjectNames(r, append(append([]string{}, v...), n.Attrs...)...)}
	wp := &ra.LeftOuterPad{L: sub.World, R: x}

	out := sub.clone()
	out.World = wp
	for i := range out.Tables {
		out.Tables[i] = &ra.NaturalJoin{L: out.Tables[i], R: wp}
	}
	// R′ = π_{D, V, B as V_B}(R).
	cols := ra.Cols(append(append([]string{}, d...), v...)...)
	for i := range n.Attrs {
		cols = ra.ColsAs(cols, n.Attrs[i], vb[i])
	}
	out.Result = &ra.Project{Columns: cols, From: r}
	return out, nil
}

// translateClose implements ⟦poss(q)⟧τ and ⟦cert(q)⟧τ: poss drops the id
// attributes and copies the union into every world; cert divides by the
// world table.
func (tr *Translator) translateClose(n *wsa.Close, t *Sym) (*Sym, error) {
	sub, err := tr.Translate(n.From, t)
	if err != nil {
		return nil, err
	}
	s, err := tr.schemaOf(sub.Result)
	if err != nil {
		return nil, err
	}
	d := s.ValueAttrs()
	if n.Kind == wsa.ClosePoss {
		sub.Result = &ra.Product{L: ra.ProjectNames(sub.Result, d...), R: sub.World}
		return sub, nil
	}
	sub.Result = &ra.Product{L: &ra.Divide{L: sub.Result, R: sub.World}, R: sub.World}
	return sub, nil
}

// translateGroup implements ⟦pγ^B_A(q)⟧τ and ⟦cγ^B_A(q)⟧τ via the
// world-pairing construction of Figure 6 (with the symmetrization fix).
func (tr *Translator) translateGroup(n *wsa.Group, t *Sym) (*Sym, error) {
	sub, err := tr.Translate(n.From, t)
	if err != nil {
		return nil, err
	}
	return tr.groupOnResult(n, sub)
}

// groupOnResult runs the Figure 6 group-worlds-by construction on a
// representation whose Result is already computed. It only reads the
// answer table, which is what makes it reusable by the optimized
// translation.
func (tr *Translator) groupOnResult(n *wsa.Group, sub *Sym) (*Sym, error) {
	r := sub.Result
	s, err := tr.schemaOf(r)
	if err != nil {
		return nil, err
	}
	d, v := s.ValueAttrs(), s.IDAttrs()
	a := n.GroupBy
	b := n.ProjOrAll(d)

	// Fresh group-id attributes V2, one per id attribute.
	v2 := make([]string, len(v))
	renVtoV2 := make([]ra.RenamePair, len(v))
	swap := make([]ra.RenamePair, 0, 2*len(v))
	for i, vi := range v {
		v2[i] = tr.freshID(vi)
		renVtoV2[i] = ra.RenamePair{From: vi, To: v2[i]}
		swap = append(swap,
			ra.RenamePair{From: vi, To: v2[i]},
			ra.RenamePair{From: v2[i], To: vi})
	}

	piAV := ra.ProjectNames(r, append(append([]string{}, a...), v...)...)
	piV := ra.ProjectNames(r, v...)
	piV2 := &ra.Rename{Pairs: renVtoV2, From: piV}

	// All candidate (A, V, V2) combinations with A drawn from world V.
	allP := &ra.Product{L: piAV, R: piV2}

	// Matched: (a, w1, w2) with a ∈ w1 and a ∈ w2.
	aPrime := make([]string, len(a))
	renA := make([]ra.RenamePair, 0, len(a)+len(v))
	var eqA ra.Pred = ra.True{}
	for i, ai := range a {
		aPrime[i] = tr.freshVal(ai)
		renA = append(renA, ra.RenamePair{From: ai, To: aPrime[i]})
		eqA = ra.Conj(eqA, ra.Eq(ai, aPrime[i]))
	}
	renA = append(renA, renVtoV2...)
	matched := ra.ProjectNames(
		&ra.Join{L: piAV, R: &ra.Rename{Pairs: renA, From: piAV}, Pred: eqA},
		append(append(append([]string{}, a...), v...), v2...)...)

	// S: ordered pairs of worlds whose A-projections differ (in either
	// direction, after symmetrization).
	sDiff := ra.ProjectNames(&ra.Diff{L: allP, R: matched}, append(append([]string{}, v...), v2...)...)
	sSym := &ra.Union{
		L: sDiff,
		R: ra.ProjectNames(&ra.Rename{Pairs: swap, From: sDiff},
			append(append([]string{}, v...), v2...)...),
	}

	// S′: the equivalence relation "same group" over non-empty worlds.
	u0 := &ra.Product{L: piV, R: piV2}
	sPrime := &ra.Diff{L: u0, R: sSym}

	// R′: every answer tuple paired with every group id of its world.
	bv := append(append([]string{}, b...), v...)
	rp := ra.ProjectNames(&ra.NaturalJoin{L: r, R: sPrime}, append(bv, v2...)...)

	out := sub.clone()
	if n.Kind == wsa.GroupPoss {
		// Union within each group: keep (B, group id), rename V2→V.
		backPairs := make([]ra.RenamePair, len(v))
		for i := range v {
			backPairs[i] = ra.RenamePair{From: v2[i], To: v[i]}
		}
		out.Result = &ra.Rename{Pairs: backPairs,
			From: ra.ProjectNames(rp, append(append([]string{}, b...), v2...)...)}
		return out, nil
	}

	// cγ: certain within each group. U1 pairs each (b, w1, g) with every
	// member w″ of group g; Present keeps those with b ∈ w″; tuples with
	// any missing member are subtracted.
	v3 := make([]string, len(v))
	renVtoV3 := make([]ra.RenamePair, len(v))
	for i, vi := range v {
		v3[i] = tr.freshID(vi)
		renVtoV3[i] = ra.RenamePair{From: vi, To: v3[i]}
	}
	gm := &ra.Rename{Pairs: renVtoV3, From: sPrime} // (V3 member, V2 group)
	u1 := ra.ProjectNames(&ra.NaturalJoin{L: rp, R: gm},
		append(append(append(append([]string{}, b...), v...), v2...), v3...)...)

	bPrime := make([]string, len(b))
	renB := make([]ra.RenamePair, 0, len(b)+len(v))
	var onPred ra.Pred = ra.True{}
	for i, bi := range b {
		bPrime[i] = tr.freshVal(bi)
		renB = append(renB, ra.RenamePair{From: bi, To: bPrime[i]})
		onPred = ra.Conj(onPred, ra.Eq(bi, bPrime[i]))
	}
	v4 := make([]string, len(v))
	for i, vi := range v {
		v4[i] = tr.freshID(vi)
		renB = append(renB, ra.RenamePair{From: vi, To: v4[i]})
		onPred = ra.Conj(onPred, ra.Eq(v3[i], v4[i]))
	}
	memberTuples := &ra.Rename{Pairs: renB, From: ra.ProjectNames(r, append(append([]string{}, b...), v...)...)}
	present := ra.ProjectNames(&ra.Join{L: u1, R: memberTuples, Pred: onPred},
		append(append(append(append([]string{}, b...), v...), v2...), v3...)...)
	missing := &ra.Diff{L: u1, R: present}

	certInGroup := &ra.Diff{
		L: ra.ProjectNames(rp, append(append([]string{}, b...), v2...)...),
		R: ra.ProjectNames(missing, append(append([]string{}, b...), v2...)...),
	}
	backPairs := make([]ra.RenamePair, len(v))
	for i := range v {
		backPairs[i] = ra.RenamePair{From: v2[i], To: v[i]}
	}
	out.Result = &ra.Rename{Pairs: backPairs, From: certInGroup}
	return out, nil
}

// translateBinary implements ⟦q1 Θ q2⟧τ and ⟦q1 × q2⟧τ: both operands
// are translated against the input representation, the world tables are
// joined on the shared (original) id attributes, and the answers are
// combined per combined world.
func (tr *Translator) translateBinary(kind wsa.BinOpKind, l, r wsa.Expr, t *Sym) (*Sym, error) {
	t1, err := tr.Translate(l, t)
	if err != nil {
		return nil, err
	}
	t2, err := tr.Translate(r, t)
	if err != nil {
		return nil, err
	}
	w0 := &ra.NaturalJoin{L: t1.World, R: t2.World}

	out := t.clone()
	out.World = w0
	for i := range out.Tables {
		out.Tables[i] = &ra.NaturalJoin{L: out.Tables[i], R: w0}
	}

	if kind == wsa.OpProduct {
		// Natural join on the shared original ids pairs answers from the
		// same source world and produces all combinations of new worlds.
		out.Result = &ra.NaturalJoin{L: t1.Result, R: t2.Result}
		return out, nil
	}

	s1, err := tr.schemaOf(t1.Result)
	if err != nil {
		return nil, err
	}
	s2, err := tr.schemaOf(t2.Result)
	if err != nil {
		return nil, err
	}
	w0s, err := tr.schemaOf(w0)
	if err != nil {
		return nil, err
	}
	d1, d2 := s1.ValueAttrs(), s2.ValueAttrs()
	if len(d1) != len(d2) {
		return nil, fmt.Errorf("translate: %v operands have arities %d and %d", kind, len(d1), len(d2))
	}
	// Copy both answers into the combined worlds and align the right
	// operand's columns to the left one's names and order.
	lhs := ra.ProjectNames(&ra.NaturalJoin{L: t1.Result, R: w0},
		append(append([]string{}, d1...), w0s...)...)
	rCols := make([]ra.ProjCol, 0, len(d1)+len(w0s))
	for i := range d1 {
		rCols = append(rCols, ra.ProjCol{As: d1[i], Src: d2[i]})
	}
	for _, id := range w0s {
		rCols = append(rCols, ra.ProjCol{As: id, Src: id})
	}
	rhs := &ra.Project{Columns: rCols, From: &ra.NaturalJoin{L: t2.Result, R: w0}}

	switch kind {
	case wsa.OpUnion:
		out.Result = &ra.Union{L: lhs, R: rhs}
	case wsa.OpIntersect:
		out.Result = &ra.Intersect{L: lhs, R: rhs}
	case wsa.OpDiff:
		out.Result = &ra.Diff{L: lhs, R: rhs}
	default:
		return nil, fmt.Errorf("translate: unknown binary kind %v", kind)
	}
	return out, nil
}

func contains(s relation.Schema, name string) bool {
	for _, n := range s {
		if n == name {
			return true
		}
	}
	return false
}
