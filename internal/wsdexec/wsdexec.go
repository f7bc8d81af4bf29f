// Package wsdexec is the factorized evaluation engine: it evaluates
// World-set Algebra queries directly over a multi-relation world-set
// decomposition (wsd.DecompDB) without ever enumerating the represented
// worlds, making query cost polynomial in the decomposition size —
// independent of the world count. This is the implementation substrate
// the paper's conclusion proposes for I-SQL ("implement I-SQL on top of
// an existing representation system for finite world-sets, like ...
// world-set decompositions"): the §2 census-repair view with 2^40
// repairs answers cert/poss in milliseconds here, where the reference
// and translated engines both pay Ω(#worlds).
//
// # Evaluation
//
// Every subquery evaluates to a factored relation (see frel): certain
// tuples plus per-component, per-alternative extras. A base relation's
// pieces are the catalog's own relations, read in place — nothing is
// copied to be looked at — and a base relation under its renames is a
// stored view (storedView), built once per snapshot and shared by every
// evaluation on it. A rename changes the schema of each piece and
// shares its row storage and its index cache (relation.WithSchema); a
// projection maps over the pieces with column positions resolved once;
// a selection probes or scans piece by piece (evalSelect): the
// predicate's `column = constant` conjuncts are looked up in the cached
// hash index (relation.IndexOn) of every stored piece — a catalog
// relation, possibly renamed — of at least relation.IndexProbeMin (64)
// tuples, smaller and computed pieces are scanned, and the compiled
// predicate filters whatever either path visits. None of the three
// materializes an empty part, so an operator's output is proportional
// to what it kept. (Pieces map component-parallel on the worker pool of
// relation/pool.go, with a slot-deterministic merge.) Unions merge
// pieces; products hash-join certain and alternative partitions, and
// because operands reach the join uncopied, the index it builds on a
// stored piece is cached on the snapshot's relation and reused by the
// next statement; intersections and differences combine per-tuple
// presence conditions; poss and cert are component-local scans;
// choice-of and repair-by-key on certain inputs split fresh components;
// group-worlds-by aggregates per alternative when the answer depends on
// a single component. Before lowering, rewrite.Prelower first pushes
// selections (and cleanly-splitting projections) below ×/⋈/∩/−
// (rewrite.PushSelections) — operands are filtered before the operator
// inspects which components they depend on, so a selection that
// empties a component's contribution removes that component from the
// entanglement set and merges stay small or vanish — then applies the
// Figure 7 equivalences that are sound on arbitrary world-sets, which
// eliminates many group-worlds-by/choice-of operators outright.
//
// # Entanglement, merging and refinement
//
// Operators whose result would couple the choices of two distinct
// components — pγ/cγ aggregation and group-worlds-by over answers
// spanning components, products/joins of subqueries uncertain in
// different components, the cross-component cases of ∩ and − — cannot
// be expressed directly in the additive factored form. The engine
// merges exactly the coupled components into one, in the wsd.MergeAlt
// mixed-radix layout: evaluation stays native and its cost depends on
// the coupled components only, never on the world count — a 2^40-world
// decomposition aggregates over two 2-alternative components by
// materializing a 2×2 = 4-alternative merge. Components absorbed by a
// merge are recorded as slaved to the merged root; factored relations
// already holding parts on them are promoted onto the root at their
// next use.
//
// Choice-of and repair-by-key over an uncertain answer branch each
// world; they refine — a merge with a fan-out: the components the
// operator couples merge, and each merged alternative splits into one
// alternative per branch of the world it stands for (evalChoice,
// evalRepair). One number, the expansion budget, caps the alternatives
// a merge or refinement may build; beyond it the evaluation is refused
// with an error naming the coupled components and relations, which
// unwraps to *wsd.BudgetError. Every evaluation returns a Plan
// recording its merges and refinements (Plan.Merges).
package wsdexec

import (
	"fmt"
	"maps"
	"math/big"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
)

func init() {
	wsa.RegisterEngine("wsdexec", EvalWorldSet)
}

// Options tune the factorized engine.
type Options struct {
	// ExpandBudget caps the alternatives a component merge or
	// refinement may build; 0 means wsd.DefaultExpandBudget.
	ExpandBudget int
	// NoRewrite disables the pre-lowering rewrite pass
	// (rewrite.Prelower).
	NoRewrite bool
	// NoReorder disables the cost-based reordering of product chains by
	// estimated piece cardinality (reorderProducts); benchmarks use it
	// as the naive-order ablation arm.
	NoReorder bool
	// Trace, when non-nil, receives one child span per stage and per
	// operator evaluated (with merge events and component counts). nil —
	// the default — keeps evaluation allocation-free of tracing.
	Trace *obs.Span
}

func (o *Options) budget() int {
	if o == nil || o.ExpandBudget == 0 {
		return wsd.DefaultExpandBudget
	}
	return o.ExpandBudget
}

// MergeStep records one bounded component merge or refinement performed
// during evaluation: the operator that required it, the (live)
// component ids that were merged, and the alternative count of the
// component that replaced them.
type MergeStep struct {
	Op         string
	Components []int
	Cost       int
}

// Plan records how a query was evaluated.
type Plan struct {
	// Native reports that the query ran on the decomposition, with no
	// world enumeration; false only for a store engine override.
	Native bool
	// InputWorlds is the exact world count of the input decomposition,
	// computed once per decomposition and shared: read it, do not modify
	// it.
	InputWorlds *big.Int
	// NewComponents counts components created by choice-of,
	// repair-by-key, merging and refinement, net of the components
	// absorbed into merges.
	NewComponents int
	// Merges lists the bounded component merges and refinements, in
	// order; MergeCost is the largest resulting component's alternative
	// count (1 when no merge happened).
	Merges    []MergeStep
	MergeCost int
	// Rewritten reports that rewrite.Prelower changed the query before
	// lowering.
	Rewritten bool
	// Reordered reports that a product chain was reordered by estimated
	// piece cardinality before lowering.
	Reordered bool
	// Search is the rewrite search effort (candidates expanded versus
	// pruned by the branch-and-bound bound); zero when NoRewrite.
	Search rewrite.SearchStats
}

func (p *Plan) String() string {
	if !p.Native {
		return fmt.Sprintf("enumerated (worlds=%s)", p.InputWorlds)
	}
	s := fmt.Sprintf("native (worlds=%s, new components=%d, rewritten=%v)",
		p.InputWorlds, p.NewComponents, p.Rewritten)
	for _, m := range p.Merges {
		s += fmt.Sprintf("; merged components %v (cost %d) at %s", m.Components, m.Cost, m.Op)
	}
	return s
}

// Eval evaluates q over the decomposition and returns the decomposition
// extended with the answer relation (named "$ans", like the other
// engines), plus the Plan describing how it ran.
func Eval(q wsa.Expr, db *wsd.DecompDB) (*wsd.DecompDB, *Plan, error) {
	return EvalOpts(q, db, nil)
}

// EvalOpts is Eval with explicit options.
func EvalOpts(q wsa.Expr, db *wsd.DecompDB, opt *Options) (*wsd.DecompDB, *Plan, error) {
	env := wsa.NewEnv(db.Names, db.Schemas)
	if _, err := q.Schema(env); err != nil {
		return nil, nil, err
	}
	if n := wsa.MaxParam(q); n > 0 {
		// A plan with parameter slots is a prepared-statement template;
		// only its bound copies (wsa.BindParams) evaluate.
		return nil, nil, fmt.Errorf("wsdexec: plan holds unbound parameter $%d (bind it before evaluation)", n)
	}
	plan := &Plan{Native: true, MergeCost: 1,
		InputWorlds: db.Derived([]byte("wsdexec.worlds"), func() any { return db.Worlds() }).(*big.Int)}
	var trace *obs.Span
	if opt != nil {
		trace = opt.Trace
	}
	// The decomposition statistics seed both the rewrite search's cost
	// model and the product-chain ordering; Normalize pre-computed them,
	// so this is a cache read, not a scan.
	st := rewrite.StatsOf(db)
	run := q
	if opt == nil || !opt.NoRewrite {
		rw := trace.Child("rewrite.prelower")
		run, plan.Rewritten = rewrite.PrelowerStats(q, env, st, &plan.Search)
		rw.Set("rewritten", fmt.Sprintf("%v", plan.Rewritten)).
			SetInt("expanded", int64(plan.Search.Expanded)).
			SetInt("pruned", int64(plan.Search.Pruned)).End()
	}
	if opt == nil || !opt.NoReorder {
		run, plan.Reordered = reorderProducts(run, st, env)
	}
	e := &engine{db: db, env: env, st: st, budget: opt.budget(), trace: trace,
		arity: make([]int, len(db.Components), len(db.Components)+4)}
	for ci, c := range db.Components {
		e.arity[ci] = len(c.Alternatives)
	}
	ans, err := e.eval(run)
	if err != nil {
		return nil, nil, err
	}
	plan.Merges = e.merges
	for _, m := range e.merges {
		if m.Cost > plan.MergeCost {
			plan.MergeCost = m.Cost
		}
	}
	plan.NewComponents = len(e.arity) - len(db.Components) - len(e.slaved)
	return e.buildOutput(ans), plan, nil
}

// EvalWorldSet is the world-set-level entry point registered as the
// "wsdexec" engine: it lifts the world-set into decomposition space via
// wsd.Refactor (all-certain for complete databases, genuinely factored
// whenever the world-set is a product of independent choices),
// evaluates, and expands the result. It is directly comparable with
// wsa.Eval.
func EvalWorldSet(q wsa.Expr, ws *worldset.WorldSet) (*worldset.WorldSet, error) {
	db, err := wsd.Refactor(ws)
	if err != nil {
		return nil, err
	}
	out, _, err := Eval(q, db)
	if err != nil {
		return nil, err
	}
	return out.Expand(0)
}

// slaveRef records that a component was absorbed into a merged root:
// the root's choice m selects this component's alternative altMap[m].
// The maps compose at merge time (path compression), so a slaved entry
// always points at a live root directly.
type slaveRef struct {
	root   int
	altMap []int
}

// engine carries the evaluation state: the input decomposition and the
// component universe (the input's components plus those created by
// choice-of, repair-by-key, merging and refinement, identified by index
// into arity), plus the slaved-component registry of performed merges.
type engine struct {
	db     *wsd.DecompDB
	env    *wsa.Env
	st     rewrite.Stats // planner statistics of db (cardinality attrs on trace spans)
	arity  []int
	budget int
	slaved map[int]slaveRef // nil until the first merge
	merges []MergeStep
	trace  *obs.Span // current operator span; nil = tracing off
}

// liveComps maps each component id through the slaved registry to its
// current root and returns the sorted distinct set.
func (e *engine) liveComps(ids []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range ids {
		if ref, ok := e.slaved[c]; ok {
			c = ref.root
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// mergeArity returns the alternative count of the merge of the given
// live components — the product of their arities, 1 for none — or the
// refusal when it exceeds the budget.
func (e *engine) mergeArity(op string, comps []int) (int, error) {
	cost, f := big.NewInt(1), new(big.Int)
	for _, c := range comps {
		cost.Mul(cost, f.SetInt64(int64(e.arity[c])))
	}
	if !cost.IsInt64() || cost.Int64() > int64(e.budget) {
		return 0, e.overBudget(op, "merge", comps, cost)
	}
	return int(cost.Int64()), nil
}

// compRelNames names what the given components range over: the
// relations their alternatives contribute tuples to for input
// components, "derived" for components created during evaluation
// (choice-of, repair-by-key, earlier merges). Used by budget refusals.
func (e *engine) compRelNames(comps []int) []string {
	var out []string
	for ri, name := range e.db.Names {
		if slices.ContainsFunc(e.db.Pieces(ri), func(p wsd.Piece) bool { return slices.Contains(comps, p.Comp) }) {
			out = append(out, name)
		}
	}
	if slices.ContainsFunc(comps, func(c int) bool { return c >= len(e.db.Components) }) {
		out = append(out, "derived")
	}
	sort.Strings(out)
	return out
}

// overBudget refuses a merge or refinement ("step") of comps that would
// build cost alternatives, more than the budget: the error names the
// coupled components and the relations they range over, and wraps the
// *wsd.BudgetError every budget refusal reports.
func (e *engine) overBudget(op, step string, comps []int, cost *big.Int) error {
	return fmt.Errorf("wsdexec: %s entangles decomposition components %v (relations %v); %s cost %s: %w",
		op, comps, e.compRelNames(comps), step, cost, &wsd.BudgetError{Worlds: cost, Budget: e.budget})
}

// merge collapses the given live components (sorted, at least two) into
// a fresh component whose alternatives enumerate their choice
// combinations in the wsd.MergeAlt mixed-radix layout: a refinement
// that splits nothing.
func (e *engine) merge(op string, comps []int) error {
	return e.refine(op, comps, nil, func(func(int) int) ([]*relation.Relation, error) { return nil, nil })
}

// refine replaces the given live components (sorted; none for a fresh
// component) by one fresh component: merged alternative m of their
// wsd.MergeAlt layout becomes one alternative per relation branches
// returns for the world m stands for — alt(k) is the alternative m
// selects of comps[k] — each out's part there; no branch keeps m as one
// alternative with no part. The members are recorded as slaved to the
// new root — a refined alternative selects the member alternatives of
// the merged one it came from — and so is every component slaved to a
// member (path compression). With members the step is budgeted and
// recorded in Plan.Merges.
func (e *engine) refine(op string, comps []int, out *frel, branches func(alt func(k int) int) ([]*relation.Relation, error)) error {
	n, err := e.mergeArity(op, comps)
	if err != nil {
		return err
	}
	arities := make([]int, len(comps))
	for k, c := range comps {
		arities[k] = e.arity[c]
	}
	var merged []int                 // the merged alternative of each refined one
	var refined []*relation.Relation // and its part
	for m := 0; m < n; m++ {
		ps, err := branches(func(k int) int { return wsd.MergeAlt(arities, k, m) })
		if err != nil {
			return err
		}
		if len(ps) == 0 {
			merged, refined = append(merged, m), append(refined, nil)
		}
		for _, p := range ps {
			merged, refined = append(merged, m), append(refined, p)
		}
		if len(comps) > 0 && len(merged) > e.budget {
			return e.overBudget(op, "refinement", comps, big.NewInt(int64(len(merged))))
		}
	}
	total := len(merged)
	e.arity = append(e.arity, total)
	root := len(e.arity) - 1
	if slices.ContainsFunc(refined, func(p *relation.Relation) bool { return p != nil }) {
		out.parts[root] = refined
	}
	if len(comps) == 0 {
		return nil
	}
	if e.slaved == nil {
		e.slaved = map[int]slaveRef{}
	}
	for k, c := range comps {
		am := make([]int, total)
		for j, m := range merged {
			am[j] = wsd.MergeAlt(arities, k, m)
		}
		e.slaved[c] = slaveRef{root: root, altMap: am}
	}
	// Path-compress: components previously slaved to a member now chain
	// through it; rewrite them to point at the new root directly.
	for id, ref := range e.slaved {
		if !slices.Contains(comps, ref.root) {
			continue
		}
		inner := e.slaved[ref.root]
		nm := make([]int, total)
		for j := range nm {
			nm[j] = ref.altMap[inner.altMap[j]]
		}
		e.slaved[id] = slaveRef{root: root, altMap: nm}
	}
	e.merges = append(e.merges, MergeStep{Op: op, Components: append([]int{}, comps...), Cost: total})
	e.trace.Event("merge").Set("op", op).
		Set("components", fmt.Sprintf("%v", comps)).SetInt("cost", int64(total))
	return nil
}

// promote returns f with no part keyed on a slaved component: parts of
// merged members are folded onto the corresponding alternatives of their
// root. Component-interpreting operators call it on every operand before
// inspecting uncertainComps or per-alternative coverage — a merge
// performed while evaluating a sibling subtree may have slaved
// components an already-evaluated frel still references, and treating
// two slaved siblings as independent would misjudge certainty.
// Structural operators (σ, π, ρ, ∪) need not promote: they distribute
// over parts regardless of which component keys them. promote is the
// only place an operand is edited: a computed frel is rewritten in
// place, a stored view — shared by every evaluation on the snapshot —
// is copied first (frel.unshared).
func (e *engine) promote(f *frel) *frel {
	if len(e.slaved) == 0 {
		return f
	}
	for _, c := range f.compIDs() {
		ref, ok := e.slaved[c]
		if !ok {
			continue
		}
		f = f.unshared()
		parts := f.parts[c]
		delete(f.parts, c)
		n := e.arity[ref.root]
		for m := 0; m < n; m++ {
			p := parts[ref.altMap[m]]
			if p == nil || p.Len() == 0 {
				continue
			}
			slot := f.slot(ref.root, n, m)
			p.Each(func(t relation.Tuple) { slot.Insert(t) })
		}
	}
	return f
}

// buildOutput assembles the extended decomposition ⟨R1, …, Rk, $ans⟩
// from the input and the answer's factored form, sharing the input's
// relations and the alternatives of every component the answer does not
// extend (the output must be edited copy-on-write, like any
// decomposition a snapshot published). Components slaved to a
// merge root are omitted: the root's alternatives re-emit their
// relation contributions at the member alternative each combined choice
// selects, so the output represents exactly the input world-set (merged
// combinations may coincide in content, making Worlds an upper bound —
// the Normalize caveat; Expand still deduplicates).
func (e *engine) buildOutput(ans *frel) *wsd.DecompDB {
	ans = e.promote(ans)
	k := len(e.db.Names)
	out := &wsd.DecompDB{
		Names:      append(append(make([]string, 0, k+1), e.db.Names...), wsa.AnswerName),
		Schemas:    append(append(make([]relation.Schema, 0, k+1), e.db.Schemas...), ans.schema),
		Certain:    append(append(make([]*relation.Relation, 0, k+1), e.db.Certain...), ans.cert),
		Components: make([]wsd.DBComponent, 0, len(e.arity)),
	}
	// Input components absorbed by each merge root, for re-emitting
	// their relation contributions under the root's combined choices.
	members := map[int][]int{}
	for id, ref := range e.slaved {
		if id < len(e.db.Components) {
			members[ref.root] = append(members[ref.root], id)
		}
	}
	for _, ms := range members {
		sort.Ints(ms)
	}
	for ci, m := range e.arity {
		if _, slaved := e.slaved[ci]; slaved {
			continue
		}
		if ci < len(e.db.Components) && len(members[ci]) == 0 && ans.parts[ci] == nil {
			// The answer has no part in this component and no merge
			// touched it: the output shares its alternatives with the
			// input (every component, for a closed poss/cert query).
			out.Components = append(out.Components,
				wsd.DBComponent{Alternatives: e.db.Components[ci].Alternatives})
			continue
		}
		comp := wsd.DBComponent{Alternatives: make([]wsd.DBAlternative, m)}
		var prev []int // the member alternatives the previous one selected
		for a := 0; a < m; a++ {
			alt := wsd.DBAlternative{Rels: map[int]*relation.Relation{}}
			if ci < len(e.db.Components) {
				maps.Copy(alt.Rels, e.db.Components[ci].Alternatives[a].Rels)
			}
			choice := make([]int, len(members[ci]))
			for i, b := range members[ci] {
				choice[i] = e.slaved[b].altMap[a]
			}
			if a > 0 && len(choice) > 0 && slices.Equal(choice, prev) {
				// The refinements of one merged alternative re-emit the
				// same member contributions: share them.
				maps.Copy(alt.Rels, comp.Alternatives[a-1].Rels)
				delete(alt.Rels, k)
			} else if len(choice) > 0 {
				contrib := map[int][]*relation.Relation{}
				for i, b := range members[ci] {
					for ri, r := range e.db.Components[b].Alternatives[choice[i]].Rels {
						if r != nil && r.Len() > 0 {
							contrib[ri] = append(contrib[ri], r)
						}
					}
				}
				for ri, rs := range contrib {
					u := rs[0]
					if len(rs) > 1 {
						u = u.Clone()
						for _, r := range rs[1:] {
							r.Each(func(t relation.Tuple) { u.Insert(t) })
						}
					}
					alt.Rels[ri] = u
				}
			}
			prev = choice
			if p := ans.part(ci, a); p != nil && p.Len() > 0 {
				alt.Rels[k] = p
			}
			comp.Alternatives[a] = alt
		}
		out.Components = append(out.Components, comp)
	}
	return out
}

// opName names an operator for trace spans and diagnostics.
func opName(q wsa.Expr) string {
	switch n := q.(type) {
	case *wsa.Rel:
		return "rel:" + n.Name
	case *wsa.Select:
		return "select"
	case *wsa.Project:
		return "project"
	case *wsa.Rename:
		return "rename"
	case *wsa.BinOp:
		switch n.Kind {
		case wsa.OpProduct:
			return "product"
		case wsa.OpUnion:
			return "union"
		case wsa.OpIntersect:
			return "intersect"
		case wsa.OpDiff:
			return "diff"
		}
		return "binop"
	case *wsa.Join:
		return "join"
	case *wsa.Choice:
		return "choice-of"
	case *wsa.Close:
		if n.Kind == wsa.ClosePoss {
			return "poss"
		}
		return "cert"
	case *wsa.Group:
		if n.Kind == wsa.GroupPoss {
			return "group-poss"
		}
		return "group-cert"
	case *wsa.RepairKey:
		return "repair-by-key"
	}
	return fmt.Sprintf("%T", q)
}

// eval wraps the recursive evaluator with per-operator tracing: when a
// trace is attached, each operator gets a child span annotated with the
// components contributing to its factored result; merges performed inside
// the operator land as events on its span. The nil-trace path is one
// pointer test on top of evalNode.
func (e *engine) eval(q wsa.Expr) (*frel, error) {
	if e.trace == nil {
		return e.evalNode(q)
	}
	parent := e.trace
	sp := parent.Child("op:" + opName(q))
	e.trace = sp
	out, err := e.evalNode(q)
	e.trace = parent
	if err == nil && out != nil {
		sp.SetInt("components", int64(out.uncertainCount()))
		// Estimated versus actual cardinality, for EXPLAIN ANALYZE's
		// plan-quality readout: est_rows is the planner's per-world
		// estimate, rows the stored tuples across the factored pieces.
		sp.Set("est_rows", strconv.FormatFloat(rewrite.EstimateCard(q, e.st), 'f', 0, 64))
		sp.SetInt("rows", int64(out.size()))
	}
	sp.End()
	return out, err
}

// evalNode is the recursive factored evaluator; every case returns the
// answer as an frel over the engine's component universe.
func (e *engine) evalNode(q wsa.Expr) (*frel, error) {
	if from := operand(q); from != nil {
		sub, err := e.eval(from)
		if err != nil {
			return nil, err
		}
		return e.evalUnary(q, sub)
	}
	outSchema, err := q.Schema(e.env)
	if err != nil {
		return nil, err
	}

	switch n := q.(type) {
	case *wsa.Rel:
		i := e.db.IndexOf(n.Name)
		if i < 0 {
			return nil, fmt.Errorf("wsdexec: unknown relation %q", n.Name)
		}
		return e.storedView(i, outSchema), nil

	case *wsa.BinOp:
		switch n.Kind {
		case wsa.OpProduct:
			return e.evalProduct(n.L, n.R, ra.True{}, outSchema)
		case wsa.OpUnion:
			return e.evalUnion(n.L, n.R, outSchema)
		case wsa.OpIntersect, wsa.OpDiff:
			return e.evalSetOp(n.Kind, n.L, n.R, outSchema)
		}
		return nil, fmt.Errorf("wsdexec: unknown binary operator %v", n.Kind)

	case *wsa.Join:
		return e.evalProduct(n.L, n.R, n.Pred, outSchema)
	}
	return nil, fmt.Errorf("wsdexec: unknown operator %T", q)
}

// operand returns the operand of a unary operator, nil for a leaf or a
// binary operator.
func operand(q wsa.Expr) wsa.Expr {
	switch n := q.(type) {
	case *wsa.Select:
		return n.From
	case *wsa.Project:
		return n.From
	case *wsa.Rename:
		return n.From
	case *wsa.Choice:
		return n.From
	case *wsa.Close:
		return n.From
	case *wsa.Group:
		return n.From
	case *wsa.RepairKey:
		return n.From
	}
	return nil
}

// evalUnary evaluates the unary operator q over its evaluated operand.
// Its schema follows from the operand's in one step (wsa.SchemaOver)
// instead of a walk of the subtree per node; σ keeps its operand's
// schema, and the attribute check SchemaOver would repeat for it ran
// when EvalOpts type-checked the plan.
func (e *engine) evalUnary(q wsa.Expr, sub *frel) (*frel, error) {
	outSchema := sub.schema
	if _, isSelect := q.(*wsa.Select); !isSelect {
		var err error
		if outSchema, err = wsa.SchemaOver(q, sub.schema); err != nil {
			return nil, err
		}
	}
	switch n := q.(type) {
	case *wsa.Select:
		return e.evalSelect(n, sub)

	case *wsa.Project:
		// Column positions resolve once; every piece projects by them.
		idx, err := sub.schema.Indexes(n.Columns)
		if err != nil {
			return nil, err
		}
		out := e.mapPieces(sub, outSchema, func(p piece) *relation.Relation {
			return project(p, idx, outSchema)
		})
		out.ownCert = !identity(idx, len(sub.schema))
		return out, nil

	case *wsa.Rename:
		// A rename is a schema change: every piece keeps its row storage
		// and its index cache (relation.WithSchema), so a selection above
		// still finds the indexes of the catalog relation underneath. A
		// renamed stored relation is itself a stored view, built once per
		// snapshot.
		if sub.stored {
			return e.storedView(sub.rel, outSchema), nil
		}
		out := &frel{schema: outSchema, cert: sub.cert.WithSchema(outSchema),
			parts: make(map[int][]*relation.Relation, len(sub.parts)), ownCert: sub.ownCert}
		for c, alts := range sub.parts {
			for a, p := range alts {
				if p != nil && p.Len() > 0 {
					out.setPart(c, len(alts), a, p.WithSchema(outSchema))
				}
			}
		}
		return out, nil

	case *wsa.Choice:
		return e.evalChoice(n, sub, outSchema)

	case *wsa.Close:
		return e.evalClose(n, sub, outSchema)

	case *wsa.Group:
		return e.evalGroup(n, sub, outSchema)

	case *wsa.RepairKey:
		return e.evalRepair(n, sub, outSchema)
	}
	return nil, fmt.Errorf("wsdexec: unknown operator %T", q)
}

// SelectIndexProbes and SelectScans count the selections the engine
// evaluated by access path: a selection counts as an index probe when
// at least one piece was answered from a cached relation.IndexOn index,
// as a scan otherwise — exported at isqld /metrics as
// wsdb_select_index_probes_total and wsdb_select_scans_total.
var SelectIndexProbes, SelectScans obs.Counter

// evalSelect is σ: one operator with two access paths, chosen per piece.
// The predicate's `column = constant` conjuncts (bound $n slots are
// constants by now) form a probe key; a stored piece — a catalog
// relation, possibly renamed — of at least relation.IndexProbeMin tuples
// is read through its cached hash index on those columns, every other
// piece is scanned. Either way the whole compiled predicate decides
// membership, so the probe only narrows what it is applied to. The index
// is a cache on the snapshot's immutable relation: built by the first
// probe, shared by every later one, carried by commits that leave the
// relation alone, gone with the last snapshot holding it.
func (e *engine) evalSelect(n *wsa.Select, sub *frel) (*frel, error) {
	pred, err := n.Pred.Compile(sub.schema)
	if err != nil {
		return nil, err
	}
	var cols []int
	var key relation.Tuple
	var exact bool
	if sub.stored {
		cols, key, exact = probeKey(n.Pred, sub.schema)
	}
	var indexed atomic.Bool
	var probed, scanned atomic.Int64
	out := e.mapPieces(sub, sub.schema, func(p piece) *relation.Relation {
		if cols != nil && p.r.Len() >= relation.IndexProbeMin {
			matches := p.r.IndexOn(cols).Lookup(key, nil)
			indexed.Store(true)
			probed.Add(int64(len(matches)))
			return keepAll(matches, sub.schema, pred, exact)
		}
		scanned.Add(int64(p.r.Len()))
		if p.rows == nil {
			// A scan grows its output as it keeps.
			var out *relation.Relation
			p.r.Each(func(t relation.Tuple) {
				if pred(t) {
					if out == nil {
						out = relation.New(sub.schema)
					}
					out.InsertDistinct(t) // the piece is a set already
				}
			})
			return out
		}
		// A small stored piece whose every tuple passes is handed on as
		// it is; otherwise the n that passed before the first that did
		// not are kept, and the rest tested.
		n := 0
		for n < len(p.rows) && pred(p.rows[n]) {
			n++
		}
		if n == len(p.rows) {
			return p.r
		}
		var out *relation.Relation
		for i, t := range p.rows {
			if i < n || i > n && pred(t) {
				if out == nil {
					out = relation.NewSized(sub.schema, len(p.rows)-1)
				}
				out.InsertDistinct(t)
			}
		}
		return out
	})
	// The certain part is the operand's own when the scan kept it whole.
	out.ownCert = out.cert != sub.cert
	access := "scan"
	if indexed.Load() {
		access = "index"
		SelectIndexProbes.Inc()
	} else {
		SelectScans.Inc()
	}
	e.trace.Set("access", access).SetInt("probed", probed.Load()).SetInt("scanned", scanned.Load())
	return out, nil
}

// keepAll is σ over a probe's matches: the output is sized by their
// count, so keeping them never rehashes, and when the probe key is the
// whole predicate (exact) the matches are kept without re-testing it.
func keepAll(matches []relation.Tuple, s relation.Schema, pred func(relation.Tuple) bool, exact bool) *relation.Relation {
	var out *relation.Relation
	for _, t := range matches {
		if exact || pred(t) {
			if out == nil {
				out = relation.NewSized(s, len(matches))
			}
			out.InsertDistinct(t) // the piece is a set already
		}
	}
	return out
}

// probeKey splits the `column = constant` conjuncts off a predicate's
// top-level conjunction and returns them as an index probe: the column
// positions, ascending (so every selection on the same columns shares
// one cached index, whatever order it names them in), and the constants
// in that order. A column compared twice keeps its first constant — the
// full predicate still runs on the matches, so `A = 1 and A = 2` probes
// for 1 and keeps nothing. nil columns mean nothing to probe with. exact
// reports that the probe is the whole predicate — every conjunct went
// into the key — so a match needs no further test: the index compares
// its key columns exactly (Index.Lookup), and a value's digest is equal
// exactly when it compares equal (value.Hash), so every constant probes.
func probeKey(p ra.Pred, s relation.Schema) (cols []int, key relation.Tuple, exact bool) {
	type eq struct {
		col int
		val value.Value
	}
	var eqs []eq
	exact = true
	var walk func(ra.Pred)
	walk = func(p ra.Pred) {
		switch q := p.(type) {
		case ra.And:
			walk(q.L)
			walk(q.R)
		case ra.Cmp:
			col, c := q.Left, q.Right
			if !col.IsCol {
				col, c = c, col
			}
			i := -1
			if q.Op == ra.OpEq && col.IsCol && !c.IsCol && c.ParamN == 0 {
				i = s.Index(col.Col)
			}
			if i < 0 || slices.ContainsFunc(eqs, func(e eq) bool { return e.col == i }) {
				exact = false
				return
			}
			eqs = append(eqs, eq{i, c.Const})
		default:
			exact = false
		}
	}
	walk(p)
	if len(eqs) == 0 {
		return nil, nil, false
	}
	slices.SortFunc(eqs, func(a, b eq) int { return a.col - b.col })
	cols, key = make([]int, len(eqs)), make(relation.Tuple, len(eqs))
	for i, e := range eqs {
		cols[i], key[i] = e.col, e.val
	}
	return cols, key, exact
}

// mapPieces maps a per-piece function over every non-empty piece of
// the operand's factored form — selections and projections distribute
// over the union defining the represented instances. The caller
// resolves what depends on the operand's schema (predicate, column
// positions) once, not per piece. Pieces are read in place — fn must not
// mutate its input — and a nil result means the piece contributes
// nothing: no empty part is materialized. Pieces map in parallel on the
// shared worker pool; results land in per-slot output cells, so the
// merge is deterministic regardless of scheduling.
func (e *engine) mapPieces(sub *frel, outSchema relation.Schema, fn func(piece) *relation.Relation) *frel {
	slots := sub.pieces()
	parts := relation.NumParts(sub.size())
	results := make([]*relation.Relation, len(slots))
	relation.ParallelChunks(len(slots), parts, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i] = fn(slots[i])
		}
	})
	out := &frel{schema: outSchema, cert: results[0], parts: map[int][]*relation.Relation{}}
	if out.cert == nil {
		out.cert = relation.New(outSchema)
	}
	for i := 1; i < len(slots); i++ {
		if results[i] != nil && results[i].Len() > 0 {
			out.setPart(slots[i].c, e.arity[slots[i].c], slots[i].a, results[i])
		}
	}
	return out
}

// projectBlock bounds, in tuples, both the set a projection pre-sizes
// and each backing array its projected tuples are cut from: a small
// piece costs one of each, and a large one projecting onto a few
// distinct values does not reserve room for every input row.
const projectBlock = 256

// project is π on one piece by pre-resolved positions. An identity
// projection hands the piece on under the output schema
// (relation.WithSchema). Any other cuts its projected tuples from shared
// backing arrays instead of allocating each, and a duplicate gives its
// room back.
func project(p piece, idx []int, s relation.Schema) *relation.Relation {
	r := p.r
	if identity(idx, len(r.Schema())) {
		return r.WithSchema(s)
	}
	out := relation.NewSized(s, min(r.Len(), projectBlock))
	var buf []value.Value
	p.each(func(t relation.Tuple) {
		if cap(buf)-len(buf) < len(idx) {
			buf = make([]value.Value, 0, min(r.Len(), projectBlock)*len(idx))
		}
		lo := len(buf)
		for _, i := range idx {
			buf = append(buf, t[i])
		}
		if !out.Insert(relation.Tuple(buf[lo:len(buf):len(buf)])) {
			buf = buf[:lo]
		}
	})
	return out
}

// identity reports whether idx lists all n columns in order.
func identity(idx []int, n int) bool {
	if len(idx) != n {
		return false
	}
	for i, j := range idx {
		if i != j {
			return false
		}
	}
	return true
}

// evalUnion merges the factored forms piecewise: the union of two
// additive representations is additive.
func (e *engine) evalUnion(lq, rq wsa.Expr, outSchema relation.Schema) (*frel, error) {
	lf, err := e.eval(lq)
	if err != nil {
		return nil, err
	}
	rf, err := e.eval(rq)
	if err != nil {
		return nil, err
	}
	out := newFrel(outSchema)
	insertAll := func(dst, src *relation.Relation) {
		if src != nil {
			src.Each(func(t relation.Tuple) { dst.Insert(t) })
		}
	}
	insertAll(out.cert, lf.cert)
	insertAll(out.cert, rf.cert)
	for _, f := range []*frel{lf, rf} {
		for _, c := range f.compIDs() {
			for a, p := range f.parts[c] {
				if p != nil && p.Len() > 0 {
					insertAll(out.slot(c, e.arity[c], a), p)
				}
			}
		}
	}
	return out, nil
}

// evalProduct distributes the product over the factored forms:
//
//	(C₁ ∪ U₁) × (C₂ ∪ U₂) = C₁×C₂ ∪ C₁×U₂ ∪ U₁×C₂ ∪ U₁×U₂
//
// The first three terms stay additive (certain×part attaches to the
// part's alternative); the U₁×U₂ cross term is additive only when both
// sides' uncertainty lives in the same component (the alternatives'
// contributions pair up choice-for-choice). Parts in distinct
// components would couple two independent choices — entangled. All
// pairings go through the ra join machinery, which hash-joins equality
// predicates on an index of the right operand (relation.IndexOn). The
// operands are handed over as they are — ra.Lit evaluates to its
// relation, not a copy — so when the right piece is a stored one the
// index is built once on the snapshot's relation and found there by
// every later join or selection; on a computed piece it lives and dies
// with the piece.
func (e *engine) evalProduct(lq, rq wsa.Expr, pred ra.Pred, outSchema relation.Schema) (*frel, error) {
	lf, err := e.eval(lq)
	if err != nil {
		return nil, err
	}
	rf, err := e.eval(rq)
	if err != nil {
		return nil, err
	}
	lf = e.promote(lf)
	rf = e.promote(rf)
	lu, ru := lf.uncertainComps(), rf.uncertainComps()
	if len(lu) > 0 && len(ru) > 0 && !(len(lu) == 1 && len(ru) == 1 && lu[0] == ru[0]) {
		// Entangled: merge exactly the coupled components, promote both
		// operands onto the merged root, and continue on the
		// same-component path.
		if err := e.merge("product of subqueries uncertain in distinct components",
			e.liveComps(append(append([]int{}, lu...), ru...))); err != nil {
			return nil, err
		}
		lf = e.promote(lf)
		rf = e.promote(rf)
		lu, ru = lf.uncertainComps(), rf.uncertainComps()
	}
	combine := func(a, b *relation.Relation) (*relation.Relation, error) {
		if a == nil || b == nil || a.Len() == 0 || b.Len() == 0 {
			return nil, nil
		}
		le, re := &ra.Lit{Rel: a}, &ra.Lit{Rel: b}
		if _, isTrue := pred.(ra.True); isTrue {
			return (&ra.Product{L: le, R: re}).Eval(nil)
		}
		return (&ra.Join{L: le, R: re, Pred: pred}).Eval(nil)
	}
	out := newFrel(outSchema)
	cert, err := combine(lf.cert, rf.cert)
	if err != nil {
		return nil, err
	}
	if cert != nil {
		out.cert = cert
	}
	// Per (component, alternative): certL×partR ∪ partL×certR ∪
	// partL×partR, computed in parallel across slots.
	comps := append(append([]int{}, lu...), ru...)
	sort.Ints(comps)
	comps = slices.Compact(comps)
	var slots []slotRef
	for _, c := range comps {
		for a := 0; a < e.arity[c]; a++ {
			slots = append(slots, slotRef{c, a})
		}
	}
	results := make([]*relation.Relation, len(slots))
	errs := make([]error, len(slots))
	relation.ParallelChunks(len(slots), relation.NumParts(lf.size()+rf.size()), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c, a := slots[i].c, slots[i].a
			acc := relation.New(outSchema)
			for _, pair := range [][2]*relation.Relation{
				{lf.part(c, a), rf.cert},
				{lf.cert, rf.part(c, a)},
				{lf.part(c, a), rf.part(c, a)},
			} {
				r, err := combine(pair[0], pair[1])
				if err != nil {
					errs[i] = err
					return
				}
				if r != nil {
					r.Each(func(t relation.Tuple) { acc.Insert(t) })
				}
			}
			results[i] = acc
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, s := range slots {
		if results[i] != nil && results[i].Len() > 0 {
			out.setPart(s.c, e.arity[s.c], s.a, results[i])
		}
	}
	return out, nil
}

// cond accumulates one tuple's presence conditions on both operands of
// a set operation: certain membership plus, per side, the set of
// (component, alternative) choices that contribute it.
type cond struct {
	t     relation.Tuple
	cert  [2]bool
	comps [2]map[int]map[int]bool
}

// evalSetOp implements intersection and difference by combining
// per-tuple presence conditions. A condition is TRUE (certain, or
// covered by every alternative of some component) or a disjunction of
// choices within components. Conjunctions — t ∈ L ∧ t ∈ R for
// intersection, t ∈ L ∧ t ∉ R for difference — stay additive when at
// most one side is uncertain for the tuple, or both sides' conditions
// live in the same single component; otherwise the tuple's presence
// couples two independent choices and the operator entangles.
func (e *engine) evalSetOp(kind wsa.BinOpKind, lq, rq wsa.Expr, outSchema relation.Schema) (*frel, error) {
	lf, err := e.eval(lq)
	if err != nil {
		return nil, err
	}
	rf, err := e.eval(rq)
	if err != nil {
		return nil, err
	}
	opName := "intersection of subqueries uncertain in distinct components"
	if kind == wsa.OpDiff {
		opName = "difference of subqueries uncertain in distinct components"
	}
	// Tuples whose presence condition couples several components are
	// resolved by merging exactly those components and re-running the
	// combination; every round with entangled tuples merges at least
	// two live components, so the loop terminates.
	for {
		lf = e.promote(lf)
		rf = e.promote(rf)
		out, needs := e.combineSetOp(kind, lf, rf, outSchema)
		if len(needs) == 0 {
			return out, nil
		}
		for _, g := range e.coupledGroups(needs) {
			if err := e.merge(opName, g); err != nil {
				return nil, err
			}
		}
	}
}

// combineSetOp runs one pass of the per-tuple condition combination for
// ∩ and −. It returns the combined frel when every tuple stayed
// additive; otherwise it returns the coupled component sets (needs)
// that blocked additivity, for the caller to merge and retry. Every
// entangled tuple's coupling is collected — rather than aborting at the
// first — so the merges chosen are independent of map iteration order.
func (e *engine) combineSetOp(kind wsa.BinOpKind, lf, rf *frel, outSchema relation.Schema) (*frel, [][]int) {
	// Accumulate conditions per distinct tuple (positional comparison,
	// like ra's set operators), collision-verified.
	buckets := map[uint64][]*cond{}
	get := func(t relation.Tuple) *cond {
		h := t.Hash()
		for _, c := range buckets[h] {
			if c.t.Equal(t) {
				return c
			}
		}
		c := &cond{t: t}
		buckets[h] = append(buckets[h], c)
		return c
	}
	for side, f := range []*frel{lf, rf} {
		side := side
		f.cert.Each(func(t relation.Tuple) { get(t).cert[side] = true })
		for _, ci := range f.compIDs() {
			for a, p := range f.parts[ci] {
				if p == nil {
					continue
				}
				a := a
				p.Each(func(t relation.Tuple) {
					c := get(t)
					if c.comps[side] == nil {
						c.comps[side] = map[int]map[int]bool{}
					}
					if c.comps[side][ci] == nil {
						c.comps[side][ci] = map[int]bool{}
					}
					c.comps[side][ci][a] = true
				})
			}
		}
	}
	// isTrue reports a condition equivalent to TRUE: certain, or some
	// component contributes the tuple under every alternative.
	isTrue := func(c *cond, side int) bool {
		if c.cert[side] {
			return true
		}
		for ci, alts := range c.comps[side] {
			if len(alts) == e.arity[ci] && e.arity[ci] > 0 {
				return true
			}
		}
		return false
	}
	singleComp := func(c *cond, side int) (int, bool) {
		if len(c.comps[side]) != 1 {
			return 0, false
		}
		for ci := range c.comps[side] {
			return ci, true
		}
		return 0, false
	}
	out := newFrel(outSchema)
	copyMemberships := func(t relation.Tuple, m map[int]map[int]bool) {
		for ci, alts := range m {
			for a := range alts {
				out.slot(ci, e.arity[ci], a).Insert(t)
			}
		}
	}
	var needs [][]int
	couple := func(ms ...map[int]map[int]bool) {
		var ids []int
		for _, m := range ms {
			for ci := range m {
				ids = append(ids, ci)
			}
		}
		needs = append(needs, ids)
	}
	for _, bucket := range buckets {
		for _, c := range bucket {
			presentL := c.cert[0] || len(c.comps[0]) > 0
			presentR := c.cert[1] || len(c.comps[1]) > 0
			if kind == wsa.OpIntersect {
				if !presentL || !presentR {
					continue
				}
				lTrue, rTrue := isTrue(c, 0), isTrue(c, 1)
				switch {
				case lTrue && rTrue:
					out.cert.Insert(c.t)
				case lTrue:
					copyMemberships(c.t, c.comps[1])
				case rTrue:
					copyMemberships(c.t, c.comps[0])
				default:
					lc, lok := singleComp(c, 0)
					rc, rok := singleComp(c, 1)
					if !lok || !rok || lc != rc {
						couple(c.comps[0], c.comps[1])
						break
					}
					for a := range c.comps[0][lc] {
						if c.comps[1][rc][a] {
							out.slot(lc, e.arity[lc], a).Insert(c.t)
						}
					}
				}
				continue
			}
			// Difference L − R.
			if !presentL {
				continue
			}
			if isTrue(c, 1) {
				continue // always in R, never in the difference
			}
			if !presentR {
				if isTrue(c, 0) {
					out.cert.Insert(c.t)
				} else {
					copyMemberships(c.t, c.comps[0])
				}
				continue
			}
			// R is strictly uncertain: ¬R is a conjunction across R's
			// components, additive only within a single one. When L is
			// TRUE only R's components need merging; otherwise the
			// conjunction couples both sides' components.
			rc, rok := singleComp(c, 1)
			if !rok {
				if isTrue(c, 0) {
					couple(c.comps[1])
				} else {
					couple(c.comps[0], c.comps[1])
				}
				continue
			}
			switch {
			case isTrue(c, 0):
				for a := 0; a < e.arity[rc]; a++ {
					if !c.comps[1][rc][a] {
						out.slot(rc, e.arity[rc], a).Insert(c.t)
					}
				}
			default:
				lc, lok := singleComp(c, 0)
				if !lok || lc != rc {
					couple(c.comps[0], c.comps[1])
				} else {
					for a := range c.comps[0][lc] {
						if !c.comps[1][rc][a] {
							out.slot(lc, e.arity[lc], a).Insert(c.t)
						}
					}
				}
			}
		}
	}
	if len(needs) > 0 {
		return nil, needs
	}
	return out, nil
}

// coupledGroups resolves the coupled component sets to live roots and
// joins overlapping sets into groups (they must merge together), each
// sorted, ordered by smallest member.
func (e *engine) coupledGroups(needs [][]int) [][]int {
	var groups [][]int
	for _, set := range needs {
		g := e.liveComps(set)
		kept := groups[:0]
		for _, h := range groups {
			if slices.ContainsFunc(h, func(c int) bool { return slices.Contains(g, c) }) {
				g = append(g, h...)
			} else {
				kept = append(kept, h)
			}
		}
		slices.Sort(g)
		groups = append(kept, slices.Compact(g))
	}
	slices.SortFunc(groups, func(a, b []int) int { return a[0] - b[0] })
	return groups
}

// evalChoice implements χ_U: every world branches into one world per
// distinct U-value of its answer (an empty answer keeps the world as it
// is). The refinement merges the components contributing a row to the
// answer — none for a certain answer, whose groups make a fresh
// independent component — and splits each merged alternative into one
// alternative per U-group of the answer in the world it stands for.
func (e *engine) evalChoice(n *wsa.Choice, sub *frel, outSchema relation.Schema) (*frel, error) {
	sub = e.promote(sub)
	idx, err := sub.schema.Indexes(n.Attrs)
	if err != nil {
		return nil, err
	}
	comps := sub.uncertainComps()
	out := newFrel(outSchema)
	if len(comps) == 0 && sub.cert.Empty() {
		return out, nil // every world survives with the empty answer
	}
	err = e.refine("choice-of over an uncertain answer", comps, out, func(alt func(int) int) ([]*relation.Relation, error) {
		w := sub.cert
		if len(comps) > 0 {
			w = w.Clone()
			for k, c := range comps {
				if p := sub.part(c, alt(k)); p != nil {
					p.Each(func(t relation.Tuple) { w.Insert(t) })
				}
			}
		}
		groups := relation.NewGroupMap(idx, w.Len())
		w.Each(func(t relation.Tuple) { groups.Add(t) })
		gs := slices.SortedFunc(slices.Values(groups.Groups()), func(a, b *relation.Group) int { return a.Key.Compare(b.Key) })
		branches := make([]*relation.Relation, len(gs))
		for a, g := range gs {
			branches[a] = relation.New(outSchema)
			for _, t := range g.Rows {
				branches[a].InsertDistinct(t)
			}
		}
		return branches, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evalClose implements poss and cert as component-local scans, in
// O(size) regardless of the world count: poss is the union of all
// pieces; a tuple is certain iff it is certain already or some
// component contributes it under every alternative. Components scan in
// parallel into per-component cells; the merge walks them in component
// order.
func (e *engine) evalClose(n *wsa.Close, sub *frel, outSchema relation.Schema) (*frel, error) {
	// Certainty is judged per component: parts still keyed on merged
	// members must be promoted first, or two correlated members could
	// jointly cover every root alternative without either covering its
	// own, under-approximating cert.
	sub = e.promote(sub)
	comps := sub.compIDs()
	// What each component adds to the certain part: for poss its parts,
	// for cert the tuples every one of its alternatives contributes.
	adds := func(c int, add func(relation.Tuple)) {
		alts := sub.parts[c]
		if n.Kind == wsa.ClosePoss {
			for _, p := range alts {
				if p != nil {
					p.Each(add)
				}
			}
			return
		}
		if e.arity[c] == 0 {
			return
		}
		for _, p := range alts {
			if p == nil || p.Len() == 0 {
				return
			}
		}
		alts[0].Each(func(t relation.Tuple) {
			for _, p := range alts[1:] {
				if !p.Contains(t) {
					return
				}
			}
			add(t)
		})
	}
	// The certain part is handed on, not copied: extended in place when
	// the operand owns it, and cloned — sharing its row segments — only
	// when a component adds a tuple to a certain part someone else holds.
	out := &frel{schema: outSchema, cert: sub.cert, parts: map[int][]*relation.Relation{}}
	add := func(t relation.Tuple) {
		if out.cert == sub.cert && !sub.ownCert {
			if sub.cert.Contains(t) {
				return
			}
			out.cert = sub.cert.Clone()
			if !outSchema.Equal(out.cert.Schema()) {
				out.cert = out.cert.WithSchema(outSchema)
			}
		}
		out.cert.Insert(t)
	}
	if parts := relation.NumParts(sub.size()); parts > 1 {
		partial := make([]*relation.Relation, len(comps))
		relation.ParallelChunks(len(comps), parts, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				acc := relation.New(outSchema)
				adds(comps[i], func(t relation.Tuple) { acc.Insert(t) })
				partial[i] = acc
			}
		})
		for _, acc := range partial {
			acc.Each(add)
		}
	} else {
		for _, c := range comps {
			adds(c, add)
		}
	}
	out.ownCert = out.cert != sub.cert || sub.ownCert
	return out, nil
}

// evalGroup implements pγ^V_U and cγ^V_U. A certain answer puts every
// world in one group whose aggregate is the answer's projection. When
// the answer depends on exactly one component, both the group signature
// and the aggregate are functions of that component's choice: compute
// the signature per alternative, aggregate per signature class, and
// emit the class aggregate as the alternative's part. Answers depending
// on several components entangle.
func (e *engine) evalGroup(n *wsa.Group, sub *frel, outSchema relation.Schema) (*frel, error) {
	gIdx, err := sub.schema.Indexes(n.GroupBy)
	if err != nil {
		return nil, err
	}
	proj := n.ProjOrAll(sub.schema)
	pIdx, err := sub.schema.Indexes(proj)
	if err != nil {
		return nil, err
	}
	sub = e.promote(sub)
	uc := sub.uncertainComps()
	if len(uc) == 0 {
		out := newFrel(outSchema)
		out.cert = sub.cert.Project(pIdx, outSchema)
		return out, nil
	}
	if len(uc) > 1 {
		// Native multi-component aggregation: merge the components the
		// answer depends on, promote onto the merged root, and run the
		// single-component signature-class aggregation over it.
		if err := e.merge("group-worlds-by over an answer uncertain in several components",
			e.liveComps(uc)); err != nil {
			return nil, err
		}
		sub = e.promote(sub)
		uc = sub.uncertainComps()
	}
	c := uc[0]
	m := e.arity[c]
	gSchema := relation.NewSchema(n.GroupBy...)
	sigs := make([]*relation.Relation, m)
	projs := make([]*relation.Relation, m)
	relation.ParallelChunks(m, relation.NumParts(sub.size()), func(_, lo, hi int) {
		for a := lo; a < hi; a++ {
			w := sub.cert.Clone()
			if p := sub.part(c, a); p != nil {
				p.Each(func(t relation.Tuple) { w.Insert(t) })
			}
			sigs[a] = w.Project(gIdx, gSchema)
			projs[a] = w.Project(pIdx, outSchema)
		}
	})
	// Aggregate per signature class, in first-alternative order: class[a]
	// is the first alternative whose signature equals a's, found by
	// content digest and verified with Equal.
	class := make([]int, m)
	byHash := map[uint64][]int{}
	agg := make([]*relation.Relation, m)
	for a := 0; a < m; a++ {
		h := sigs[a].ContentHash()
		i := slices.IndexFunc(byHash[h], func(b int) bool { return sigs[b].Equal(sigs[a]) })
		if i < 0 {
			byHash[h] = append(byHash[h], a)
			class[a], agg[a] = a, projs[a]
			continue
		}
		b := byHash[h][i]
		class[a] = b
		if n.Kind == wsa.GroupPoss {
			projs[a].Each(func(t relation.Tuple) { agg[b].Insert(t) })
		} else {
			next := relation.New(outSchema)
			agg[b].Each(func(t relation.Tuple) {
				if projs[a].Contains(t) {
					next.Insert(t)
				}
			})
			agg[b] = next
		}
	}
	out := newFrel(outSchema)
	for a := 0; a < m; a++ {
		out.setPart(c, m, a, agg[class[a]])
	}
	return out, nil
}

// evalRepair implements repair-by-key: every world branches into one
// world per way of keeping one row of each key group of its answer.
// Only a group that conflicts — two of its distinct rows occur together
// in some world — changes anything. One of certain rows alone becomes a
// fresh component with one single-row alternative per row, as on a
// certain answer: linear in the answer, ∏ |group| worlds. The others
// link the components holding their rows into clusters, each refined:
// its components merged, and each merged alternative split into one
// alternative per choice of a row in each conflicting group present in
// the world it stands for.
func (e *engine) evalRepair(n *wsa.RepairKey, sub *frel, outSchema relation.Schema) (*frel, error) {
	sub = e.promote(sub)
	idx, err := sub.schema.Indexes(n.Attrs)
	if err != nil {
		return nil, err
	}
	// Rows by key group: a group's certain rows first, then its part
	// rows, each with the slot it came from (one slot's rows adjacent).
	groups := relation.NewGroupMap(idx, sub.cert.Len())
	sub.cert.Each(func(t relation.Tuple) { groups.Add(t) })
	from := map[*relation.Group][]slotRef{}
	comps := sub.uncertainComps()
	for _, c := range comps {
		for a, p := range sub.parts[c] {
			if p != nil {
				p.Each(func(t relation.Tuple) {
					g := groups.Add(t)
					from[g] = append(from[g], slotRef{c, a})
				})
			}
		}
	}
	gs := append([]*relation.Group{}, groups.Groups()...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].Key.Less(gs[j].Key) })
	type unit struct {
		comps  []int
		groups []*relation.Group
	}
	var units []unit
	var needs [][]int
	moved := map[*relation.Group]bool{}
	out := newFrel(outSchema)
	for _, g := range gs {
		ncert := len(g.Rows) - len(from[g])
		switch {
		case !repairConflicts(g.Rows, ncert, from[g]):
			if ncert > 0 {
				out.cert.Insert(g.Rows[0]) // the group's only certain row
			}
		case ncert == len(g.Rows):
			units = append(units, unit{groups: []*relation.Group{g}})
		default:
			moved[g] = true
			ids := make([]int, len(from[g]))
			for i, s := range from[g] {
				ids[i] = s.c
			}
			needs = append(needs, ids)
		}
	}
	cluster := map[int]int{} // component → its unit
	for _, cl := range e.coupledGroups(needs) {
		for _, c := range cl {
			cluster[c] = len(units)
		}
		units = append(units, unit{comps: cl})
	}
	for _, g := range gs {
		if moved[g] {
			u := &units[cluster[from[g][0].c]]
			u.groups = append(u.groups, g)
		}
	}
	// Part rows stay in their slots, but for those of moved groups.
	for _, c := range comps {
		_, refined := cluster[c]
		for a, p := range sub.parts[c] {
			if p != nil && refined {
				kept := relation.New(outSchema)
				p.Each(func(t relation.Tuple) {
					if !moved[groups.Get(t, idx)] {
						kept.InsertDistinct(t)
					}
				})
				p = kept
			}
			if p != nil && p.Len() > 0 {
				out.setPart(c, e.arity[c], a, p)
			}
		}
	}
	for _, u := range units {
		err := e.refine("repair-by-key over an uncertain answer", u.comps, out, func(alt func(int) int) ([]*relation.Relation, error) {
			var choices [][]relation.Tuple // per group present, its rows here
			var lens []int
			n := 1
			for _, g := range u.groups {
				ncert := len(g.Rows) - len(from[g])
				rows := append([]relation.Tuple{}, g.Rows[:ncert]...)
				for r, s := range from[g] {
					if s.a == alt(slices.Index(u.comps, s.c)) {
						rows = append(rows, g.Rows[ncert+r])
					}
				}
				slices.SortFunc(rows, relation.Tuple.Compare)
				if rows = slices.CompactFunc(rows, func(a, b relation.Tuple) bool { return a.Compare(b) == 0 }); len(rows) > 0 {
					if n > e.budget/len(rows) {
						return nil, e.overBudget("repair-by-key over an uncertain answer", "refinement", u.comps, big.NewInt(int64(n*len(rows))))
					}
					n *= len(rows)
					choices, lens = append(choices, rows), append(lens, len(rows))
				}
			}
			if len(choices) == 0 {
				return nil, nil
			}
			repairs := make([]*relation.Relation, n)
			for j := range repairs {
				repairs[j] = relation.NewSized(outSchema, len(choices))
				for gi, rows := range choices {
					repairs[j].InsertDistinct(rows[wsd.MergeAlt(lens, gi, j)])
				}
			}
			return repairs, nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Parts left on the members fold onto the refined roots.
	return e.promote(out), nil
}

// slotRef names one (component, alternative) slot of an frel.
type slotRef struct{ c, a int }

// repairConflicts reports whether a key group's rows — the first ncert
// certain, the others from the slots in from, one slot's rows adjacent
// — hold two distinct rows that occur together in some world: two
// certain rows, a certain row and a different part row, different rows
// of two components (independent, so some world holds both), or two
// rows of one slot.
func repairConflicts(rows []relation.Tuple, ncert int, from []slotRef) bool {
	differ := slices.ContainsFunc(rows, func(t relation.Tuple) bool { return !t.Equal(rows[0]) })
	if ncert > 0 || !differ {
		return differ
	}
	for i := 1; i < len(from); i++ {
		if from[i] == from[i-1] || from[i].c != from[0].c {
			return true
		}
	}
	return false
}
