package rewrite

import (
	"container/heap"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/wsa"
)

// The plan cost model lives in estimate.go: a cardinality-propagating
// estimator (Cost, CostOn) seeded by decomposition statistics. This
// file is the search over the Figure 7 equivalence space that minimizes
// it, pruned branch-and-bound style against the best complete plan.

// SearchExpanded and SearchPruned count, across every rewrite search in
// the process, the candidate plans expanded versus abandoned by the
// branch-and-bound bound — exported at isqld /metrics as
// wsdb_rewrite_expanded_total / wsdb_rewrite_pruned_total.
var (
	SearchExpanded obs.Counter
	SearchPruned   obs.Counter
)

// SearchStats reports one rewrite search's effort: candidates expanded
// (popped and rewritten) versus pruned (discarded because their cost
// bound already exceeded the best complete plan).
type SearchStats struct {
	Expanded int
	Pruned   int
}

// children returns the direct subqueries of q.
func children(q wsa.Expr) []wsa.Expr {
	switch n := q.(type) {
	case *wsa.Select:
		return []wsa.Expr{n.From}
	case *wsa.Project:
		return []wsa.Expr{n.From}
	case *wsa.Rename:
		return []wsa.Expr{n.From}
	case *wsa.BinOp:
		return []wsa.Expr{n.L, n.R}
	case *wsa.Join:
		return []wsa.Expr{n.L, n.R}
	case *wsa.Choice:
		return []wsa.Expr{n.From}
	case *wsa.Group:
		return []wsa.Expr{n.From}
	case *wsa.Close:
		return []wsa.Expr{n.From}
	case *wsa.RepairKey:
		return []wsa.Expr{n.From}
	}
	return nil
}

// withChildren rebuilds q with replaced subqueries (same arity as
// children(q)).
func withChildren(q wsa.Expr, cs []wsa.Expr) wsa.Expr {
	switch n := q.(type) {
	case *wsa.Select:
		return &wsa.Select{Pred: n.Pred, From: cs[0]}
	case *wsa.Project:
		return &wsa.Project{Columns: n.Columns, From: cs[0]}
	case *wsa.Rename:
		return &wsa.Rename{Pairs: n.Pairs, From: cs[0]}
	case *wsa.BinOp:
		return &wsa.BinOp{Kind: n.Kind, L: cs[0], R: cs[1]}
	case *wsa.Join:
		return &wsa.Join{L: cs[0], R: cs[1], Pred: n.Pred}
	case *wsa.Choice:
		return &wsa.Choice{Attrs: n.Attrs, From: cs[0]}
	case *wsa.Group:
		return &wsa.Group{Kind: n.Kind, GroupBy: n.GroupBy, Proj: n.Proj, From: cs[0]}
	case *wsa.Close:
		return &wsa.Close{Kind: n.Kind, From: cs[0]}
	case *wsa.RepairKey:
		return &wsa.RepairKey{Attrs: n.Attrs, From: cs[0]}
	}
	return q
}

// rewritesAt returns all expressions obtained by applying a single rule
// once, at the root or at any descendant position.
func rewritesAt(ctx *Context, q wsa.Expr, rules []Rule) []candidate {
	var out []candidate
	for _, r := range rules {
		for _, nq := range r.Apply(ctx, q) {
			out = append(out, candidate{expr: nq, rule: r.ID})
		}
	}
	cs := children(q)
	for i, c := range cs {
		for _, sub := range rewritesAt(ctx, c, rules) {
			ncs := append([]wsa.Expr{}, cs...)
			ncs[i] = sub.expr
			out = append(out, candidate{expr: withChildren(q, ncs), rule: sub.rule})
		}
	}
	return out
}

type candidate struct {
	expr wsa.Expr
	rule string
}

// Step records one rewrite in an optimization trace.
type Step struct {
	// Rule is the equation that fired, e.g. "(20)".
	Rule string
	// Expr is the whole query after the rewrite.
	Expr wsa.Expr
}

// item is a search-frontier entry.
type item struct {
	expr  wsa.Expr
	cost  float64
	trace []Step
}

type frontier []*item

func (f frontier) Len() int            { return len(f) }
func (f frontier) Less(i, j int) bool  { return f[i].cost < f[j].cost }
func (f frontier) Swap(i, j int)       { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x interface{}) { *f = append(*f, x.(*item)) }
func (f *frontier) Pop() interface{} {
	old := *f
	n := len(old)
	it := old[n-1]
	*f = old[:n-1]
	return it
}

// Options tune the optimizer's search.
type Options struct {
	// MaxExpansions bounds the number of expressions explored
	// (default 4000).
	MaxExpansions int
	// MaxSize prunes expressions with more AST nodes than this
	// (default 80).
	MaxSize int
	// Stats seeds the cost estimator with decomposition statistics
	// (nil: the defaultCard model).
	Stats Stats
	// NoPrune disables the branch-and-bound bound (the pre-stats
	// exhaustive behavior) — the ablation arm of the PLAN benchmarks.
	NoPrune bool
	// Search, when non-nil, receives the expanded/pruned counts of this
	// search (also accumulated into SearchExpanded/SearchPruned).
	Search *SearchStats
}

func (o *Options) maxExpansions() int {
	if o == nil || o.MaxExpansions == 0 {
		return 4000
	}
	return o.MaxExpansions
}

func (o *Options) maxSize() int {
	if o == nil || o.MaxSize == 0 {
		return 80
	}
	return o.MaxSize
}

func (o *Options) stats() Stats {
	if o == nil {
		return nil
	}
	return o.Stats
}

// pruneSlack is the branch-and-bound factor: a candidate whose cost
// exceeds pruneSlack times the best complete plan found so far is
// pruned — its lower bound (no rewrite sequence improves a plan by more
// than pruneSlack, empirically generous) already exceeds a known plan.
const pruneSlack = 16

// Optimize searches the rewrite space for the cheapest equivalent plan
// under Cost, using the verified Figure 7 equivalences. It returns the
// best plan found and the rewrite trace that produced it.
//
// completeInput declares that the query will run on a singleton
// world-set (a complete database); this additionally enables the rules
// that are only sound in that case — the setting of all rewriting
// examples in §6 of the paper.
func Optimize(q wsa.Expr, env *wsa.Env, completeInput bool) (wsa.Expr, []Step) {
	return OptimizeOpts(q, env, completeInput, nil)
}

// Prelower normalizes q for engines that evaluate over factored
// world-set representations (internal/wsdexec): selections are first
// pushed below the entangling binary operators (PushSelections), then
// the cost-based search runs restricted to the equivalences sound on
// arbitrary world-sets, with tight bounds suitable for per-query use.
// The rules that matter most here are the group-worlds-by reductions
// ((12)–(14)), the poss/choice-of absorption (11) and the poss/cert
// fusions ((15), (16), (22), (23)): every group-worlds-by or choice-of
// they eliminate is one less operator that can entangle decomposition
// components and force the factorized engine to merge or enumerate,
// and every selection evaluated before a ×/⋈/∩/− shrinks the operand
// a merge would have to cover.
func Prelower(q wsa.Expr, env *wsa.Env) wsa.Expr {
	out, _ := PrelowerStats(q, env, nil, nil)
	return out
}

// PrelowerStats is Prelower with the search's cost model seeded by
// decomposition statistics (the compile-time half of cost-based
// planning) and the search effort reported into search (may be nil).
// It also reports whether the plan it returns differs from q: the
// pushdown moved something or the search took at least one step (no
// equivalence lifts a selection back above the operator it was pushed
// below, so the two cannot cancel).
func PrelowerStats(q wsa.Expr, env *wsa.Env, st Stats, search *SearchStats) (wsa.Expr, bool) {
	pushed, changed := pushSelections(q, env)
	out, steps := OptimizeOpts(pushed, env, false,
		&Options{MaxExpansions: 200, MaxSize: 60, Stats: st, Search: search})
	return out, changed || len(steps) > 0
}

// PushSelections deterministically pushes selection conjuncts below the
// entangling binary operators — single-sided conjuncts of a σ over ×/⋈
// move into the operand they reference, a σ over ∩ distributes to both
// sides, a σ over − moves to the left side. Per world this is the
// classic relational pushdown (sound on every world-set, verified in
// equivalences_test.go); for the factorized engine it matters because
// operands are filtered before the operator inspects which
// decomposition components they depend on: a selection that empties a
// component's contribution removes it from the entanglement set, so
// merges stay small or vanish. Unlike the Figure 7 search this is a
// normalization, not a cost decision — the rewrite never increases
// per-tuple predicate work, so it always applies.
func PushSelections(q wsa.Expr, env *wsa.Env) wsa.Expr {
	out, _ := pushSelections(q, env)
	return out
}

// pushSelections is PushSelections, also reporting whether any
// operator moved (the walk rebuilds every node, so pointer identity
// cannot tell).
func pushSelections(q wsa.Expr, env *wsa.Env) (wsa.Expr, bool) {
	ctx := &Context{Env: env}
	changed := false
	var walk func(q wsa.Expr) wsa.Expr
	walk = func(q wsa.Expr) wsa.Expr {
		if cs := children(q); len(cs) > 0 {
			nc := make([]wsa.Expr, len(cs))
			for i, c := range cs {
				nc[i] = walk(c)
			}
			q = withChildren(q, nc)
		}
		if p, ok := q.(*wsa.Project); ok {
			out := pushProject(ctx, p)
			if out != wsa.Expr(p) {
				changed = true
			}
			return out
		}
		s, ok := q.(*wsa.Select)
		if !ok {
			return q
		}
		switch n := s.From.(type) {
		case *wsa.Select:
			// σ_a(σ_b(q)) = σ_{a∧b}(q): fuse so conjuncts trapped
			// behind an inner selection still reach the split below.
			changed = true
			return walk(&wsa.Select{Pred: ra.And{L: s.Pred, R: n.Pred}, From: n.From})
		case *wsa.BinOp:
			switch n.Kind {
			case wsa.OpProduct:
				l, r, rest := splitConjuncts(ctx, s.Pred, n.L, n.R)
				if l == nil && r == nil {
					return q
				}
				changed = true
				out := wsa.NewProduct(wrapSelect(n.L, l), wrapSelect(n.R, r))
				return walk(wrapSelect(out, rest))
			case wsa.OpIntersect:
				changed = true
				return wsa.NewIntersect(walk(&wsa.Select{Pred: s.Pred, From: n.L}),
					walk(&wsa.Select{Pred: s.Pred, From: n.R}))
			case wsa.OpDiff:
				changed = true
				return wsa.NewDiff(walk(&wsa.Select{Pred: s.Pred, From: n.L}), n.R)
			}
		case *wsa.Join:
			l, r, rest := splitConjuncts(ctx, s.Pred, n.L, n.R)
			if l == nil && r == nil {
				return q
			}
			changed = true
			return &wsa.Join{L: wrapSelect(n.L, l), R: wrapSelect(n.R, r),
				Pred: andAll(append(conjuncts(n.Pred, nil), rest...))}
		}
		return q
	}
	return walk(q), changed
}

// pushProject distributes a projection over a product when the column
// list splits cleanly: a left-operand prefix followed by a
// right-operand suffix, every column unambiguous (absent from the other
// side's schema). π_{xs,ys}(q1 × q2) = π_{xs}(q1) × π_{ys}(q2) holds
// per world in both set and bag semantics; narrowing the operands
// before the product shrinks the tuples any component merge has to
// expand. Interleaved or ambiguous column lists are left alone — the
// rewrite must not reorder the output schema.
func pushProject(ctx *Context, p *wsa.Project) wsa.Expr {
	b, ok := p.From.(*wsa.BinOp)
	if !ok || b.Kind != wsa.OpProduct {
		return p
	}
	lAttrs, rAttrs := schemaAttrs(ctx, b.L), schemaAttrs(ctx, b.R)
	if lAttrs == nil || rAttrs == nil {
		return p
	}
	ls, rs := asSet(lAttrs), asSet(rAttrs)
	k := 0
	for k < len(p.Columns) && ls[p.Columns[k]] && !rs[p.Columns[k]] {
		k++
	}
	if k == 0 || k == len(p.Columns) {
		return p
	}
	for _, c := range p.Columns[k:] {
		if !rs[c] || ls[c] {
			return p
		}
	}
	return wsa.NewProduct(
		pushProject(ctx, &wsa.Project{Columns: p.Columns[:k], From: b.L}),
		pushProject(ctx, &wsa.Project{Columns: p.Columns[k:], From: b.R}))
}

// conjuncts flattens nested ∧ into a list (True contributes nothing).
func conjuncts(p ra.Pred, dst []ra.Pred) []ra.Pred {
	switch n := p.(type) {
	case ra.True:
		return dst
	case ra.And:
		return conjuncts(n.R, conjuncts(n.L, dst))
	}
	return append(dst, p)
}

// andAll folds a conjunct list back into one predicate (True if empty).
func andAll(ps []ra.Pred) ra.Pred {
	if len(ps) == 0 {
		return ra.True{}
	}
	out := ps[0]
	for _, p := range ps[1:] {
		out = ra.And{L: out, R: p}
	}
	return out
}

// wrapSelect applies the conjunct list to q (q unchanged if empty).
func wrapSelect(q wsa.Expr, ps []ra.Pred) wsa.Expr {
	if len(ps) == 0 {
		return q
	}
	return &wsa.Select{Pred: andAll(ps), From: q}
}

// splitConjuncts partitions a predicate's conjuncts by the operand they
// unambiguously reference: columns entirely within exactly one
// operand's schema (and absent from the other's — shared names would
// make the reference ambiguous) go to that side, everything else stays.
// Operands that do not typecheck keep the predicate where it is.
func splitConjuncts(ctx *Context, p ra.Pred, lq, rq wsa.Expr) (l, r, rest []ra.Pred) {
	lAttrs, rAttrs := schemaAttrs(ctx, lq), schemaAttrs(ctx, rq)
	if lAttrs == nil || rAttrs == nil {
		return nil, nil, conjuncts(p, nil)
	}
	ls, rs := asSet(lAttrs), asSet(rAttrs)
	only := func(cols []string, in, other map[string]bool) bool {
		if len(cols) == 0 {
			return false
		}
		for _, col := range cols {
			if !in[col] || other[col] {
				return false
			}
		}
		return true
	}
	for _, c := range conjuncts(p, nil) {
		cols := c.Columns(nil)
		switch {
		case only(cols, ls, rs):
			l = append(l, c)
		case only(cols, rs, ls):
			r = append(r, c)
		default:
			rest = append(rest, c)
		}
	}
	return l, r, rest
}

// OptimizeOpts is Optimize with explicit search bounds. The best-first
// search is pruned branch-and-bound style: a candidate whose cost
// exceeds pruneSlack times the best complete plan found so far cannot
// (under the bound's assumption on achievable improvement) lead to a
// better plan and is dropped, and — the frontier being a min-heap —
// the search stops outright once the cheapest remaining candidate is
// past the bound, instead of burning the expansion budget on hopeless
// variants. Every plan in the space is complete (rules rewrite whole
// trees), so the incumbent is always a valid result.
func OptimizeOpts(q wsa.Expr, env *wsa.Env, completeInput bool, opt *Options) (wsa.Expr, []Step) {
	ctx := &Context{Env: env}
	var rules []Rule
	for _, r := range Rules() {
		if r.CompleteOnly && !completeInput {
			continue
		}
		rules = append(rules, r)
	}

	st := opt.stats()
	best := &item{expr: q, cost: CostOn(q, st)}
	visited := map[string]bool{q.String(): true}
	f := &frontier{best}
	heap.Init(f)

	expanded, pruned := 0, 0
	prune := func(cost float64) bool {
		return !(opt != nil && opt.NoPrune) && cost > best.cost*pruneSlack
	}
	for f.Len() > 0 && expanded < opt.maxExpansions() {
		cur := heap.Pop(f).(*item)
		if cur.cost < best.cost {
			best = cur
		}
		if prune(cur.cost) {
			// Min-heap: everything still queued costs at least this much.
			pruned += 1 + f.Len()
			break
		}
		expanded++
		for _, cand := range rewritesAt(ctx, cur.expr, rules) {
			key := cand.expr.String()
			if visited[key] || wsa.Size(cand.expr) > opt.maxSize() {
				continue
			}
			visited[key] = true
			cost := CostOn(cand.expr, st)
			if prune(cost) {
				pruned++
				continue
			}
			trace := append(append([]Step{}, cur.trace...), Step{Rule: cand.rule, Expr: cand.expr})
			heap.Push(f, &item{expr: cand.expr, cost: cost, trace: trace})
		}
	}
	SearchExpanded.Add(uint64(expanded))
	SearchPruned.Add(uint64(pruned))
	if opt != nil && opt.Search != nil {
		opt.Search.Expanded, opt.Search.Pruned = expanded, pruned
	}
	return best.expr, best.trace
}
