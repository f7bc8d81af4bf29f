package wsdexec

import (
	"sort"

	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/wsa"
)

// This file is the execution-side half of cost-based planning: ordering
// the pieces of n-ary ×/⋈ chains by their estimated cardinality before
// lowering. The factorized product evaluates pairwise, so a left-deep
// chain materializes every prefix product; putting the smallest
// estimated pieces first minimizes those intermediates (the classic
// join-ordering argument, applied to the certain and per-alternative
// partitions alike). Reordering never changes the represented
// world-set: the chain is rebuilt smallest-first and wrapped in a
// projection restoring the original column order, so results stay
// byte-identical with the naive order.

// productChain collects the leaves of a maximal pure-product subtree
// (joins carry predicates anchored to their own operand pair, so only
// predicate-free products reorder freely).
func productChain(q wsa.Expr) []wsa.Expr {
	if n, ok := q.(*wsa.BinOp); ok && n.Kind == wsa.OpProduct {
		return append(productChain(n.L), productChain(n.R)...)
	}
	return []wsa.Expr{q}
}

// reorderChain rebuilds a product chain's leaves in ascending estimated
// cardinality. It declines (returning ok=false) when the chain is too
// short to have intermediates, a leaf's schema cannot be computed, or
// column names collide across leaves (the restoring projection would be
// ambiguous).
func reorderChain(leaves []wsa.Expr, st rewrite.Stats, env *wsa.Env) (wsa.Expr, bool) {
	if len(leaves) < 3 {
		return nil, false
	}
	var columns []string
	seen := map[string]bool{}
	for _, l := range leaves {
		s, err := l.Schema(env)
		if err != nil {
			return nil, false
		}
		for _, c := range s {
			if seen[c] {
				return nil, false
			}
			seen[c] = true
			columns = append(columns, c)
		}
	}
	order := make([]int, len(leaves))
	cards := make([]float64, len(leaves))
	for i, l := range leaves {
		order[i] = i
		cards[i] = rewrite.EstimateCard(l, st)
	}
	sort.SliceStable(order, func(a, b int) bool { return cards[order[a]] < cards[order[b]] })
	changed := false
	for i, o := range order {
		if i != o {
			changed = true
			break
		}
	}
	if !changed {
		return nil, false
	}
	chain := leaves[order[0]]
	for _, o := range order[1:] {
		chain = &wsa.BinOp{Kind: wsa.OpProduct, L: chain, R: leaves[o]}
	}
	return &wsa.Project{Columns: columns, From: chain}, true
}

// reorderProducts walks the plan and reorders every maximal product
// chain of three or more pieces by estimated cardinality, recursing
// into the pieces themselves first (selections already pushed below the
// chain by Prelower are part of the leaf estimates). It reports whether
// any chain moved; a subtree in which none did is returned as is, so a
// plan without product chains costs one walk and no allocation.
func reorderProducts(q wsa.Expr, st rewrite.Stats, env *wsa.Env) (wsa.Expr, bool) {
	switch n := q.(type) {
	case *wsa.Select:
		if from, ok := reorderProducts(n.From, st, env); ok {
			return &wsa.Select{Pred: n.Pred, From: from}, true
		}
	case *wsa.Project:
		if from, ok := reorderProducts(n.From, st, env); ok {
			return &wsa.Project{Columns: n.Columns, From: from}, true
		}
	case *wsa.Rename:
		if from, ok := reorderProducts(n.From, st, env); ok {
			return &wsa.Rename{Pairs: n.Pairs, From: from}, true
		}
	case *wsa.Choice:
		if from, ok := reorderProducts(n.From, st, env); ok {
			return &wsa.Choice{Attrs: n.Attrs, From: from}, true
		}
	case *wsa.Group:
		if from, ok := reorderProducts(n.From, st, env); ok {
			return &wsa.Group{Kind: n.Kind, GroupBy: n.GroupBy, Proj: n.Proj, From: from}, true
		}
	case *wsa.Close:
		if from, ok := reorderProducts(n.From, st, env); ok {
			return &wsa.Close{Kind: n.Kind, From: from}, true
		}
	case *wsa.RepairKey:
		if from, ok := reorderProducts(n.From, st, env); ok {
			return &wsa.RepairKey{Attrs: n.Attrs, From: from}, true
		}
	case *wsa.Join:
		l, lok := reorderProducts(n.L, st, env)
		r, rok := reorderProducts(n.R, st, env)
		if lok || rok {
			return &wsa.Join{L: l, R: r, Pred: n.Pred}, true
		}
	case *wsa.BinOp:
		if n.Kind != wsa.OpProduct {
			l, lok := reorderProducts(n.L, st, env)
			r, rok := reorderProducts(n.R, st, env)
			if lok || rok {
				return &wsa.BinOp{Kind: n.Kind, L: l, R: r}, true
			}
			return q, false
		}
		leaves := productChain(n)
		changed := false
		for i, l := range leaves {
			var ok bool
			leaves[i], ok = reorderProducts(l, st, env)
			changed = changed || ok
		}
		if out, ok := reorderChain(leaves, st, env); ok {
			return out, true
		}
		if !changed && leftDeep(n) {
			return q, false
		}
		chain := leaves[0]
		for _, l := range leaves[1:] {
			chain = &wsa.BinOp{Kind: wsa.OpProduct, L: chain, R: l}
		}
		return chain, true
	}
	return q, false
}

// leftDeep reports whether the product chain rooted at n already has
// the shape the rebuild produces: no right operand is itself a product.
func leftDeep(n *wsa.BinOp) bool {
	for {
		if r, ok := n.R.(*wsa.BinOp); ok && r.Kind == wsa.OpProduct {
			return false
		}
		l, ok := n.L.(*wsa.BinOp)
		if !ok || l.Kind != wsa.OpProduct {
			return true
		}
		n = l
	}
}
