package isql

import (
	"fmt"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
)

// preAnswerName carries the where-filtered join during select
// evaluation; the world-manipulating clauses operate on it.
const preAnswerName = "$pre"

// evalCtx is the runtime environment for expression evaluation: the
// current world, the current tuple (schema + values), lifted subquery
// relations, and the chain of enclosing contexts for correlated
// subqueries.
type evalCtx struct {
	session *Session
	world   worldset.World
	names   []string
	schemas []relation.Schema
	schema  relation.Schema
	tuple   relation.Tuple
	lifted  map[*SelectStmt]int
	outer   *evalCtx
	// groupRows is set while evaluating aggregate expressions: the
	// tuples of the current group.
	groupRows []relation.Tuple
}

// scopeChain returns the tuple schemas of the context chain, innermost
// first, for static analysis of subqueries.
func (c *evalCtx) scopeChain() []relation.Schema {
	var out []relation.Schema
	for cur := c; cur != nil; cur = cur.outer {
		out = append(out, cur.schema)
	}
	return out
}

// evalSelect evaluates sel on ws. The returned world-set contains the
// input relations of ws followed by one answer relation (named "$ans").
// outer, when non-nil, supplies the enclosing tuple environment for
// correlated subquery evaluation.
func (s *Session) evalSelect(sel *SelectStmt, ws *worldset.WorldSet, outer *evalCtx) (*worldset.WorldSet, error) {
	var scopes []relation.Schema
	if outer != nil {
		scopes = outer.scopeChain()
	}
	info, err := s.analyzeSelect(sel, ws.Names(), ws.Schemas(), scopes)
	if err != nil {
		return nil, err
	}
	k0 := ws.NumRelations()

	// Phase 1: from items (each extends the world-set by one relation,
	// possibly multiplying worlds via nested choice-of).
	cur := ws
	fromIdx := make([]int, len(sel.From))
	for i, item := range sel.From {
		cur, err = s.evalFromItem(item, cur, info.fromSchemas[i])
		if err != nil {
			return nil, err
		}
		fromIdx[i] = cur.NumRelations() - 1
	}
	divIdx := -1
	if sel.Divide != nil {
		cur, err = s.evalFromItem(sel.Divide.Item, cur, info.divSchema)
		if err != nil {
			return nil, err
		}
		divIdx = cur.NumRelations() - 1
	}

	// Phase 2: lift uncorrelated expression subqueries.
	lifted := map[*SelectStmt]int{}
	for _, sub := range info.uncorrelated {
		cur, err = s.evalSelect(sub, cur, nil)
		if err != nil {
			return nil, err
		}
		lifted[sub] = cur.NumRelations() - 1
	}

	// Phase 3: per world, the where-filtered join (the pre-answer).
	ctxOf := func(w worldset.World) *evalCtx {
		return &evalCtx{
			session: s, world: w,
			names: cur.Names(), schemas: cur.Schemas(),
			schema: info.joined, lifted: lifted, outer: outer,
		}
	}
	pre, err := extendEach(cur, preAnswerName, info.joined, func(w worldset.World) (*relation.Relation, error) {
		return s.joinWorld(w, fromIdx, info, sel.Where, ctxOf(w))
	})
	if err != nil {
		return nil, err
	}

	// Phase 4: choice-of and repair-by-key split worlds on the
	// pre-answer (§3, order of evaluation).
	if len(sel.ChoiceOf) > 0 {
		pre, err = wsa.ChoiceLast(pre, refNames(sel.ChoiceOf), s.maxWorlds())
		if err != nil {
			return nil, err
		}
	}
	if len(sel.RepairKey) > 0 {
		pre, err = wsa.RepairLast(pre, refNames(sel.RepairKey), s.maxWorlds())
		if err != nil {
			return nil, err
		}
	}

	// Phase 5: per world, project/aggregate the pre-answer into the
	// output relation.
	preIdx := pre.NumRelations() - 1
	withOut, err := extendEach(pre, answerName, info.out, func(w worldset.World) (*relation.Relation, error) {
		ctx := ctxOf(w[:preIdx])
		switch {
		case sel.Divide != nil:
			return s.evalDivision(sel, info, w[preIdx], w[divIdx], ctx)
		case info.aggregated:
			return s.evalAggregation(sel, info, w[preIdx], ctx)
		}
		return s.evalProjection(sel, info, w[preIdx], ctx)
	})
	if err != nil {
		return nil, err
	}

	// Phase 6: possible/certain — pγ/cγ with the worlds grouped by the
	// group-worlds-by clause (all together without one).
	if sel.Close != CloseNone {
		kind := wsa.GroupCert
		if sel.Close == ClosePossible {
			kind = wsa.GroupPoss
		}
		withOut, err = wsa.GroupLast(withOut, kind, nil, info.out, s.worldGroupKey(sel.GroupWorlds, withOut, preIdx))
		if err != nil {
			return nil, err
		}
	}

	// Phase 7: drop the intermediate relations, keeping the original
	// k0 relations and the answer.
	out := worldset.New(
		append(append([]string{}, ws.Names()...), answerName),
		append(append([]relation.Schema{}, ws.Schemas()...), info.out))
	withOut.Each(func(w worldset.World) {
		out.Add(append(append(worldset.World{}, w[:k0]...), w[len(w)-1]))
	})
	return out, nil
}

// extendEach is worldset.Extend for an f that can fail: every world
// gains the relation f computes in it, under name and schema.
func extendEach(ws *worldset.WorldSet, name string, schema relation.Schema,
	f func(worldset.World) (*relation.Relation, error)) (*worldset.WorldSet, error) {
	out := worldset.New(
		append(append([]string{}, ws.Names()...), name),
		append(append([]relation.Schema{}, ws.Schemas()...), schema))
	var evalErr error
	ws.Each(func(w worldset.World) {
		if evalErr != nil {
			return
		}
		r, err := f(w)
		if err != nil {
			evalErr = err
			return
		}
		out.Add(append(append(worldset.World{}, w...), r))
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// worldGroupKey returns the group-worlds-by key of a world of ws: the
// grouping query's answer in that world, or the pre-answer (at preIdx)
// projected to the grouping attributes.
func (s *Session) worldGroupKey(gw *GroupWorldsClause, ws *worldset.WorldSet, preIdx int) func(worldset.World) (worldset.World, error) {
	names, schemas := ws.Names(), ws.Schemas()
	return func(w worldset.World) (worldset.World, error) {
		switch {
		case gw == nil:
			return nil, nil
		case gw.Query != nil:
			single := worldset.New(names, schemas)
			single.Add(w)
			res, err := s.evalSelect(gw.Query, single, nil)
			if err != nil {
				return nil, err
			}
			// One input world: its answers are as many as its worlds.
			answers := wsa.DistinctLast(res)
			if len(answers) != 1 {
				return nil, fmt.Errorf("isql: group-worlds-by query must not create worlds")
			}
			return worldset.World{answers[0]}, nil
		}
		attrs := refNames(gw.Attrs)
		idx, err := schemas[preIdx].Indexes(attrs)
		if err != nil {
			return nil, err
		}
		return worldset.World{w[preIdx].Project(idx, relation.NewSchema(attrs...))}, nil
	}
}

// evalFromItem extends the world-set with one relation: a base table or
// view copy, or a derived table. The new relation carries the qualified
// schema computed by analysis.
func (s *Session) evalFromItem(item FromItem, cur *worldset.WorldSet, qualified relation.Schema) (*worldset.WorldSet, error) {
	sub := item.Sub
	if sub == nil {
		sub = s.views[item.Table] // nil unless the item names a view
	}
	if sub != nil {
		res, err := s.evalSelect(sub, cur, nil)
		if err != nil {
			return nil, err
		}
		return relabelLast(res, qualified), nil
	}
	idx := cur.IndexOf(item.Table)
	if idx < 0 {
		return nil, fmt.Errorf("isql: unknown relation %q", item.Table)
	}
	return cur.Extend(preAnswerName, qualified, func(w worldset.World) *relation.Relation {
		return w[idx].WithSchema(qualified)
	}), nil
}

// relabelLast renames the last relation's attributes (and keeps the
// reserved relation name).
func relabelLast(ws *worldset.WorldSet, schema relation.Schema) *worldset.WorldSet {
	k := ws.NumRelations() - 1
	schemas := append([]relation.Schema{}, ws.Schemas()...)
	schemas[k] = schema
	out := worldset.New(ws.Names(), schemas)
	ws.Each(func(w worldset.World) {
		nw := append(worldset.World{}, w...)
		nw[k] = nw[k].WithSchema(schema)
		out.Add(nw)
	})
	return out
}

// joinWorld computes the where-filtered product of the from relations in
// one world.
func (s *Session) joinWorld(w worldset.World, fromIdx []int, info *selectInfo, where Expr, ctx *evalCtx) (*relation.Relation, error) {
	out := relation.New(info.joined)
	if len(fromIdx) == 0 {
		return out, nil
	}
	rels := make([][]relation.Tuple, len(fromIdx))
	for i, idx := range fromIdx {
		rels[i] = w[idx].Tuples()
		if len(rels[i]) == 0 {
			return out, nil
		}
	}
	current := make(relation.Tuple, 0, len(info.joined))
	var rec func(level int) error
	rec = func(level int) error {
		if level == len(rels) {
			t := current.Clone()
			if where != nil {
				ctx.tuple = t
				keep, err := ctx.evalBool(where)
				if err != nil {
					return err
				}
				if !keep {
					return nil
				}
			}
			out.Insert(t)
			return nil
		}
		for _, t := range rels[level] {
			current = append(current, t...)
			if err := rec(level + 1); err != nil {
				return err
			}
			current = current[:len(current)-len(t)]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// evalRow evaluates the select list in the current context.
func (c *evalCtx) evalRow(exprs []Expr) (relation.Tuple, error) {
	row := make(relation.Tuple, len(exprs))
	for i, e := range exprs {
		v, err := c.evalExpr(e)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// evalProjection computes the plain (non-aggregated) select list over
// the pre-answer rows.
func (s *Session) evalProjection(sel *SelectStmt, info *selectInfo, pre *relation.Relation, ctx *evalCtx) (*relation.Relation, error) {
	out := relation.New(info.out)
	if sel.Star {
		pre.Each(func(t relation.Tuple) { out.Insert(t) })
		return out, nil
	}
	var evalErr error
	pre.Each(func(t relation.Tuple) {
		if evalErr != nil {
			return
		}
		ctx.tuple = t
		row, err := ctx.evalRow(info.outExprs)
		if err != nil {
			evalErr = err
			return
		}
		out.Insert(row)
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// evalAggregation groups the pre-answer rows by the group-by attributes
// and evaluates the select list once per group (aggregates see the
// group's rows).
func (s *Session) evalAggregation(sel *SelectStmt, info *selectInfo, pre *relation.Relation, ctx *evalCtx) (*relation.Relation, error) {
	gIdx, err := info.joined.Indexes(refNames(sel.GroupBy))
	if err != nil {
		return nil, err
	}
	// Groups in first-appearance order, each group's rows in pre.Tuples()
	// order, so float sums and averages add up in one fixed order. gIdx
	// is empty, not nil (GroupMap's whole-tuple projection), without a
	// group-by: every row falls into the one group of the empty key.
	groups := relation.NewGroupMap(gIdx, 0)
	for _, t := range pre.Tuples() {
		groups.Add(t)
	}
	out := relation.New(info.out)
	// A global aggregate over an empty input produces one row (e.g.
	// count(*) = 0) only when there is no group-by, matching SQL. The
	// group must be non-nil: nil marks "no aggregation context".
	all := groups.Groups()
	if len(all) == 0 && len(sel.GroupBy) == 0 {
		all = []*relation.Group{{Rows: []relation.Tuple{}}}
	}
	defer func() { ctx.groupRows = nil }()
	for _, g := range all {
		rows := g.Rows
		ctx.groupRows = rows
		if len(rows) > 0 {
			ctx.tuple = rows[0]
		} else {
			ctx.tuple = make(relation.Tuple, len(info.joined))
		}
		row, err := ctx.evalRow(info.outExprs)
		if err != nil {
			return nil, err
		}
		out.Insert(row)
	}
	return out, nil
}

// evalDivision implements the `divide by ... on ...` extension: output
// tuples o (the select list over dividend rows) such that for every
// divisor row d some dividend row j with the same select-list values
// satisfies the ON condition against d.
func (s *Session) evalDivision(sel *SelectStmt, info *selectInfo, pre, div *relation.Relation, ctx *evalCtx) (*relation.Relation, error) {
	out := relation.New(info.out)
	combined := info.joined.Concat(info.divSchema)
	divRows := div.Tuples()
	preRows := pre.Tuples()

	// Candidate outputs with their witness rows.
	cands := relation.NewGroupMap(nil, len(preRows))
	witnesses := map[*relation.Group][]relation.Tuple{}
	for _, j := range preRows {
		ctx.tuple = j
		row, err := ctx.evalRow(info.outExprs)
		if err != nil {
			return nil, err
		}
		c := cands.Add(row)
		witnesses[c] = append(witnesses[c], j)
	}
	dctx := &evalCtx{
		session: s, world: ctx.world, names: ctx.names, schemas: ctx.schemas,
		schema: combined, lifted: ctx.lifted, outer: ctx.outer,
	}
	for _, c := range cands.Groups() {
		covered := true
		for _, d := range divRows {
			ok := false
			for _, j := range witnesses[c] {
				t := make(relation.Tuple, 0, len(combined))
				t = append(append(t, j...), d...)
				dctx.tuple = t
				match, err := dctx.evalBool(sel.Divide.On)
				if err != nil {
					return nil, err
				}
				if match {
					ok = true
					break
				}
			}
			if !ok {
				covered = false
				break
			}
		}
		if covered {
			out.Insert(c.Key)
		}
	}
	return out, nil
}

// refNames flattens column references to their written names.
func refNames(refs []ColumnRef) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.Full()
	}
	return out
}
