package isql

import (
	"math/big"
	"slices"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
)

// The bounded arm: the one way a statement reaches the session's own
// world-at-a-time evaluator. Statements outside the clean World-set
// Algebra fragment — selects and create-table-as with aggregation,
// expression subqueries, divide-by or the query form of
// group-worlds-by, and DELETE/UPDATE whose predicate or SET holds a
// subquery — are evaluated world by world, but a statement only reads
// the relations its tree mentions, so only the region of the
// decomposition those relations depend on is enumerated (wsd.Region,
// the enumeration the store's engine override shares), and each of its worlds holds only the region's relation
// closure — the mentioned relations plus whatever the region's
// components contribute to — never a copy of the rest of the catalog:
// an aggregate over, or a subquery delete from, one 3-alternative
// component costs 3 small worlds on a 2^40-world catalog of any width,
// not 2^40. Within a world the evaluator (eval.go) reads each row once,
// in storage order: a single-table pre-answer without a filter is the
// table itself, renamed, a renamed relation keeps its memoized digest,
// an IN probes an index of the subquery's answer, and only sum and avg
// sort a group, so that float addition is the same in every run.
//
// A read that aggregates over one base table builds no world when the
// table's parts are disjoint (oneTableAgg, eval=parts on the span): it
// groups each part once and evaluates each combination of the region's
// alternatives from the chosen parts' groups, the way factorised
// databases push group-by through a factorisation. Both strategies
// evaluate a group with aggRow, so their answers are the same bytes.
// The "legacy" comparison engine is this same arm with every component
// in the region and every statement evaluated world by world (see
// Session.native).

// stmtRelations records into the set every base relation the statement
// can read or write: a select's (or create-table-as query's) from
// items, following views, derived tables, expression subqueries, the
// divide-by item and the group-worlds-by query; a DELETE's or UPDATE's
// target table plus whatever its where and set expressions read.
func (s *Session) stmtRelations(st Statement, into map[string]bool) {
	// Views reference only earlier views (creation validates the body
	// against the catalog of its time), so expansion terminates; the set
	// just dedups repeated mentions.
	expandedViews := map[string]bool{}
	var visit func(node any) bool
	visit = func(node any) bool {
		switch n := node.(type) {
		case *DeleteStmt:
			into[n.Table] = true
		case *UpdateStmt:
			into[n.Table] = true
		case FromItem:
			v, isView := s.views[n.Table]
			switch {
			case n.Sub != nil: // a derived table: the walk enters it
			case !isView:
				into[n.Table] = true
			case !expandedViews[n.Table]:
				expandedViews[n.Table] = true
				walkSelect(v, visit)
			}
		}
		return true
	}
	walkStmt(st, visit)
}

// execBounded runs one statement through the bounded arm, for all four
// statement kinds that can land here. It accounts the statement under
// op (the fragment feature — or comparison engine — that routed it
// here) and times all of its work in one exec.bounded span, which
// reports the region's components, the strategy (eval=parts for a
// one-table aggregate, worlds otherwise), the worlds evaluated and the
// rows the evaluator read (Session.boundedRows); the statement's root
// span repeats the last two. It finds the region of base the
// statement's relations depend on. A native one-table aggregate whose
// parts are disjoint is evaluated per combination of the region's
// alternatives from its parts, grouped once each (oneTableAgg), and no
// world is built. Any other statement has the region enumerated and
// handed to eval, which returns the evaluated world-set and, for DML,
// the number of tuples it modified summed over those worlds. The
// worlds hold the region's relation closure, not the catalog, so eval
// finds relations by name, never by catalog index. A read (tx nil)
// answers with the distinct last relations. A write re-factorizes the
// local result with the relations outside the closure and the
// components outside the region spliced back, normalizes and stages
// the catalog on tx — one entangled step never enumerates, or
// de-factorizes, more than the components the statement reads — and
// weights the modified count by the worlds each local world stands
// for. The closure keeps the local worlds as distinct as the full
// ones, so that count is exact.
func (s *Session) execBounded(tx *store.Tx, base *wsd.DecompDB, st Statement, op string,
	eval func(*worldset.WorldSet) (*worldset.WorldSet, int, error)) (*Result, error) {
	s.Stats.recordLegacy(op)
	sp := s.span.Child("exec.bounded").Set("fragment-op", op)
	defer sp.End()
	refs := map[string]bool{}
	s.stmtRelations(st, refs)
	// The comparison engine enumerates the whole world-set by design.
	region := wsd.RegionOf(base, refs, !s.native())
	sp.SetInt("components", int64(len(region.Deps)))
	s.boundedRows = 0
	if sel, ok := st.(*SelectStmt); ok && tx == nil && s.native() {
		if agg := s.oneTableAggregate(sel, base); agg != nil {
			answers, worlds, err := agg.eval(region, s.maxWorlds())
			s.traceBounded(sp, "parts", worlds)
			if err != nil {
				return nil, err
			}
			return &Result{Answers: answers, Decomp: base}, nil
		}
	}
	ws, err := region.Enumerate(s.maxWorlds())
	if err != nil {
		return nil, err
	}
	out, modified, err := eval(ws)
	s.traceBounded(sp, "worlds", ws.Len())
	if err != nil {
		return nil, err
	}
	if tx == nil {
		return &Result{Answers: wsa.DistinctLast(out), Decomp: base}, nil
	}
	db, err := region.Refactor(out)
	if err != nil {
		return nil, err
	}
	db = db.Normalize()
	tx.SetDB(db)
	each := region.OutsideWorlds()
	return &Result{Decomp: db, Affected: satInt(each.Mul(each, big.NewInt(int64(modified))))}, nil
}

// traceBounded records how the bounded arm evaluated the statement on
// its span and the worlds and rows also on the statement's root span,
// so the slow-query log's first line shows them.
func (s *Session) traceBounded(sp *obs.Span, eval string, worlds int) {
	sp.Set("eval", eval).SetInt("worlds", int64(worlds)).SetInt("rows", s.boundedRows)
	s.root.SetInt("worlds", int64(worlds)).SetInt("rows", s.boundedRows)
}

// oneTableAgg is a native read that aggregates over one base table,
// with no subquery, view, derived table, choice-of, repair-by-key,
// divide-by or group-worlds-by, and whose parts — the table's certain
// part and its pieces in the decomposition — are disjoint. Each world's
// table is then the certain part plus the pieces its combination of
// alternatives chooses, and a group's rows in a world are its rows in
// those parts, one part after the other. So eval groups each part once
// and evaluates every combination from the chosen parts' groups,
// without building a world; the answers equal the worlds path's.
type oneTableAgg struct {
	s       *Session
	sel     *SelectStmt
	info    *selectInfo
	db      *wsd.DecompDB
	certain *relation.Relation
	pieces  []wsd.Piece // db.Pieces of the table
}

// oneTableAggregate returns sel as a one-table aggregate over db, or nil
// when it is not one: another shape, an analysis error (the worlds path
// reports it) or parts that overlap.
func (s *Session) oneTableAggregate(sel *SelectStmt, db *wsd.DecompDB) *oneTableAgg {
	if len(sel.From) != 1 || sel.From[0].Sub != nil || sel.Divide != nil ||
		len(sel.ChoiceOf) > 0 || len(sel.RepairKey) > 0 || sel.GroupWorlds != nil {
		return nil
	}
	ri := db.IndexOf(sel.From[0].Table)
	if _, isView := s.views[sel.From[0].Table]; isView || ri < 0 {
		return nil
	}
	nested := false
	walkSelect(sel, func(node any) bool {
		_, isSelect := node.(*SelectStmt)
		nested = nested || isSelect && node != any(sel)
		return !nested
	})
	if nested {
		return nil
	}
	info, err := s.analyzeSelect(sel, db.Names, db.Schemas, nil)
	if err != nil || !info.aggregated {
		return nil
	}
	a := &oneTableAgg{s: s, sel: sel, info: info, db: db, certain: db.Certain[ri], pieces: db.Pieces(ri)}
	if !a.disjoint() {
		return nil
	}
	return a
}

// disjoint reports whether no piece tuple is in the certain part or in
// a piece of another component (alternatives of one component may share
// tuples: no world chooses two of them). O(piece rows).
func (a *oneTableAgg) disjoint() bool {
	type owned struct {
		t    relation.Tuple
		comp int
	}
	seen := map[uint64][]owned{}
	ok := true
	for _, p := range a.pieces {
		p.Rel.Each(func(t relation.Tuple) {
			if !ok {
				return
			}
			h := t.Hash()
			for _, o := range seen[h] {
				ok = ok && (o.comp == p.Comp || !o.t.Equal(t))
			}
			ok = ok && !a.certain.Contains(t)
			seen[h] = append(seen[h], owned{t, p.Comp})
		})
		if !ok {
			return false
		}
	}
	return true
}

// aggKey is one group-by key of a one-table aggregate: the rows the
// current combination's parts hold under it, and the least of them. n
// is the key's rows over all parts, the most a combination gathers.
type aggKey struct {
	rows  []relation.Tuple
	least relation.Tuple
	n     int
}

// aggPart is one part's rows under one key, and the least of them. rows
// may be a bucket of the part's cached index, shared by every reader of
// the snapshot: it is copied, never sorted.
type aggPart struct {
	key   *aggKey
	rows  []relation.Tuple
	least relation.Tuple
}

// eval answers the aggregate over the region's combinations and
// returns how many it evaluated. The parts are grouped on the first
// combination — a refused or empty region groups none — each read
// once: a part of at least relation.IndexProbeMin rows, without a where
// clause, through the buckets of its cached IndexOn(group-by) index.
// Every combination then gathers each key's rows from the certain part
// and its chosen pieces into the key's own slice, evaluates the select
// list per key (aggRow), and adds its answer to a one-relation
// world-set, whose distinct answers are listed as the worlds path lists
// them.
func (a *oneTableAgg) eval(region *wsd.Region, budget int) ([]*relation.Relation, int, error) {
	s, sel, info := a.s, a.sel, a.info
	ctx := &evalCtx{session: s, schema: info.joined}
	keys := relation.NewGroupMap(info.groupIdx, 0)
	byKey := map[*relation.Group]*aggKey{}
	group := func(r *relation.Relation) ([]aggPart, error) {
		s.boundedRows += int64(r.Len())
		var parts []aggPart
		add := func(rows []relation.Tuple, least relation.Tuple) {
			g := keys.Get(rows[0], info.groupIdx)
			if g == nil {
				g = keys.Add(rows[0])
				byKey[g] = &aggKey{}
			}
			k := byKey[g]
			k.n += len(rows)
			parts = append(parts, aggPart{key: k, rows: rows, least: least})
		}
		if sel.Where == nil && len(info.groupIdx) > 0 && r.Len() >= relation.IndexProbeMin {
			r.IndexOn(info.groupIdx).Groups(func(g relation.IndexGroup) { add(g.Rows, g.Least) })
			return parts, nil
		}
		gm := relation.NewGroupMap(info.groupIdx, 0)
		var err error
		r.Each(func(t relation.Tuple) {
			if err != nil {
				return
			}
			if sel.Where != nil {
				ctx.tuple = t
				var ok bool
				if ok, err = ctx.evalBool(sel.Where); !ok {
					return
				}
			}
			gm.Add(t)
		})
		for _, g := range gm.Groups() {
			add(g.Rows, slices.MinFunc(g.Rows, relation.Tuple.Compare))
		}
		return parts, err
	}

	// The region's components are those of the table's pieces, both
	// lists in component order.
	var certain []aggPart
	var alts [][][]aggPart // [region component][alternative]
	prepare := func() error {
		var err error
		if certain, err = group(a.certain); err != nil {
			return err
		}
		alts = make([][][]aggPart, len(region.Deps))
		i := 0
		for _, p := range a.pieces {
			for region.Deps[i] != p.Comp {
				i++
			}
			if alts[i] == nil {
				alts[i] = make([][]aggPart, len(a.db.Components[p.Comp].Alternatives))
			}
			if alts[i][p.Alt], err = group(p.Rel); err != nil {
				return err
			}
		}
		return nil
	}

	answers := worldset.New([]string{answerName}, []relation.Schema{info.out})
	worlds := 0
	var touched []*aggKey
	gather := func(parts []aggPart) {
		for _, p := range parts {
			k := p.key
			if len(k.rows) == 0 {
				if k.rows == nil {
					k.rows = make([]relation.Tuple, 0, k.n)
				}
				touched = append(touched, k)
				k.least = p.least
			} else if p.least.Compare(k.least) < 0 {
				k.least = p.least
			}
			k.rows = append(k.rows, p.rows...)
		}
	}
	err := region.Combinations(budget, func(choice []int) error {
		if worlds++; worlds == 1 {
			if err := prepare(); err != nil {
				return err
			}
		}
		gather(certain)
		for i, alt := range choice {
			gather(alts[i][alt])
		}
		out := relation.New(info.out)
		if len(touched) == 0 && len(sel.GroupBy) == 0 {
			row, err := ctx.aggRow(info, []relation.Tuple{}, nil)
			if err != nil {
				return err
			}
			out.Insert(row)
		}
		for _, k := range touched {
			row, err := ctx.aggRow(info, k.rows, k.least)
			if err != nil {
				return err
			}
			out.Insert(row)
			k.rows = k.rows[:0]
		}
		touched = touched[:0]
		answers.Add(worldset.World{out})
		return nil
	})
	if err != nil {
		return nil, worlds, err
	}
	if sel.Close != CloseNone {
		all := func(worldset.World) (worldset.World, error) { return nil, nil }
		if answers, err = wsa.GroupLast(answers, sel.Close.groupKind(), nil, info.out, all); err != nil {
			return nil, worlds, err
		}
	}
	return wsa.DistinctLast(answers), worlds, nil
}
