package wsa

import (
	"math/big"
	"slices"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsd"
)

// The world-set operators of Figure 3 — χ, repair-by-key, pγ/cγ — and
// the listing of possible answers, each on the last relation R_{k+1} of
// a world-set. eval applies them to an evaluated subquery; I-SQL's
// world-at-a-time evaluator (internal/isql) applies the same functions
// to a select's pre-answer and answer, so every operator is defined
// once. Exceeding maxWorlds is the typed *wsd.BudgetError that wsd's
// Expand and the store report.

// withLast returns w with its last relation replaced by r.
func withLast(w worldset.World, r *relation.Relation) worldset.World {
	nw := append(worldset.World{}, w...)
	nw[len(nw)-1] = r
	return nw
}

func replaceLastSchema(schemas []relation.Schema, last relation.Schema) []relation.Schema {
	out := append([]relation.Schema{}, schemas...)
	out[len(out)-1] = last
	return out
}

// ChoiceLast implements χ_attrs: one world per distinct attrs-value of
// the last relation; a world whose last relation is empty survives
// unchanged (the "R_{k+1} = ∅ ⇒ v = 1" case of Figure 3).
func ChoiceLast(ws *worldset.WorldSet, attrs []string, maxWorlds int) (*worldset.WorldSet, error) {
	k := ws.NumRelations() - 1
	idx, err := ws.Schemas()[k].Indexes(attrs)
	if err != nil {
		return nil, err
	}
	out := worldset.New(ws.Names(), ws.Schemas())
	var evalErr error
	ws.Each(func(w worldset.World) {
		if evalErr != nil {
			return
		}
		r := w[k]
		if r.Empty() {
			out.Add(w)
			return
		}
		// Partition by the chosen attributes through the shared hash
		// grouping (no key strings); rows within a group are distinct
		// because the source relation is a set.
		parts := relation.NewGroupMap(idx, r.Len())
		r.Each(func(t relation.Tuple) { parts.Add(t) })
		for _, grp := range parts.Groups() {
			p := relation.New(r.Schema())
			for _, t := range grp.Rows {
				p.InsertDistinct(t)
			}
			out.Add(withLast(w, p))
			if out.Len() > maxWorlds {
				evalErr = &wsd.BudgetError{Worlds: big.NewInt(int64(out.Len())), Budget: maxWorlds}
				return
			}
		}
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// RepairLast implements repair-by-key: in each world, one new world per
// combination of one tuple chosen for each distinct attrs-value of the
// last relation (an empty relation has the one, empty, repair).
func RepairLast(ws *worldset.WorldSet, attrs []string, maxWorlds int) (*worldset.WorldSet, error) {
	k := ws.NumRelations() - 1
	idx, err := ws.Schemas()[k].Indexes(attrs)
	if err != nil {
		return nil, err
	}
	out := worldset.New(ws.Names(), ws.Schemas())
	var evalErr error
	ws.Each(func(w worldset.World) {
		if evalErr != nil {
			return
		}
		r := w[k]
		// Group by key value over the sorted tuples, so the enumeration
		// is stable.
		keyed := relation.NewGroupMap(idx, r.Len())
		for _, t := range r.Tuples() {
			keyed.Add(t)
		}
		groups := keyed.Groups()
		// Refuse the blow-up (Proposition 4.2) before enumerating it.
		total := big.NewInt(1)
		var m big.Int
		for _, g := range groups {
			total.Mul(total, m.SetInt64(int64(len(g.Rows))))
		}
		if !total.IsInt64() || total.Int64() > int64(maxWorlds) {
			evalErr = &wsd.BudgetError{Worlds: total, Budget: maxWorlds}
			return
		}
		choice := make([]int, len(groups))
		for {
			repaired := relation.New(r.Schema())
			for gi, g := range groups {
				repaired.Insert(g.Rows[choice[gi]])
			}
			out.Add(withLast(w, repaired))
			if out.Len() > maxWorlds {
				evalErr = &wsd.BudgetError{Worlds: big.NewInt(int64(out.Len())), Budget: maxWorlds}
				return
			}
			// Advance the mixed-radix counter.
			i := 0
			for ; i < len(groups); i++ {
				choice[i]++
				if choice[i] < len(groups[i].Rows) {
					break
				}
				choice[i] = 0
			}
			if i == len(groups) {
				break
			}
		}
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// GroupLast implements pγ and cγ: worlds are grouped by key, and each
// world's last relation becomes the union (GroupPoss) or intersection
// (GroupCert), over the worlds of its group, of the last relation
// projected to the columns proj (nil keeps every column) under
// outSchema. The grouping key is the caller's, compared by content
// (World.Hash, verified with World.Equal): π_U of the answer for the
// algebra's γ, the empty world for poss and cert (one group holding
// every world — not grouping on the empty attribute list, which would
// separate empty answers from non-empty ones), a pre-answer projection
// or a grouping query's answer for I-SQL's group-worlds-by.
func GroupLast(ws *worldset.WorldSet, kind GroupKind, proj []int, outSchema relation.Schema,
	key func(worldset.World) (worldset.World, error)) (*worldset.WorldSet, error) {
	k := ws.NumRelations() - 1
	type group struct {
		key worldset.World
		agg *relation.Relation
	}
	type member struct {
		w worldset.World
		g *group
	}
	members := make([]member, 0, ws.Len())
	groups := map[uint64][]*group{}
	var keyErr error
	ws.Each(func(w worldset.World) {
		if keyErr != nil {
			return
		}
		gk, err := key(w)
		if err != nil {
			keyErr = err
			return
		}
		r := w[k]
		if proj != nil {
			r = r.Project(proj, outSchema)
		}
		h := gk.Hash()
		i := slices.IndexFunc(groups[h], func(g *group) bool { return g.key.Equal(gk) })
		if i < 0 {
			i = len(groups[h])
			groups[h] = append(groups[h], &group{key: gk})
		}
		g := groups[h][i]
		members = append(members, member{w, g})
		switch {
		case kind == GroupPoss:
			// The union grows a relation of its own, never an input's.
			if g.agg == nil {
				g.agg = relation.New(outSchema)
			}
			r.Each(func(t relation.Tuple) { g.agg.Insert(t) })
		case g.agg == nil:
			g.agg = r
		default:
			next := relation.New(outSchema)
			g.agg.Each(func(t relation.Tuple) {
				if r.Contains(t) {
					next.Insert(t)
				}
			})
			g.agg = next
		}
	})
	if keyErr != nil {
		return nil, keyErr
	}
	out := worldset.New(ws.Names(), replaceLastSchema(ws.Schemas(), outSchema))
	for _, m := range members {
		out.Add(withLast(m.w, m.g.agg))
	}
	return out, nil
}

// DistinctLast lists the distinct last relations of ws — the possible
// answers of an evaluated query — ordered by content key. The worlds are
// visited once each and their answers de-duplicated by the memoised
// content digest, verified with Equal; only the distinct answers are
// keyed, for the order.
func DistinctLast(ws *worldset.WorldSet) []*relation.Relation {
	k := ws.NumRelations() - 1
	var res []*relation.Relation
	byHash := map[uint64][]*relation.Relation{}
	ws.Each(func(w worldset.World) {
		if r, h := w[k], w[k].ContentHash(); !slices.ContainsFunc(byHash[h], r.Equal) {
			byHash[h] = append(byHash[h], r)
			res = append(res, r)
		}
	})
	relation.SortByContent(res)
	return res
}

// RenameLast names the last relation: the answer of Run, the table a
// create-table-as stores.
func RenameLast(ws *worldset.WorldSet, name string) *worldset.WorldSet {
	names := append([]string{}, ws.Names()...)
	names[len(names)-1] = name
	out := worldset.New(names, ws.Schemas())
	ws.Each(func(w worldset.World) { out.Add(w) })
	return out
}
