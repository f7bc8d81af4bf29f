package wsd

import (
	"errors"
	"strings"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
)

// regionDB holds relations R, S, T with one component each of 2, 3 and 5
// single-tuple alternatives, plus a certain tuple in every relation.
func regionDB() *DecompDB {
	names := []string{"R", "S", "T"}
	schemas := []relation.Schema{relation.NewSchema("A"), relation.NewSchema("B"), relation.NewSchema("C")}
	db := NewDecompDB(names, schemas)
	for ri, n := range []int{2, 3, 5} {
		db.Certain[ri].Insert(relation.Tuple{value.Int(-1)})
		c := DBComponent{ID: uint64(ri + 1)}
		for a := 0; a < n; a++ {
			r := relation.New(schemas[ri])
			r.Insert(relation.Tuple{value.Int(int64(a))})
			c.Alternatives = append(c.Alternatives, DBAlternative{Rels: map[int]*relation.Relation{ri: r}})
		}
		db.Components = append(db.Components, c)
	}
	return db
}

// TestRegionEnumeratesAndSplices: the region of {R, T} is components 0
// and 2; it expands to their 10 combinations (budgeted on that count,
// not the 30 worlds), and re-factorizing an evaluation of it splices
// component 1 back by identity, each region world standing for its 3
// alternatives, so the whole round trip represents the input world-set.
func TestRegionEnumeratesAndSplices(t *testing.T) {
	db := regionDB()
	rg := RegionOf(db, map[string]bool{"R": true, "T": true, "absent": true}, false)
	if len(rg.Deps) != 2 || rg.Deps[0] != 0 || rg.Deps[1] != 2 {
		t.Fatalf("region of {R, T} = %v, want [0 2]", rg.Deps)
	}
	if all := RegionOf(db, nil, true); len(all.Deps) != 3 {
		t.Fatalf("region with all set = %v, want every component", all.Deps)
	}
	var be *BudgetError
	if _, err := rg.Enumerate(9); !errors.As(err, &be) || be.Worlds.Int64() != 10 {
		t.Fatalf("budget 9: want a BudgetError at the region's 10 combinations, got %v", err)
	}
	ws, err := rg.Enumerate(10)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 10 {
		t.Fatalf("region expands to %d worlds, want 10", ws.Len())
	}
	out, err := rg.Refactor(ws)
	if err != nil {
		t.Fatal(err)
	}
	if each := rg.OutsideWorlds(); each.Int64() != 3 {
		t.Fatalf("each region world stands for %s worlds, want 3", rg.OutsideWorlds())
	}
	if last := out.Components[len(out.Components)-1]; last.ID != 2 || len(last.Alternatives) != 3 {
		t.Fatalf("component 1 was not spliced back as it was: %+v", last)
	}
	want, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWorlds(want) {
		t.Fatalf("round trip changed the world-set\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegionOfEmptyWorldSet: a zero-alternative component anywhere
// empties the represented world-set, and the region's expansion agrees.
func TestRegionOfEmptyWorldSet(t *testing.T) {
	db := regionDB()
	db.Components[1].Alternatives = nil
	ws, err := RegionOf(db, map[string]bool{"R": true}, false).Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 0 {
		t.Fatalf("region of an empty world-set expands to %d worlds", ws.Len())
	}
}

// TestRegionCombinations: Combinations visits each combination of the
// region's alternatives once — the worlds Enumerate builds, each
// rebuilt here from its choice — refuses with Enumerate's BudgetError
// before visiting any, and visits none of an empty world-set.
func TestRegionCombinations(t *testing.T) {
	db := regionDB()
	rg := RegionOf(db, map[string]bool{"R": true, "T": true}, false)
	var be *BudgetError
	called := false
	err := rg.Combinations(9, func([]int) error { called = true; return nil })
	if !errors.As(err, &be) || be.Worlds.Int64() != 10 || be.Budget != 9 || called {
		t.Fatalf("budget 9: want a BudgetError at 10 combinations before any visit, got %v (visited %v)", err, called)
	}
	want, err := rg.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	got := worldset.New(want.Names(), want.Schemas())
	err = rg.Combinations(0, func(choice []int) error {
		w := make(worldset.World, len(want.Names()))
		for li, name := range want.Names() {
			ri := db.IndexOf(name)
			w[li] = db.Certain[ri].Clone()
			for i, ci := range rg.Deps {
				if r := db.Components[ci].Alternatives[choice[i]].Rels[ri]; r != nil {
					r.Each(func(t relation.Tuple) { w[li].Insert(t) })
				}
			}
		}
		if !got.Add(w) {
			t.Fatalf("combination %v visited twice", choice)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualWorlds(want) {
		t.Fatalf("combinations\n%s\nwant the enumerated worlds\n%s", got, want)
	}
	stop := errors.New("stop")
	n := 0
	if err := rg.Combinations(0, func([]int) error { n++; return stop }); err != stop || n != 1 {
		t.Fatalf("an error from f: got %v after %d visits, want it after 1", err, n)
	}
	db.Components[1].Alternatives = nil
	if err := rg.Combinations(0, func([]int) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("empty world-set: %v, %d visits", err, n-1)
	}
}

// TestRegionClosure: a component contributing to R and S whose first two
// alternatives differ in S alone. The region of {R} enumerates S beside
// R — three distinct worlds, not the two R alone tells apart — and
// leaves T, which no region component touches, out of every world.
// Refactor puts T back by pointer at its catalog position and the
// answer after the catalog's relations.
func TestRegionClosure(t *testing.T) {
	db := regionDB()
	span := DBComponent{ID: 9}
	for _, rs := range [][2]int64{{7, 1}, {7, 2}, {8, 1}} {
		r, s := relation.New(db.Schemas[0]), relation.New(db.Schemas[1])
		r.Insert(relation.Tuple{value.Int(rs[0])})
		s.Insert(relation.Tuple{value.Int(rs[1] + 10)})
		span.Alternatives = append(span.Alternatives, DBAlternative{Rels: map[int]*relation.Relation{0: r, 1: s}})
	}
	db.Components = append(db.Components, span)
	rg := RegionOf(db, map[string]bool{"R": true}, false)
	if len(rg.Deps) != 2 || rg.Deps[0] != 0 || rg.Deps[1] != 3 {
		t.Fatalf("region of {R} = %v, want [0 3]", rg.Deps)
	}
	ws, err := rg.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ws.Names(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Fatalf("region worlds hold %v, want the closure [R S]", got)
	}
	if ws.Len() != 2*3 {
		t.Fatalf("region of {R} expands to %d worlds, want 6", ws.Len())
	}
	ans := ws.Extend("Ans", relation.NewSchema("A"), func(w worldset.World) *relation.Relation { return w[0] })
	out, err := rg.Refactor(ans)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(out.Names, " "); got != "R S T Ans" {
		t.Fatalf("refactored relations %q, want the catalog's then the answer", got)
	}
	if out.Certain[2] != db.Certain[2] {
		t.Fatal("T was copied, not spliced back by pointer")
	}
	if each := rg.OutsideWorlds(); each.Int64() != 3*5 {
		t.Fatalf("each region world stands for %s worlds, want 15", each)
	}
	want, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("round trip has %d worlds, want %d", got.Len(), want.Len())
	}
}
