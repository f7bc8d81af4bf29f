package wsd_test

import (
	"errors"
	"math/big"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsd"
)

// TestBudgetErrorTyped: expansions over budget fail with *BudgetError
// carrying the exact big world count, so callers can distinguish "too
// big" from genuine failures.
func TestBudgetErrorTyped(t *testing.T) {
	census := datagen.Census(200, 40, 7)
	d, err := wsd.RepairByKey("Census", census, []string{"SSN"})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 40)
	if d.Worlds().Cmp(want) != 0 {
		t.Fatalf("Worlds() = %s, want 2^40", d.Worlds())
	}
	_, err = d.Expand(0)
	var be *wsd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Expand over budget returned %v, want *wsd.BudgetError", err)
	}
	if be.Worlds.Cmp(want) != 0 || be.Budget != wsd.DefaultExpandBudget {
		t.Fatalf("BudgetError = {%s, %d}, want {2^40, %d}", be.Worlds, be.Budget, wsd.DefaultExpandBudget)
	}
	if _, err := d.Expand(1 << 10); !errors.As(err, &be) {
		t.Fatalf("Expand over budget returned %v, want *wsd.BudgetError", err)
	} else if be.Budget != 1<<10 {
		t.Fatalf("BudgetError budget = %d, want %d", be.Budget, 1<<10)
	}
}

// TestDecompDBMultiRelationComponent: one component can contribute
// tuples to several relations at once; expansion distributes the
// contributions correctly.
func TestDecompDBMultiRelationComponent(t *testing.T) {
	names := []string{"R", "S"}
	schemas := []relation.Schema{relation.NewSchema("A"), relation.NewSchema("B")}
	db := wsd.NewDecompDB(names, schemas)
	db.Certain[0].InsertValues(value.Int(0))
	mk := func(schema relation.Schema, v int64) *relation.Relation {
		r := relation.New(schema)
		r.InsertValues(value.Int(v))
		return r
	}
	db.Components = []wsd.DBComponent{{Alternatives: []wsd.DBAlternative{
		{Rels: map[int]*relation.Relation{0: mk(schemas[0], 1), 1: mk(schemas[1], 10)}},
		{Rels: map[int]*relation.Relation{1: mk(schemas[1], 20)}},
	}}}
	if db.Worlds().Int64() != 2 {
		t.Fatalf("worlds = %s, want 2", db.Worlds())
	}
	ws, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	want := worldset.New(names, schemas)
	w1r := relation.FromRows(schemas[0], relation.Tuple{value.Int(0)}, relation.Tuple{value.Int(1)})
	w1s := relation.FromRows(schemas[1], relation.Tuple{value.Int(10)})
	w2r := relation.FromRows(schemas[0], relation.Tuple{value.Int(0)})
	w2s := relation.FromRows(schemas[1], relation.Tuple{value.Int(20)})
	want.Add(worldset.World{w1r, w1s})
	want.Add(worldset.World{w2r, w2s})
	if !ws.Equal(want) {
		t.Fatalf("expansion:\n%s\nwant:\n%s", ws, want)
	}
}

// TestDecompDBEmptyComponent: a component with no alternatives
// represents the empty world-set.
func TestDecompDBEmptyComponent(t *testing.T) {
	db := wsd.NewDecompDB([]string{"R"}, []relation.Schema{relation.NewSchema("A")})
	db.Components = []wsd.DBComponent{{}}
	if db.Worlds().Sign() != 0 {
		t.Fatalf("worlds = %s, want 0", db.Worlds())
	}
	ws, err := db.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 0 {
		t.Fatalf("expansion has %d worlds, want 0", ws.Len())
	}
}
