package wsd

import (
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
)

func identRel(vals ...int64) *relation.Relation {
	r := relation.New(relation.NewSchema("A"))
	for _, v := range vals {
		r.InsertValues(value.Int(v))
	}
	return r
}

func TestSameComponentShapeSharedPointers(t *testing.T) {
	r1, r2 := identRel(1), identRel(2)
	a := DBComponent{ID: 7, Alternatives: []DBAlternative{
		{Rels: map[int]*relation.Relation{0: r1}},
		{Rels: map[int]*relation.Relation{0: r2}},
	}}
	// A copy-on-write edit rebuilds the containers but shares the
	// relations — exactly what clone()/Normalize() do for untouched
	// components.
	b := DBComponent{ID: 7, Alternatives: []DBAlternative{
		{Rels: map[int]*relation.Relation{0: r1}},
		{Rels: map[int]*relation.Relation{0: r2}},
	}}
	if !SameComponentShape(a, b) {
		t.Fatal("rebuilt containers with shared relations reported as changed")
	}
}

func TestSameComponentShapeDetectsChange(t *testing.T) {
	r1, r2 := identRel(1), identRel(2)
	base := DBComponent{Alternatives: []DBAlternative{{Rels: map[int]*relation.Relation{0: r1}}}}

	// A fresh relation — even with identical content — is a change (the
	// conservative direction: rewrite, never skip).
	fresh := DBComponent{Alternatives: []DBAlternative{{Rels: map[int]*relation.Relation{0: identRel(1)}}}}
	if SameComponentShape(base, fresh) {
		t.Fatal("fresh relation pointer reported as unchanged")
	}

	// Different alternative count.
	grown := DBComponent{Alternatives: []DBAlternative{
		{Rels: map[int]*relation.Relation{0: r1}},
		{Rels: map[int]*relation.Relation{0: r2}},
	}}
	if SameComponentShape(base, grown) {
		t.Fatal("added alternative reported as unchanged")
	}

	// Contribution moved to a different relation index.
	moved := DBComponent{Alternatives: []DBAlternative{{Rels: map[int]*relation.Relation{1: r1}}}}
	if SameComponentShape(base, moved) {
		t.Fatal("moved contribution reported as unchanged")
	}
}

func TestSameComponentShapeIgnoresEmptyEntries(t *testing.T) {
	r1 := identRel(1)
	empty := relation.New(relation.NewSchema("A"))
	a := DBComponent{Alternatives: []DBAlternative{{Rels: map[int]*relation.Relation{0: r1}}}}
	b := DBComponent{Alternatives: []DBAlternative{{Rels: map[int]*relation.Relation{0: r1, 1: empty, 2: nil}}}}
	if !SameComponentShape(a, b) {
		t.Fatal("empty contributions must not affect shape identity")
	}
}

func TestMaxComponentID(t *testing.T) {
	db := NewDecompDB([]string{"R"}, []relation.Schema{relation.NewSchema("A")})
	if got := db.MaxComponentID(); got != 0 {
		t.Fatalf("empty db MaxComponentID = %d", got)
	}
	db.Components = []DBComponent{{ID: 3}, {ID: 9}, {ID: 0}}
	if got := db.MaxComponentID(); got != 9 {
		t.Fatalf("MaxComponentID = %d, want 9", got)
	}
}
