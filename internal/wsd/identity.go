package wsd

import "worldsetdb/internal/relation"

// Structural-sharing identity for the paged storage engine: the store's
// incremental checkpoints and WAL page-delta records need to know, per
// commit, which components actually changed. Comparing Alternatives
// slices by identity does not work — every copy-on-write edit (clone,
// MapRelation, Normalize) rebuilds the component and alternative
// containers even for untouched components — but the *relation.Relation
// values inside them ARE shared: an edit that leaves a component's
// content alone carries the same relation pointers through. So two
// components are "shape-same" when they have the same alternatives,
// each contributing the same relation objects to the same relation
// indices. Shape-sameness is sound for dirty detection: relations are
// immutable by convention, so shared pointers imply identical content
// (a rebuilt relation with equal content compares different — a false
// positive that only costs an unnecessary rewrite, never a missed one).

// SameComponentShape reports whether a and b contribute the same
// relation objects in the same alternative order. Empty contributions
// (nil or zero-length relations) are ignored on both sides —
// persistence skips them, so they cannot affect durable state.
func SameComponentShape(a, b DBComponent) bool {
	if len(a.Alternatives) != len(b.Alternatives) {
		return false
	}
	for i := range a.Alternatives {
		if !sameAlternative(a.Alternatives[i], b.Alternatives[i], func(x, y *relation.Relation) bool { return x == y }) {
			return false
		}
	}
	return true
}

// sameAlternative reports whether x and y make non-empty contributions
// to the same relation indexes, pairwise same: by pointer for shape, by
// Relation.Equal for content.
func sameAlternative(x, y DBAlternative, same func(a, b *relation.Relation) bool) bool {
	nx := 0
	for ri, r := range x.Rels {
		if r == nil || r.Len() == 0 {
			continue
		}
		nx++
		if o := y.Rels[ri]; o == nil || !same(r, o) {
			return false
		}
	}
	ny := 0
	for _, r := range y.Rels {
		if r != nil && r.Len() > 0 {
			ny++
		}
	}
	return nx == ny
}

// MaxComponentID returns the largest assigned component ID (0 when no
// component carries one). Recovery uses it to resume the catalog's ID
// counter past everything already persisted.
func (db *DecompDB) MaxComponentID() uint64 {
	var max uint64
	for i := range db.Components {
		if id := db.Components[i].ID; id > max {
			max = id
		}
	}
	return max
}
