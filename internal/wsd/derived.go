package wsd

import (
	"sync"
	"sync/atomic"

	"worldsetdb/internal/relation"
)

// This file holds what readers derive from an immutable decomposition
// and keep with it: the per-relation piece lists, and a small keyed memo
// other packages fill (wsdexec's factored views of stored relations, the
// planner's name-keyed statistics). Both are built lazily by the first
// reader that needs them and never on a commit path; every
// copy-on-write edit builds a fresh DecompDB, so nothing cached here can
// describe stale structure.

// Piece is one non-empty contribution of an alternative to a relation:
// alternative Alt of component Comp adds the tuples of Rel.
type Piece struct {
	Comp, Alt int
	Rel       *relation.Relation
}

// Pieces returns the non-empty contributions to relation i, in
// (component, alternative) order: what a reader of the relation visits
// besides Certain[i], found without probing every alternative of every
// component. The lists of all relations are built by one pass over the
// components on first use and cached, like Stats; callers must not
// modify them.
func (db *DecompDB) Pieces(i int) []Piece {
	all := db.pieces.Load()
	if all == nil {
		built := make([][]Piece, len(db.Names))
		for ci, c := range db.Components {
			for a, alt := range c.Alternatives {
				for ri, r := range alt.Rels {
					if r != nil && r.Len() > 0 {
						built[ri] = append(built[ri], Piece{Comp: ci, Alt: a, Rel: r})
					}
				}
			}
		}
		db.pieces.CompareAndSwap(nil, &built)
		all = db.pieces.Load()
	}
	return (*all)[i]
}

// maxDerived bounds the entries Derived keeps per decomposition, so a
// stream of distinct ad-hoc statements cannot grow a long-lived snapshot
// without limit; past it, values are built and returned uncached.
const maxDerived = 64

// derivedMemo is Derived's storage: an immutable map replaced on every
// insert, so lookups are one atomic load and never wait on a writer.
type derivedMemo struct {
	mu sync.Mutex
	m  atomic.Pointer[map[string]any]
}

// Derived returns the value cached on the decomposition under key,
// calling build to make it on first use. The value must be a read-only
// function of the decomposition alone; concurrent first uses may each
// build, and all of them get the value stored first. key is read, not
// retained, so a caller may pass a stack buffer.
func (db *DecompDB) Derived(key []byte, build func() any) any {
	if m := db.derived.m.Load(); m != nil {
		if v, ok := (*m)[string(key)]; ok {
			return v
		}
	}
	v := build()
	db.derived.mu.Lock()
	defer db.derived.mu.Unlock()
	var cur map[string]any
	if m := db.derived.m.Load(); m != nil {
		cur = *m
	}
	if w, ok := cur[string(key)]; ok {
		return w
	}
	if len(cur) >= maxDerived {
		return v
	}
	next := make(map[string]any, len(cur)+1)
	for k, w := range cur {
		next[k] = w
	}
	next[string(key)] = v
	db.derived.m.Store(&next)
	return v
}
