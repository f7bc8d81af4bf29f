package relation

import (
	"strconv"
	"sync"
)

// This file implements the shared hash-index machinery used by the
// hash-join fast paths in package ra, the grouping in packages wsdexec,
// inline and wsa, and the index-backed selections of package wsdexec.
// All structures key buckets by the FNV-1a digest
// of a column projection (package hashkey, via Tuple.HashOn) and verify
// candidates with typed value comparison, so results are exact even
// under digest collisions and no key strings are ever allocated.

// Index is a read-only hash index of tuples on a fixed column list.
// Build one with BuildIndex or, cached, with Relation.IndexOn.
type Index struct {
	cols    []int
	buckets map[uint64][]Tuple
}

// BuildIndex indexes r's tuples on the columns at cols (nil = all
// columns).
func BuildIndex(r *Relation, cols []int) *Index {
	ix := &Index{cols: cols, buckets: make(map[uint64][]Tuple, r.Len())}
	r.Each(func(t Tuple) { ix.Add(t) })
	return ix
}

// Add appends a tuple to the index. Unlike Relation.Insert this keeps
// duplicates: an index is a multimap from key columns to rows.
func (ix *Index) Add(t Tuple) {
	h := t.HashOn(ix.cols)
	ix.buckets[h] = append(ix.buckets[h], t)
}

// Lookup returns the tuples whose indexed columns equal probe's columns
// at probeCols (nil = all of probe). In the common, collision-free case
// the bucket slice is returned directly without allocating.
func (ix *Index) Lookup(probe Tuple, probeCols []int) []Tuple {
	bucket := ix.buckets[probe.HashOn(probeCols)]
	for i, t := range bucket {
		if !t.EqualOn(probe, ix.cols, probeCols) {
			// Digest collision: fall back to filtering the bucket.
			out := append([]Tuple(nil), bucket[:i]...)
			for _, u := range bucket[i+1:] {
				if u.EqualOn(probe, ix.cols, probeCols) {
					out = append(out, u)
				}
			}
			return out
		}
	}
	return bucket
}

// IndexProbeMin is the smallest relation worth reading through a cached
// IndexOn index instead of scanning: below it a scan costs less than the
// cache lookup plus the probe, and the index would only hold memory.
// The factorized engine's selection picks its access path per piece by
// this constant, and the planner's estimator prices selections by it.
const IndexProbeMin = 64

// indexCache holds the IndexOn indexes of one row storage, keyed by the
// column list. A relation and its WithSchema siblings share one.
type indexCache struct {
	mu     sync.Mutex
	byCols map[string]*Index
}

// indexCache returns r's index cache, attaching an empty one on first
// use.
func (r *Relation) indexCache() *indexCache {
	if c := r.ix.Load(); c != nil {
		return c
	}
	r.ix.CompareAndSwap(nil, &indexCache{})
	return r.ix.Load()
}

// IndexOn returns a hash index of r on the columns at cols, building it
// on first use and caching it on the relation — and on every relation
// sharing r's rows through WithSchema. The cache makes repeated joins
// and selections against the same base table cost one build: relations
// of a published catalog snapshot are immutable, so their indexes live
// as long as the snapshot's relations do, carried by every copy-on-write
// commit that leaves the relation alone. The cached index is dropped if
// the relation is mutated; safe for concurrent readers (concurrent first
// probes build once).
func (r *Relation) IndexOn(cols []int) *Index {
	var sig []byte
	for _, c := range cols {
		sig = strconv.AppendInt(sig, int64(c), 10)
		sig = append(sig, ',')
	}
	c := r.indexCache()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ix, ok := c.byCols[string(sig)]; ok {
		return ix
	}
	ix := BuildIndex(r, cols)
	if c.byCols == nil {
		c.byCols = map[string]*Index{}
	}
	c.byCols[string(sig)] = ix
	return ix
}

// KeySet is a set of column projections of tuples, collision-verified.
// It stores each distinct projection once, as a materialized tuple.
type KeySet struct {
	buckets map[uint64][]Tuple
	n       int
}

// NewKeySet returns an empty key set with capacity hint n.
func NewKeySet(n int) *KeySet {
	return &KeySet{buckets: make(map[uint64][]Tuple, n)}
}

// Add inserts the projection of t onto cols (nil = whole tuple),
// reporting whether it was new. The projection is materialized only on
// first insertion.
func (s *KeySet) Add(t Tuple, cols []int) bool {
	h := t.HashOn(cols)
	for _, u := range s.buckets[h] {
		if u.EqualOn(t, nil, cols) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], t.Project(identityOr(cols, len(t))))
	s.n++
	return true
}

// Contains reports whether the projection of t onto cols is in the set.
func (s *KeySet) Contains(t Tuple, cols []int) bool {
	for _, u := range s.buckets[t.HashOn(cols)] {
		if u.EqualOn(t, nil, cols) {
			return true
		}
	}
	return false
}

// Len returns the number of distinct projections added.
func (s *KeySet) Len() int { return s.n }

// Each calls f for every stored projection in unspecified order.
func (s *KeySet) Each(f func(Tuple)) {
	for _, bucket := range s.buckets {
		for _, t := range bucket {
			f(t)
		}
	}
}

// Group is one equivalence class of a GroupBy: the projected key and the
// member rows in insertion order.
type Group struct {
	Key  Tuple
	Rows []Tuple
}

// GroupMap groups tuples by a column projection, collision-verified.
type GroupMap struct {
	cols    []int
	buckets map[uint64][]*Group
	groups  []*Group
}

// NewGroupMap returns an empty group map over the projection cols
// (nil = whole tuple) with capacity hint n.
func NewGroupMap(cols []int, n int) *GroupMap {
	return &GroupMap{cols: cols, buckets: make(map[uint64][]*Group, n)}
}

// Add appends t to its group, creating the group if needed, and returns
// the group.
func (g *GroupMap) Add(t Tuple) *Group {
	h := t.HashOn(g.cols)
	for _, grp := range g.buckets[h] {
		if grp.Key.EqualOn(t, nil, g.cols) {
			grp.Rows = append(grp.Rows, t)
			return grp
		}
	}
	grp := &Group{Key: t.Project(identityOr(g.cols, len(t))), Rows: []Tuple{t}}
	g.buckets[h] = append(g.buckets[h], grp)
	g.groups = append(g.groups, grp)
	return grp
}

// Get returns the group whose key equals probe's columns at probeCols
// (nil = all of probe), or nil.
func (g *GroupMap) Get(probe Tuple, probeCols []int) *Group {
	for _, grp := range g.buckets[probe.HashOn(probeCols)] {
		if grp.Key.EqualOn(probe, nil, probeCols) {
			return grp
		}
	}
	return nil
}

// Groups returns the groups in first-insertion order.
func (g *GroupMap) Groups() []*Group { return g.groups }

// Len returns the number of groups.
func (g *GroupMap) Len() int { return len(g.groups) }

func identityOr(cols []int, n int) []int {
	if cols != nil {
		return cols
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
