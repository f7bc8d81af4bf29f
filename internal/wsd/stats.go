package wsd

import "math"

// This file holds the decomposition statistics the cost-based planner
// runs on: per-relation certain/alternative cardinalities, component
// counts, and an alternatives-per-component histogram. They are a cheap
// by-product of Normalize — one O(size) pass over structure Normalize
// already walked — and are cached on the DecompDB so snapshots carry
// them for free: the rewrite search's cardinality estimator, wsdexec's
// join ordering, the plan cache's drift
// check, and the /metrics per-relation gauges all read the same Stats
// value without recomputing anything per use.

// RelStats are the decomposition statistics of one relation.
type RelStats struct {
	// Certain is the number of tuples present in every world.
	Certain int
	// Alternative is the total number of tuples contributed to the
	// relation across all alternatives of all components — the upper
	// bound on uncertain tuples any single world can hold is smaller,
	// but this total is what bounds the engine's per-piece work.
	Alternative int
	// Components is the number of components contributing at least one
	// tuple to the relation: the relation's uncertainty spread, and the
	// factor count of any merge that entangles it.
	Components int
}

// Stats are the decomposition statistics of a whole DecompDB.
type Stats struct {
	// Rels is indexed like DecompDB.Names.
	Rels []RelStats
	// Components is the total component count.
	Components int
	// AltHist maps alternatives-per-component to the number of
	// components with that arity.
	AltHist map[int]int
}

// WorldsLog2 returns log2 of the represented world count — the sum of
// log2(arity) over components — as a float, usable in cost arithmetic
// where the exact big.Int count would overflow.
func (s *Stats) WorldsLog2() float64 {
	l := 0.0
	for arity, n := range s.AltHist {
		if arity > 0 {
			l += float64(n) * math.Log2(float64(arity))
		}
	}
	return l
}

// Rel returns the stats of relation i, zero-valued out of range.
func (s *Stats) Rel(i int) RelStats {
	if s == nil || i < 0 || i >= len(s.Rels) {
		return RelStats{}
	}
	return s.Rels[i]
}

// Stats returns the decomposition statistics, computing and caching
// them on first use. Normalize pre-fills the cache, so snapshots of the
// catalog (whose commit paths always normalize) answer from the cached
// value; decompositions built directly (FromComplete seeds, test
// fixtures) compute lazily. Safe for concurrent readers: the cache is
// an atomic pointer and the computation is pure.
func (db *DecompDB) Stats() *Stats {
	if s := db.stats.Load(); s != nil {
		return s
	}
	s := db.computeStats()
	db.stats.Store(s)
	return s
}

// computeStats walks the decomposition once: certain cardinalities off
// the certain relations, alternative cardinalities and per-relation
// component spread off every alternative's contributions.
func (db *DecompDB) computeStats() *Stats {
	s := &Stats{
		Rels:       make([]RelStats, len(db.Names)),
		Components: len(db.Components),
		AltHist:    make(map[int]int),
	}
	for i, r := range db.Certain {
		s.Rels[i].Certain = r.Len()
	}
	touched := make([]bool, len(db.Names))
	for _, c := range db.Components {
		s.AltHist[len(c.Alternatives)]++
		for i := range touched {
			touched[i] = false
		}
		for _, a := range c.Alternatives {
			for ri, r := range a.Rels {
				if r == nil || r.Len() == 0 {
					continue
				}
				s.Rels[ri].Alternative += r.Len()
				touched[ri] = true
			}
		}
		for ri, t := range touched {
			if t {
				s.Rels[ri].Components++
			}
		}
	}
	return s
}
