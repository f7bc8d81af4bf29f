package isql

import (
	"fmt"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
)

// aggWide are the four statements of the load benchmark's agg_wide mix
// (bench/workload.go), each with its share of the requests and its
// ceiling on allocations per execution (TestBoundedAggregateAllocCeiling):
// a sum over a 3-world choice table, a group-by over a 16-world repair,
// a group-by and an IN subquery over certain data.
var aggWide = []struct {
	sql     string
	share   int
	ceiling float64
}{
	{"select sum(V) as S from Pick1;", 1, 260},
	{"select POW, count(*) as N from Clean4 group by POW;", 1, 2035},
	{"select POB, count(*) as N from Census group by POB;", 2, 230},
	{"select Name from Census where POB = 'NYC' and SSN in (select SSN from Census where POW = 'LA');", 1, 1660},
}

// aggWideSession builds agg_wide's catalog in process: the 1000-person
// census repaired over 2^40 worlds, the Pick1 and Clean4 tables its
// set-up creates, and 16 unrelated 1000-row relations no statement
// names.
func aggWideSession(tb testing.TB) *Session {
	tb.Helper()
	db := datagen.CensusRepairDecomp(1000, 40, 1)
	tiny := relation.New(relation.NewSchema("V"))
	for v := int64(1); v <= 3; v++ {
		tiny.Insert(relation.Tuple{value.Int(v)})
	}
	db = db.WithRelation("Tiny", tiny.Schema(), tiny)
	c4 := datagen.Census(100, 4, 1)
	db = db.WithRelation("Census4", c4.Schema(), c4)
	for i := 0; i < 16; i++ {
		r := datagen.Census(1000, 0, int64(i)+2)
		db = db.WithRelation(fmt.Sprintf("Other%d", i), r.Schema(), r)
	}
	s := FromCatalog(store.New(db))
	mustExec(tb, s, "create table Pick1 as select * from Tiny choice of V;")
	mustExec(tb, s, "create table Clean4 as select * from Census4 repair by key SSN;")
	return s
}

// BenchmarkBoundedAggregate is agg_wide in process: one iteration runs
// one statement, cycling through the mix in its shares, so ns/op and
// allocs/op are per request without HTTP, the plan cache or rendering.
func BenchmarkBoundedAggregate(b *testing.B) {
	s := aggWideSession(b)
	var mix []string
	for _, q := range aggWide {
		for i := 0; i < q.share; i++ {
			mix = append(mix, q.sql)
		}
	}
	for _, sql := range mix { // warm the catalog's memoized digests and indexes
		mustExec(b, s, sql)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExec(b, s, mix[i%len(mix)])
	}
}

// TestBoundedAggregateAllocCeiling pins the allocations of agg_wide's
// four statements on its wide catalog, about 10 % above what they cost
// when the bounded evaluator reads each row once: 236 (the sum), 1848
// (16 worlds of Clean4 grouped), 208 (Census grouped: the pre-answer is
// Census itself, renamed) and 1510 (the IN, probing an index of the
// subquery's answer). Sorting every input, re-hashing every renamed
// relation and copying every pre-answer row cost 254, 5300, 2314 and
// 3161.
func TestBoundedAggregateAllocCeiling(t *testing.T) {
	s := aggWideSession(t)
	for _, q := range aggWide {
		mustExec(t, s, q.sql)
		got := testing.AllocsPerRun(20, func() { mustExec(t, s, q.sql) })
		t.Logf("%s: %.0f allocations", q.sql, got)
		if got > q.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", q.sql, got, q.ceiling)
		}
	}
}
