package isql

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// aggWide are the four statements of the load benchmark's agg_wide mix
// (bench/workload.go), each with a short name, its share of the requests
// and its ceiling on allocations per execution
// (TestBoundedAggregateAllocCeiling): a sum over a 3-world choice table,
// a group-by over a 16-world repair, a group-by and an IN subquery over
// certain data.
var aggWide = []struct {
	name    string
	sql     string
	share   int
	ceiling float64
}{
	{"sum-pick1", "select sum(V) as S from Pick1;", 1, 155},
	{"group-clean4", "select POW, count(*) as N from Clean4 group by POW;", 1, 740},
	{"group-census", "select POB, count(*) as N from Census group by POB;", 2, 143},
	{"in-census", "select Name from Census where POB = 'NYC' and SSN in (select SSN from Census where POW = 'LA');", 1, 1660},
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

// BenchmarkBoundedAggregate is agg_wide in process. Its mix
// sub-benchmark runs one statement per iteration, cycling through the
// mix in its shares, so ns/op and allocs/op are per request without
// HTTP, the plan cache or rendering; one sub-benchmark per statement
// runs that statement alone.
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
	run := func(stmts []string) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustExec(b, s, stmts[i%len(stmts)])
			}
		}
	}
	b.Run("mix", run(mix))
	for _, q := range aggWide {
		b.Run(q.name, run([]string{q.sql}))
	}
}

// TestBoundedAggregateAllocCeiling pins the allocations of agg_wide's
// four statements on its wide catalog, about 10 % above what they cost
// when a one-table aggregate reads each part of the decomposition once:
// 141 (the sum, over 3 single-row pieces), 673 (Clean4 grouped per
// combination of its 4 components' alternatives, its certain part
// through the cached index), 130 (Census grouped through its cached
// index) and 1509 (the IN, which still runs world by world, probing an
// index of the subquery's answer). Building, hashing and re-grouping
// every world cost 236, 1845, 208 and 1507; before the evaluator read
// each row once, 254, 5300, 2314 and 3161.
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

// TestOneTableAggregateReadsPartsOnce: a group-by over a repair with 4, 8
// and 10 duplicated keys — 16, 256 and 1024 worlds — takes the parts
// path, evaluates every combination and reads each part once: its rows
// are the table's certain plus piece rows at every size, however many
// worlds there are. The statement's root span carries the same counts.
func TestOneTableAggregateReadsPartsOnce(t *testing.T) {
	for _, dups := range []int{4, 8, 10} {
		db := datagen.CensusRepairDecomp(100, dups, 1)
		s := FromCatalog(store.New(db))
		ri := db.IndexOf("Clean")
		parts := db.Certain[ri].Len()
		for _, p := range db.Pieces(ri) {
			parts += p.Rel.Len()
		}
		tr := obs.NewTrace("stmt")
		s.SetTrace(tr)
		mustExec(t, s, "select POW, count(*) as N from Clean group by POW;")
		s.SetTrace(nil)
		root := map[string]string{}
		for _, a := range tr.SortedAttrs() {
			root[a.Key] = a.Val
		}
		var span map[string]string
		for _, c := range tr.Children() {
			if c.Name == "exec.bounded" {
				span = map[string]string{}
				for _, a := range c.SortedAttrs() {
					span[a.Key] = a.Val
				}
			}
		}
		worlds, rows := fmt.Sprint(1<<dups), fmt.Sprint(parts)
		t.Logf("%d duplicated keys: eval=%s worlds=%s rows=%s (parts hold %s rows)", dups, span["eval"], span["worlds"], span["rows"], rows)
		if span["eval"] != "parts" || span["worlds"] != worlds || span["rows"] != rows {
			t.Errorf("%d duplicated keys: exec.bounded %v, want eval=parts worlds=%s rows=%s", dups, span, worlds, rows)
		}
		if root["worlds"] != worlds || root["rows"] != rows {
			t.Errorf("%d duplicated keys: root span %v, want worlds=%s rows=%s", dups, root, worlds, rows)
		}
	}
}

// TestOneTableAggregateSharesIndexConcurrently: 8 goroutines, each with
// its own session on one catalog, run sum, avg and min group-bys whose
// certain part is read through one cached index. sum and avg sort the
// rows of a group in place, so each key's rows must reach them as a
// private slice: the index's buckets hold the same rows in the same
// order afterwards, and every goroutine reads the answers a lone session
// reads. Run it with -race.
func TestOneTableAggregateSharesIndexConcurrently(t *testing.T) {
	r := relation.New(relation.NewSchema("G", "K", "V"))
	for i := 0; i < 400; i++ {
		r.Insert(relation.Tuple{value.Int(int64(i % 5)), value.Int(int64((i * 7919) % 400)), value.Float(float64(i%13) + 0.5)})
	}
	cat := store.New(wsd.NewDecompDB(nil, nil).WithRelation("T", r.Schema(), r))
	stmts := []string{
		"select G, sum(V) as S from T group by G;",
		"select G, avg(V) as M from T group by G;",
		"select G, min(V) as M, sum(K) as S from T group by G;",
	}
	ix := cat.Snapshot().DB.Certain[0].IndexOn([]int{0})
	before := map[string][]relation.Tuple{}
	ix.Groups(func(g relation.IndexGroup) {
		before[relation.Tuple{g.Rows[0][0]}.Key()] = slices.Clone(g.Rows)
	})
	sorted := 0
	for _, rows := range before {
		if slices.IsSortedFunc(rows, relation.Tuple.Compare) {
			sorted++
		}
	}
	if sorted == len(before) {
		t.Fatal("every bucket is already in Tuple.Compare order: an in-place sort would not show")
	}
	want := make([]string, len(stmts))
	for i, sql := range stmts {
		want[i] = answerKeys(mustExec(t, FromCatalog(cat), sql).Answers)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := FromCatalog(cat)
			for i := 0; i < 30; i++ {
				q := (g + i) % len(stmts)
				res, err := s.ExecString(stmts[q])
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := answerKeys(res.Answers); got != want[q] {
					errs <- fmt.Sprintf("%s:\n%swant\n%s", stmts[q], got, want[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := cat.Snapshot().DB.Certain[0].IndexOn([]int{0}); got != ix {
		t.Fatal("the catalog's cached index was rebuilt")
	}
	ix.Groups(func(g relation.IndexGroup) {
		if rows := before[relation.Tuple{g.Rows[0][0]}.Key()]; !slices.EqualFunc(rows, g.Rows, relation.Tuple.Equal) {
			t.Errorf("key %v: the index's rows changed order or content", g.Rows[0][0])
		}
	})
}
