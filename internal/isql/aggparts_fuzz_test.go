package isql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// fuzzDecomp draws a small decomposition of T(G, V) and U(G): a certain
// part and up to four components of up to three alternatives, each
// contributing a few rows to T and sometimes to U. Rows come from a
// small domain, so pieces often repeat a certain row or a row of another
// component. V mixes small integers with floats whose sum depends on
// the order they are added in.
func fuzzDecomp(rng *rand.Rand) *wsd.DecompDB {
	ts, us := relation.NewSchema("G", "V"), relation.NewSchema("G")
	vals := []value.Value{value.Float(1e16), value.Float(-1e16), value.Float(0.5), value.Float(1.5)}
	for v := int64(0); v < 4; v++ {
		vals = append(vals, value.Int(v))
	}
	rows := func(n int) *relation.Relation {
		r := relation.New(ts)
		for i := 0; i < n; i++ {
			r.Insert(relation.Tuple{value.Int(int64(rng.Intn(3))), vals[rng.Intn(len(vals))]})
		}
		return r
	}
	db := wsd.NewDecompDB([]string{"T", "U"}, []relation.Schema{ts, us})
	db.Certain[0] = rows(rng.Intn(6))
	for c := rng.Intn(5); c > 0; c-- {
		comp := wsd.DBComponent{ID: uint64(c)}
		for a := 1 + rng.Intn(3); a > 0; a-- {
			alt := wsd.DBAlternative{Rels: map[int]*relation.Relation{0: rows(rng.Intn(3))}}
			if rng.Intn(3) == 0 {
				u := relation.New(us)
				u.Insert(relation.Tuple{value.Int(int64(rng.Intn(3)))})
				alt.Rels[1] = u
			}
			comp.Alternatives = append(comp.Alternatives, alt)
		}
		db.Components = append(db.Components, comp)
	}
	return db
}

// fuzzAggregate draws a one-table aggregate over T: one or two
// aggregates, an optional group-by on G, an optional filter, an optional
// possible/certain close, and sometimes a plain column outside any
// aggregate, which reads the group's least row.
func fuzzAggregate(rng *rand.Rand) string {
	aggs := []string{"count(*)", "count(V)", "sum(V)", "avg(V)", "min(V)", "max(V)", "sum(G)", "max(V) - min(V)"}
	items := []string{aggs[rng.Intn(len(aggs))] + " as A"}
	if rng.Intn(3) == 0 {
		items = append(items, aggs[rng.Intn(len(aggs))]+" as B")
	}
	group := rng.Intn(2) == 0
	if group || rng.Intn(4) == 0 {
		items = append([]string{"G"}, items...)
	} else if rng.Intn(4) == 0 {
		items = append([]string{"V"}, items...)
	}
	close := []string{"", "", "possible ", "certain "}[rng.Intn(4)]
	sql := fmt.Sprintf("select %s%s from T", close, strings.Join(items, ", "))
	switch rng.Intn(4) {
	case 0:
		sql += fmt.Sprintf(" where V %s %d", []string{"=", "!=", "<", ">="}[rng.Intn(4)], rng.Intn(4))
	case 1:
		sql += fmt.Sprintf(" where G != %d", rng.Intn(3))
	}
	if group {
		sql += " group by G"
	}
	return sql + ";"
}

// FuzzOneTableAggregate: over a random small decomposition, overlapping
// parts included, a random one-table aggregate answers byte for byte
// what the legacy engine answers world by world — the native session
// taking the parts path where the parts are disjoint and the worlds path
// where they are not — or fails with the same error.
func FuzzOneTableAggregate(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed*7919)
	}
	f.Fuzz(func(t *testing.T, dbSeed, querySeed int64) {
		cat := store.New(fuzzDecomp(rand.New(rand.NewSource(dbSeed))))
		sql := fuzzAggregate(rand.New(rand.NewSource(querySeed)))
		run := func(engine string) string {
			s := FromCatalog(cat)
			s.Engine = engine
			res, err := s.ExecString(sql)
			if err != nil {
				return "error: " + err.Error()
			}
			var b strings.Builder
			for _, r := range res.Answers {
				b.WriteString(r.String())
			}
			return b.String()
		}
		if got, want := run(""), run(legacyEngine); got != want {
			t.Fatalf("%s over\n%s\nnative:\n%s\nlegacy:\n%s", sql, cat.Snapshot().DB, got, want)
		}
	})
}
