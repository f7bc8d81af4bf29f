package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// shardNames returns nshards relation names such that name i homes on
// shard i — test fixtures place one relation per shard deterministically.
func shardNames(nshards int) []string {
	names := make([]string, nshards)
	for i := range names {
		for j := 0; ; j++ {
			name := fmt.Sprintf("T%d_%d", i, j)
			if shardOfName(name, nshards) == i {
				names[i] = name
				break
			}
		}
	}
	return names
}

// insInto stages "insert v into table" on tx through Tx.InsertCertain,
// the session's INSERT path, logged as "ins <table> <v>".
func insInto(tx *Tx, table string, v int) error {
	tx.Log(fmt.Sprintf("ins %s %d", table, v))
	i := tx.DB().IndexOf(table)
	if i < 0 {
		return fmt.Errorf("no relation %q", table)
	}
	tx.InsertCertain(i, []relation.Tuple{{value.Int(int64(v))}})
	return nil
}

// mkTable stages "create table name" on tx, logged as "mk <name>".
func mkTable(tx *Tx, name string) error {
	tx.Log("mk " + name)
	tx.SetDB(tx.DB().WithRelation(name, relation.NewSchema("X"), nil))
	return nil
}

// ctasTable stages a CTAS that creates components: a new table name
// holding one component that chooses one of vals, logged as
// "ctas <name> <vals...>".
func ctasTable(tx *Tx, name string, vals ...int64) error {
	stmt := "ctas " + name
	for _, v := range vals {
		stmt += " " + strconv.FormatInt(v, 10)
	}
	tx.Log(stmt)
	db := tx.DB().WithRelation(name, relation.NewSchema("X"), nil)
	db.Components = append(db.Components, compOf(db, 0, name, vals...))
	tx.SetDB(db)
	return nil
}

// dropTable stages "drop table name", logged as "drop <name>".
func dropTable(tx *Tx, name string) error {
	tx.Log("drop " + name)
	i := tx.DB().IndexOf(name)
	if i < 0 {
		return fmt.Errorf("no relation %q", name)
	}
	tx.SetDB(tx.DB().DropRelation(i).Normalize())
	return nil
}

// mkView stages "create view name as select X from table", logged as
// "view <name> <table>".
func mkView(tx *Tx, name, table string) error {
	tx.Log("view " + name + " " + table)
	tx.SetView(name, "select X from "+table)
	return nil
}

// shardApplier re-executes the "mk", "ctas", "drop", "view" and "ins"
// records the sharded tests log — the statement-level oracle
// sweepReference compares delta recovery against.
func shardApplier(cat *Catalog, rec WALRecord) error {
	txn := cat.Begin()
	for _, stmt := range rec.Stmts {
		f := strings.Fields(stmt)
		var err error
		switch f[0] {
		case "mk":
			err = txn.UpdateRouted(nil, func(tx *Tx) error { return mkTable(tx, f[1]) })
		case "ctas":
			var vals []int64
			for _, a := range f[2:] {
				v, _ := strconv.ParseInt(a, 10, 64)
				vals = append(vals, v)
			}
			err = txn.UpdateRouted(nil, func(tx *Tx) error { return ctasTable(tx, f[1], vals...) })
		case "drop":
			err = txn.UpdateRouted(nil, func(tx *Tx) error { return dropTable(tx, f[1]) })
		case "view":
			err = txn.UpdateRouted(nil, func(tx *Tx) error { return mkView(tx, f[1], f[2]) })
		case "ins":
			v, _ := strconv.Atoi(f[2])
			err = txn.UpdateRouted([]string{f[1]}, func(tx *Tx) error { return insInto(tx, f[1], v) })
		default:
			err = fmt.Errorf("unknown test statement %q", stmt)
		}
		if err != nil {
			txn.Rollback()
			return err
		}
	}
	return txn.Commit()
}

// dbBytes serializes a snapshot's database content without the version
// stamp, for byte-identity comparison across differently numbered
// histories.
func dbBytes(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	return saveBytes(t, &Snapshot{DB: snap.DB, Views: snap.Views})
}

func newShardedFixture(t *testing.T, nshards int) (*Catalog, []string) {
	t.Helper()
	names := shardNames(nshards)
	rels := make([]*relation.Relation, len(names))
	for i := range rels {
		rels[i] = relation.New(relation.NewSchema("X"))
	}
	c := NewSharded(wsd.FromComplete(names, rels), nshards)
	return c, names
}

// TestShardOfNameIsFNV1a: the inline hash routes every name exactly as
// hash/fnv's FNV-1a does — directories written by earlier builds keep
// their relations on the same shards.
func TestShardOfNameIsFNV1a(t *testing.T) {
	for _, name := range []string{"", "R", "Census", "Log0", "Audit3_17", "T0_0", "ü名"} {
		h := fnv.New32a()
		h.Write([]byte(name))
		for _, n := range []int{1, 2, 4, 7, 8} {
			if got, want := shardOfName(name, n), int(h.Sum32()%uint32(n)); got != want {
				t.Fatalf("shardOfName(%q, %d) = %d, FNV-1a says %d", name, n, got, want)
			}
		}
	}
}

// TestRoutedCommitAdvancesOneShard: a single-table commit bumps only
// its home shard's version; the other shards' versions — what their
// next commits log as prev links — are untouched. On a durable catalog
// it fsyncs its home shard's segment once and no other, and in memory it
// allocates no more than 10 % over the same commit at one shard.
func TestRoutedCommitAdvancesOneShard(t *testing.T) {
	c, names := newShardedFixture(t, 4)
	before := c.ShardStats()
	err := c.UpdateRouted([]string{names[2]}, func(tx *Tx) error { return insInto(tx, names[2], 7) })
	if err != nil {
		t.Fatal(err)
	}
	after := c.ShardStats()
	for i := range after {
		if i == 2 {
			if after[i].Version <= before[i].Version || after[i].Commits != before[i].Commits+1 {
				t.Fatalf("home shard stats unchanged: %+v -> %+v", before[i], after[i])
			}
			continue
		}
		if after[i].Version != before[i].Version || after[i].Commits != before[i].Commits {
			t.Fatalf("shard %d moved on a foreign commit: %+v -> %+v", i, before[i], after[i])
		}
	}
	snap := c.Snapshot()
	if got := snap.DB.Certain[snap.DB.IndexOf(names[2])].Len(); got != 1 {
		t.Fatalf("inserted tuple missing: len %d", got)
	}

	durable, wals := openDir(t, t.TempDir(), 4)
	defer closeWALs(wals)
	if err := durable.UpdateRouted(nil, func(tx *Tx) error { return mkTable(tx, names[2]) }); err != nil {
		t.Fatal(err)
	}
	before = durable.ShardStats()
	if err := durable.UpdateRouted([]string{names[2]}, func(tx *Tx) error { return insInto(tx, names[2], 7) }); err != nil {
		t.Fatal(err)
	}
	for i, st := range durable.ShardStats() {
		want := before[i].Syncs
		if i == 2 {
			want++
		}
		if st.Syncs != want {
			t.Errorf("durable shard %d: %d fsyncs for a commit homed on shard 2, want %d", i, st.Syncs-before[i].Syncs, want-before[i].Syncs)
		}
	}

	var allocs []float64
	for _, nshards := range []int{1, 4} {
		c, names := newShardedFixture(t, nshards)
		home, v := names[len(names)-1], 0
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			v++
			if err := c.UpdateRouted([]string{home}, func(tx *Tx) error { return insInto(tx, home, v) }); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("allocations per routed commit: %.0f at 1 shard, %.0f at 4", allocs[0], allocs[1])
	if allocs[1] > 1.1*allocs[0] {
		t.Errorf("a routed commit allocates %.0f at 4 shards, %.0f at 1: over 10 %% more", allocs[1], allocs[0])
	}
}

// TestShardedDisjointWritersParallel: writers on distinct shards commit
// concurrently; every commit lands, the merged snapshot holds all of
// them, and per-shard commit counters attribute them correctly.
func TestShardedDisjointWritersParallel(t *testing.T) {
	const perWriter = 50
	c, names := newShardedFixture(t, 4)
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	for w := range names {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				err := c.UpdateRouted([]string{names[w]}, func(tx *Tx) error {
					return insInto(tx, names[w], k)
				})
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	snap := c.Snapshot()
	for w, name := range names {
		if got := snap.DB.Certain[snap.DB.IndexOf(name)].Len(); got != perWriter {
			t.Fatalf("relation %s (writer %d) has %d tuples, want %d", name, w, got, perWriter)
		}
	}
	for i, st := range c.ShardStats() {
		if st.Commits != perWriter {
			t.Fatalf("shard %d counted %d commits, want %d", i, st.Commits, perWriter)
		}
		if st.Conflicts != 0 {
			t.Fatalf("shard %d reported %d conflicts on a disjoint workload", i, st.Conflicts)
		}
	}
}

// TestStagedDisjointShardsNoConflict: a staged transaction writing one
// relation commits after an interloper committed on another — on a
// different shard, and on the same one (the one-shard catalog) — since
// validation is per relation. An interloper on the transaction's own
// relation still conflicts, named in the error and counted on the
// relation's home shard.
func TestStagedDisjointShardsNoConflict(t *testing.T) {
	one, oneNames := newShardedFixture(t, 1)
	if err := one.UpdateRouted(nil, func(tx *Tx) error { return mkTable(tx, "Other") }); err != nil {
		t.Fatal(err)
	}
	txn1 := one.Begin()
	if err := txn1.UpdateRouted([]string{oneNames[0]}, func(tx *Tx) error { return insInto(tx, oneNames[0], 1) }); err != nil {
		t.Fatal(err)
	}
	if err := one.UpdateRouted([]string{"Other"}, func(tx *Tx) error { return insInto(tx, "Other", 2) }); err != nil {
		t.Fatal(err)
	}
	if err := txn1.Commit(); err != nil {
		t.Fatalf("one shard: a commit on another relation caused a conflict: %v", err)
	}
	if st := one.ShardStats()[0]; st.Conflicts != 0 {
		t.Fatalf("one shard: %d conflicts counted for disjoint relations", st.Conflicts)
	}

	c, names := newShardedFixture(t, 4)
	txn := c.Begin()
	if err := txn.UpdateRouted([]string{names[0]}, func(tx *Tx) error { return insInto(tx, names[0], 1) }); err != nil {
		t.Fatal(err)
	}
	// Interloper on a different shard.
	if err := c.UpdateRouted([]string{names[3]}, func(tx *Tx) error { return insInto(tx, names[3], 2) }); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("disjoint interloper caused a conflict: %v", err)
	}
	snap := c.Snapshot()
	if snap.DB.Certain[snap.DB.IndexOf(names[0])].Len() != 1 || snap.DB.Certain[snap.DB.IndexOf(names[3])].Len() != 1 {
		t.Fatal("one of the disjoint commits is missing")
	}

	txn2 := c.Begin()
	if err := txn2.UpdateRouted([]string{names[0]}, func(tx *Tx) error { return insInto(tx, names[0], 3) }); err != nil {
		t.Fatal(err)
	}
	// Interloper on the SAME shard: first committer wins.
	if err := c.UpdateRouted([]string{names[0]}, func(tx *Tx) error { return insInto(tx, names[0], 4) }); err != nil {
		t.Fatal(err)
	}
	err := txn2.Commit()
	var ce *ConflictError
	if !errors.As(err, &ce) || ce.Relation != names[0] || !strings.Contains(err.Error(), names[0]) {
		t.Fatalf("same-relation interloper: want *ConflictError naming %s, got %v", names[0], err)
	}
	for i, st := range c.ShardStats() {
		want := uint64(0)
		if i == c.ShardOf(names[0]) {
			want = 1
		}
		if st.Conflicts != want {
			t.Fatalf("shard %d counted %d conflicts, want %d", i, st.Conflicts, want)
		}
	}
}

// TestStagedReadShardValidated: a transaction that only READ a shard
// conflicts when that shard moves before commit — reads are part of the
// validation set, keeping staged transactions serializable rather than
// merely write-consistent.
func TestStagedReadShardValidated(t *testing.T) {
	c, names := newShardedFixture(t, 4)
	txn := c.Begin()
	txn.MarkReads(map[string]bool{names[1]: true})
	if err := txn.UpdateRouted([]string{names[0]}, func(tx *Tx) error { return insInto(tx, names[0], 1) }); err != nil {
		t.Fatal(err)
	}
	// Interloper commits on the READ shard.
	if err := c.UpdateRouted([]string{names[1]}, func(tx *Tx) error { return insInto(tx, names[1], 9) }); err != nil {
		t.Fatal(err)
	}
	err := txn.Commit()
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("stale read shard: want *ConflictError, got %v", err)
	}
}

// TestStagedDisjointWritersConcurrent: eight staged writers on disjoint
// relations, spread round-robin over a durable catalog of 1, 2, 4 and 8
// shards, never conflict: every transaction commits first time, rebased
// over whatever landed since its Begin and chained behind in-flight
// group commits, and recovery replays the result byte for byte.
func TestStagedDisjointWritersConcurrent(t *testing.T) {
	for _, nshards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) { stagedDisjointWriters(t, nshards) })
	}
}

func stagedDisjointWriters(t *testing.T, nshards int) {
	const writers, txns = 8, 15
	dir := t.TempDir()
	cat, wals := openDir(t, dir, nshards)
	var tables []string
	for i := 0; len(tables) < writers; i++ {
		if name := fmt.Sprintf("W%d", i); shardOfName(name, nshards) == len(tables)%nshards {
			tables = append(tables, name)
		}
	}
	for _, name := range tables {
		if err := cat.UpdateRouted(nil, func(tx *Tx) error { return mkTable(tx, name) }); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, name := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < txns; k++ {
				txn := cat.Begin()
				for _, v := range []int{2 * k, 2*k + 1} {
					if err := txn.UpdateRouted([]string{name}, func(tx *Tx) error { return insInto(tx, name, v) }); err != nil {
						t.Error(err)
						return
					}
				}
				if err := txn.Commit(); err != nil {
					t.Errorf("%s transaction %d: %v", name, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	snap := cat.Snapshot()
	for _, name := range tables {
		if got := snap.DB.Certain[snap.DB.IndexOf(name)].Len(); got != 2*txns {
			t.Fatalf("%s holds %d rows, want %d", name, got, 2*txns)
		}
	}
	for _, st := range cat.ShardStats() {
		if st.Conflicts != 0 {
			t.Fatalf("shard %d counted %d conflicts between disjoint writers", st.Shard, st.Conflicts)
		}
	}
	want := dbBytes(t, snap)
	closeWALs(wals)
	rec, rwals := openDir(t, dir, nshards)
	defer closeWALs(rwals)
	if got := dbBytes(t, rec.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("recovery differs from the published state\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRoutedCommitReplacesOnlyItsClosure: a routed commit whose staged
// state also changed a relation outside its closure (a whole-catalog
// re-normalization can) publishes, logs and chains on only its own
// relations — the next commit on the shard builds on what was
// published, and recovery replays both byte for byte.
func TestRoutedCommitReplacesOnlyItsClosure(t *testing.T) {
	forShardCounts(t, func(t *testing.T, nshards int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, nshards)
		for _, n := range []string{"R", "U"} {
			if err := cat.UpdateRouted(nil, func(tx *Tx) error { return mkTable(tx, n) }); err != nil {
				t.Fatal(err)
			}
		}
		u := cat.Snapshot().DB.Certain[1]
		if err := cat.UpdateRouted([]string{"R"}, func(tx *Tx) error {
			if err := insInto(tx, "R", 1); err != nil {
				return err
			}
			stray := relation.FromRows(relation.NewSchema("X"), relation.Tuple{value.Int(99)})
			tx.SetDB(tx.DB().WithCertain(1, stray))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sIns(t, cat, "R", 2)
		snap := cat.Snapshot()
		if snap.DB.Certain[1] != u || snap.DB.Certain[0].Len() != 2 {
			t.Fatalf("published R=%v U=%v: want both inserts in R and U untouched", snap.DB.Certain[0], snap.DB.Certain[1])
		}
		want := dbBytes(t, snap)
		closeWALs(wals)
		rec, rwals := openDir(t, dir, nshards)
		defer closeWALs(rwals)
		if got := dbBytes(t, rec.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("recovery differs from the published state\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
	})
}

// TestStagedComponentMoveConflicts: a commit that rewrites only a
// component — here its contribution to the transaction's relation,
// leaving every certain part alone — is a conflict, found by the
// component's shape and reported with its ID. Committing anyway would
// overlay the transaction's stale copy of the component onto the
// winner's, losing its update.
func TestStagedComponentMoveConflicts(t *testing.T) {
	forShardCounts(t, func(t *testing.T, nshards int) {
		names := shardNames(nshards)
		rels := make([]*relation.Relation, len(names))
		for i := range rels {
			rels[i] = relation.New(relation.NewSchema("X"))
		}
		db := wsd.FromComplete(names, rels)
		r, s := 0, len(names)-1 // on two shards when there are several
		alt := func(a, b int) wsd.DBAlternative {
			return wsd.DBAlternative{Rels: map[int]*relation.Relation{
				r: relation.FromRows(relation.NewSchema("X"), relation.Tuple{value.Int(int64(a))}),
				s: relation.FromRows(relation.NewSchema("X"), relation.Tuple{value.Int(int64(b))}),
			}}
		}
		if r == s {
			db = db.WithRelation("S", relation.NewSchema("X"), nil)
			s = 1
		}
		db.Components = []wsd.DBComponent{{Alternatives: []wsd.DBAlternative{alt(1, 10), alt(2, 20)}}}
		c := NewSharded(db, nshards)
		id := c.Snapshot().DB.Components[0].ID

		txn := c.Begin()
		if err := txn.UpdateRouted([]string{names[r]}, func(tx *Tx) error { return insInto(tx, names[r], 7) }); err != nil {
			t.Fatal(err)
		}
		sName := c.Snapshot().DB.Names[s]
		if err := c.UpdateRouted([]string{sName}, func(tx *Tx) error {
			tx.Log("rewrite component")
			db := tx.DB()
			tx.SetDB(&wsd.DecompDB{Names: db.Names, Schemas: db.Schemas, Certain: db.Certain,
				Components: []wsd.DBComponent{{ID: id, Alternatives: []wsd.DBAlternative{alt(1, 10), alt(3, 20)}}}})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		err := txn.Commit()
		var ce *ConflictError
		if !errors.As(err, &ce) || ce.Component != id || (ce.Relation != names[r] && ce.Relation != sName) {
			t.Fatalf("want a conflict on component %d of %s or %s, got %v", id, names[r], sName, err)
		}
		if !c.Snapshot().DB.Components[0].Alternatives[1].Rels[r].Contains(relation.Tuple{value.Int(3)}) {
			t.Fatal("the winner's component rewrite was lost")
		}
	})
}

// TestCrossShardComponentRoutes: a component spanning relations homed on
// two shards pulls both shards into any route touching either relation,
// so a routed DML that rewrites the component can never tear it.
func TestCrossShardComponentRoutes(t *testing.T) {
	names := shardNames(4)
	rels := make([]*relation.Relation, len(names))
	for i := range rels {
		rels[i] = relation.New(relation.NewSchema("X"))
	}
	db := wsd.FromComplete(names, rels)
	// One component contributing to relations 0 and 1 (shards 0 and 1).
	alt := func(vals map[int]int) wsd.DBAlternative {
		m := map[int]*relation.Relation{}
		for ri, v := range vals {
			m[ri] = relation.FromRows(relation.NewSchema("X"), relation.Tuple{value.Int(int64(v))})
		}
		return wsd.DBAlternative{Rels: m}
	}
	db.Components = append(db.Components, wsd.DBComponent{Alternatives: []wsd.DBAlternative{
		alt(map[int]int{0: 1, 1: 10}),
		alt(map[int]int{0: 2, 1: 20}),
	}})
	c := NewSharded(db, 4)
	ps := c.refShards(c.Snapshot().DB, []string{names[0]})
	if len(ps) != 2 || ps[0] != 0 || ps[1] != 1 {
		t.Fatalf("route of %s = %v, want [0 1] (component closure)", names[0], ps)
	}
	// A routed delete on relation 0 that rewrites the component commits
	// through the multi-shard path and stays consistent: alternatives
	// keep pairing 2 with 20.
	err := c.UpdateRouted([]string{names[0]}, func(tx *Tx) error {
		tx.Log("del")
		db := tx.DB()
		next, err := db.MapRelation(0, func(r *relation.Relation) (*relation.Relation, error) {
			nr := relation.New(r.Schema())
			r.Each(func(t relation.Tuple) {
				if t[0] != value.Int(1) {
					nr.Insert(t)
				}
			})
			return nr, nil
		})
		if err != nil {
			return err
		}
		tx.SetDB(next.Normalize())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	ws, err := snap.DB.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws.Worlds() {
		has := func(ri, v int) bool { return w[ri].Contains(relation.Tuple{value.Int(int64(v))}) }
		if has(0, 2) != has(1, 20) {
			t.Fatalf("torn component: world pairs 2-with-20 broken\n%v", w)
		}
	}
}

// TestMergeComponentsSnapshotRace: a reader merging components that
// span shards, racing commits that rewrite those same components, must
// see only its immutable snapshot — the merge result is byte-identical
// to the serial merge of the same snapshot, every iteration, under
// -race. This is the cross-shard snapshot-isolation guarantee for
// wsd.MergeComponents.
func TestMergeComponentsSnapshotRace(t *testing.T) {
	names := shardNames(4)
	rels := make([]*relation.Relation, len(names))
	for i := range rels {
		rels[i] = relation.New(relation.NewSchema("X"))
	}
	db := wsd.FromComplete(names, rels)
	alt1 := func(ri, v int) wsd.DBAlternative {
		return wsd.DBAlternative{Rels: map[int]*relation.Relation{
			ri: relation.FromRows(relation.NewSchema("X"), relation.Tuple{value.Int(int64(v))})}}
	}
	// Component 0 on shard 0's relation, component 1 on shard 1's: the
	// merge spans shards.
	db.Components = append(db.Components,
		wsd.DBComponent{Alternatives: []wsd.DBAlternative{alt1(0, 1), alt1(0, 2)}},
		wsd.DBComponent{Alternatives: []wsd.DBAlternative{alt1(1, 10), alt1(1, 20)}},
	)
	c := NewSharded(db, 4)
	snap := c.Snapshot()
	ref, err := wsd.MergeComponents(snap.DB, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	refStr := ref.String()

	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The writer rewrites BOTH merged components (inserting into
		// relations 0 and 1 makes their alternatives' tuples certain and
		// Normalize rewrites the components) plus an unrelated shard.
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			target := names[k%3]
			if err := c.UpdateRouted([]string{target}, func(tx *Tx) error {
				return insInto(tx, target, 100+k)
			}); err != nil {
				writerErr = err
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		merged, err := wsd.MergeComponents(snap.DB, []int{0, 1})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got := merged.String(); got != refStr {
			t.Fatalf("iteration %d: racing merge differs from serial merge of the same snapshot\n--- got ---\n%s\n--- want ---\n%s", i, got, refStr)
		}
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
}

// TestShardedWALGroupCommitPerShard: durable sharded catalog; commits
// on one shard coalesce fsyncs on that shard's segment while another
// shard's segment syncs independently.
func TestShardedWALGroupCommitPerShard(t *testing.T) {
	dir := t.TempDir()
	cat, wals := openDir(t, dir, 4)
	defer closeWALs(wals)
	names := shardNames(4)
	for _, n := range names {
		if err := cat.UpdateRouted(nil, func(tx *Tx) error { return mkTable(tx, n) }); err != nil {
			t.Fatal(err)
		}
	}
	const writers, per = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := names[w%len(names)]
			for k := 0; k < per; k++ {
				if err := cat.UpdateRouted([]string{name}, func(tx *Tx) error {
					return insInto(tx, name, w*per+k)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := dbBytes(t, cat.Snapshot())
	wantVer := cat.Snapshot().Version

	// Crash (drop the segments without checkpointing) and recover.
	closeWALs(wals)
	cat2, wals2 := openDir(t, dir, 4)
	defer closeWALs(wals2)
	if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("recovered catalog differs from pre-crash state\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if got := cat2.Snapshot().Version; got != wantVer {
		t.Fatalf("recovered version %d, want last durable epoch %d", got, wantVer)
	}
}

// copyDir duplicates a WAL directory for destructive truncation.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(src + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst+"/"+e.Name(), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashSweepEveryCutPoint is the crash-recovery acceptance sweep,
// at one shard and at four: after a checkpoint holding a component,
// run a workload mixing single-shard commits, a staged transaction
// rebased over a commit on another relation, a staged transaction over
// two tables (cross-shard at four shards), one more commit per
// participant, and all-shard schema changes — a CTAS creating a
// component, a create table, a drop that shifts component-bearing
// relations' indexes, a view — over per-shard segments, then for every
// segment and every torn-tail cut point (each line boundary and
// mid-line) recover the truncated directory. The outcome must be the one
// an independent reference computes from the checkpoint and the
// surviving records: either the state byte-identical to statement
// re-execution of the surviving epochs — every cut a crash can produce,
// including the one that tears the cross-shard transaction's record and
// must roll it back on every shard — or, for a cut no crash can
// produce, which leaves a committed epoch behind a hole on one of its
// shards, a *RecoveryError naming that shard and epoch, with the
// directory left as found.
func TestCrashSweepEveryCutPoint(t *testing.T) {
	forShardCounts(t, func(t *testing.T, nshards int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, nshards)
		names := shardNames(nshards)
		ddl := func(fn func(tx *Tx) error) {
			t.Helper()
			if err := cat.UpdateRouted(nil, fn); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range append(names, "Z", "Gone") {
			ddl(func(tx *Tx) error { return mkTable(tx, n) })
		}
		// A component-bearing table listed after Gone, in the checkpoint.
		ddl(func(tx *Tx) error { return ctasTable(tx, "P0", 1, 2) })
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ckpt := saveBytes(t, cat.Snapshot())
		// Schema changes, each logged as what it touched: a CTAS creating a
		// component, a create table, a drop of Gone that shifts the indexes
		// of P0 and P1 and so of their components, a view, and an insert
		// into P0 at its shifted index.
		ddl(func(tx *Tx) error { return ctasTable(tx, "P1", 3, 4, 5) })
		ddl(func(tx *Tx) error { return mkTable(tx, "W") })
		ddl(func(tx *Tx) error { return dropTable(tx, "Gone") })
		ddl(func(tx *Tx) error { return mkView(tx, "V", "P1") })
		sIns(t, cat, "P0", 7)
		for k := 0; k < 3; k++ {
			for _, n := range names {
				sIns(t, cat, n, k)
			}
		}
		// A staged transaction rebased over a commit on another relation
		// that landed between its Begin and Commit — on the same shard
		// when there is one: it commits, logged against the newer head.
		rebased := cat.Begin()
		if err := rebased.UpdateRouted([]string{names[0]}, func(tx *Tx) error { return insInto(tx, names[0], 555) }); err != nil {
			t.Fatal(err)
		}
		sIns(t, cat, "Z", 556)
		if err := rebased.Commit(); err != nil {
			t.Fatalf("transaction on %s conflicted with a commit on Z: %v", names[0], err)
		}
		// Staged transaction over two tables — two shards when there are
		// four: cutting its one record, on the coordinator's segment,
		// simulates a crash mid-commit.
		ta, tb := names[0], names[nshards/2]
		txn := cat.Begin()
		if err := txn.UpdateRouted([]string{ta}, func(tx *Tx) error { return insInto(tx, ta, 777) }); err != nil {
			t.Fatal(err)
		}
		if err := txn.UpdateRouted([]string{tb}, func(tx *Tx) error { return insInto(tx, tb, 888) }); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		// More epochs behind the transaction: on a bystander shard (it
		// survives a rolled-back transaction in front of it) and on a
		// participant (it was staged on the transaction's state, so it
		// cannot survive without it).
		sIns(t, cat, names[nshards-1], 999)
		sIns(t, cat, tb, 1000)
		closeWALs(wals)

		recovered, refused := 0, 0
		for si := 0; si < nshards; si++ {
			data, err := os.ReadFile(segmentPath(dir, si))
			if err != nil {
				t.Fatal(err)
			}
			// Every line boundary, plus a point inside each line.
			cuts := []int{0}
			for off, b := range data {
				if b == '\n' {
					cuts = append(cuts, off+1)
					if off+1 < len(data) {
						cuts = append(cuts, off+3) // mid next line: torn record
					}
				}
			}
			for _, cut := range cuts {
				if cut > len(data) {
					continue
				}
				cdir := fmt.Sprintf("%s-s%d-c%d", dir, si, cut)
				copyDir(t, dir, cdir)
				if err := os.WriteFile(segmentPath(cdir, si), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				want, lastEpoch, orphan := sweepReference(t, ckpt, cdir, nshards)
				if orphan != nil {
					before := dirFiles(t, cdir)
					re := openRefused(t, cdir, nshards)
					if re.Shard != orphan.Shard || re.Epoch != orphan.Epoch || !reflect.DeepEqual(dirFiles(t, cdir), before) {
						t.Fatalf("shard %d cut %d: refused at shard %d e%d, want shard %d e%d with the directory left as found: %v",
							si, cut, re.Shard, re.Epoch, orphan.Shard, orphan.Epoch, re)
					}
					refused++
					os.RemoveAll(cdir)
					continue
				}
				rec, rwals := openDir(t, cdir, nshards)
				got := dbBytes(t, rec.Snapshot())
				if !bytes.Equal(got, want) {
					t.Fatalf("shard %d cut %d: recovery differs from statement re-execution\n--- got ---\n%s\n--- want ---\n%s", si, cut, got, want)
				}
				if rec.Snapshot().Version != lastEpoch {
					t.Fatalf("shard %d cut %d: recovered version %d, want %d", si, cut, rec.Snapshot().Version, lastEpoch)
				}
				// Atomicity of the transaction: 777 and 888 appear together
				// or not at all.
				db := rec.Snapshot().DB
				h7 := db.IndexOf(ta) >= 0 && db.Certain[db.IndexOf(ta)].Contains(relation.Tuple{value.Int(777)})
				h8 := db.IndexOf(tb) >= 0 && db.Certain[db.IndexOf(tb)].Contains(relation.Tuple{value.Int(888)})
				if h7 != h8 {
					t.Fatalf("shard %d cut %d: torn cross-shard commit (777=%v, 888=%v)", si, cut, h7, h8)
				}
				closeWALs(rwals)
				recovered++
				os.RemoveAll(cdir)
			}
		}
		t.Logf("%d cuts recovered, %d refused", recovered, refused)
		if recovered == 0 || (refused > 0) != (nshards > 1) {
			t.Fatalf("%d cuts recovered, %d refused: the sweep must recover cuts at every shard count and meet orphaned epochs exactly when there are several segments", recovered, refused)
		}
	})
}

// sweepReference independently computes what recovery must do with a
// (possibly truncated) segment directory whose checkpoint is ckpt (the
// Save of the checkpointed snapshot): scan each segment, take one
// record per epoch with its participants from the record (the segment's
// shard when it lists none), then walk them in epoch order keeping the
// last epoch applied per shard, starting at the checkpoint's. An epoch
// whose staged-on version on some participant (or the checkpoint's, if
// later) is not that shard's last applied epoch is an orphan — recovery
// must refuse, naming it (returned as a RecoveryError value, Reason
// unset). Otherwise every record is re-executed by statement on a
// catalog loaded from ckpt, and the resulting state and last epoch are
// what recovery must reach by delta. A deliberate reimplementation of
// the recovery contract, not a call into it.
func sweepReference(t *testing.T, ckpt []byte, dir string, nshards int) ([]byte, uint64, *RecoveryError) {
	t.Helper()
	type er struct {
		stmts []string
		parts []int
		prev  []uint64
	}
	epochs := map[uint64]*er{}
	for si := 0; si < nshards; si++ {
		w, recs, _, err := openWAL(dir, si)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		for _, rec := range recs {
			if epochs[rec.Version] != nil {
				t.Fatalf("two records of e%d", rec.Version)
			}
			e := &er{stmts: rec.Stmts, parts: rec.Parts, prev: rec.Prev}
			if len(e.parts) == 0 {
				e.parts = []int{si}
			}
			epochs[rec.Version] = e
		}
	}
	var order []uint64
	for v := range epochs {
		order = append(order, v)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	ref, err := Load(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	ref.Reshard(nshards)
	base := ref.Snapshot().Version
	last := base
	at := make([]uint64, nshards) // last epoch applied per shard
	for p := range at {
		at[p] = base
	}
	for _, v := range order {
		e := epochs[v]
		if v <= base {
			continue // in the checkpoint already
		}
		for i, p := range e.parts {
			if max(e.prev[i], base) != at[p] {
				return nil, 0, &RecoveryError{Shard: p, Epoch: v}
			}
		}
		if err := shardApplier(ref, WALRecord{Version: v, Stmts: e.stmts}); err != nil {
			t.Fatalf("reference replay of e%d: %v", v, err)
		}
		for _, p := range e.parts {
			at[p] = v
		}
		last = v
	}
	return dbBytes(t, ref.Snapshot()), last, nil
}
