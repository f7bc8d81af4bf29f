package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// TestMain installs the edit-delta audit for the whole package: every
// routed commit a test makes that logs a relation from its recorded
// insert edit is checked against the patch diffRelation computes, and
// the run fails on the first difference.
func TestMain(m *testing.M) {
	var mu sync.Mutex
	var bad error
	EditDeltaAudit = func(rel string, mismatch error) {
		mu.Lock()
		defer mu.Unlock()
		if mismatch != nil && bad == nil {
			bad = fmt.Errorf("relation %s: %w", rel, mismatch)
		}
	}
	code := m.Run()
	if bad != nil {
		fmt.Fprintf(os.Stderr, "FAIL: edit-carried WAL patch differs from the diffed one: %v\n", bad)
		code = 1
	}
	os.Exit(code)
}

// deltaDB builds a two-relation decomposition for delta tests.
func deltaDB() *wsd.DecompDB {
	db := wsd.NewDecompDB([]string{"A", "B"},
		[]relation.Schema{relation.NewSchema("X"), relation.NewSchema("X")})
	for i := range db.Certain {
		r := relation.New(db.Schemas[i])
		r.Insert(relation.Tuple{value.Int(int64(i))})
		db.Certain[i] = r
	}
	return db
}

// compOf builds a component with one single-relation alternative per
// value, contributing to name.
func compOf(db *wsd.DecompDB, id uint64, name string, vals ...int64) wsd.DBComponent {
	ri := db.IndexOf(name)
	alts := make([]wsd.DBAlternative, len(vals))
	for i, v := range vals {
		r := relation.New(db.Schemas[ri])
		r.Insert(relation.Tuple{value.Int(v)})
		alts[i] = wsd.DBAlternative{Rels: map[int]*relation.Relation{ri: r}}
	}
	return wsd.DBComponent{ID: id, Alternatives: alts}
}

// applyThroughDisk round-trips d through its JSON encoding (the WAL's
// framing) before applying — exactly what recovery sees.
func applyThroughDisk(t *testing.T, base *Snapshot, d *CommitDelta) *Snapshot {
	t.Helper()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := decodeDelta(raw)
	if err != nil {
		t.Fatal(err)
	}
	db, views, err := applyDelta(base.DB, base.Views, dd)
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{Version: base.Version + 1, DB: db, Views: views}
}

// mustDiff is diffSnapshots for snapshots whose components carry IDs.
func mustDiff(t testing.TB, base, next *Snapshot) *CommitDelta {
	t.Helper()
	d, err := diffSnapshots(base, next)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeltaRoundTrip: an incremental diff (changed certain relation,
// modified component, dropped component, new component) replays to the
// byte-identical snapshot.
func TestDeltaRoundTrip(t *testing.T) {
	db := deltaDB()
	db.Components = []wsd.DBComponent{
		compOf(db, 1, "A", 10, 11),
		compOf(db, 2, "B", 20, 21),
		compOf(db, 3, "A", 30),
	}
	base := &Snapshot{Version: 5, DB: db, Views: map[string]string{}}

	nr := relation.New(db.Schemas[0])
	nr.Insert(relation.Tuple{value.Int(0)})
	nr.Insert(relation.Tuple{value.Int(99)})
	next := db.WithCertain(0, nr)
	next.Components = []wsd.DBComponent{
		next.Components[0],               // untouched (shared alternatives)
		compOf(next, 2, "B", 20, 21, 22), // modified
		// ID 3 dropped
		compOf(next, 4, "A", 40), // created
	}
	nextSnap := &Snapshot{Version: 6, DB: next, Views: map[string]string{}}

	d := mustDiff(t, base, nextSnap)
	if len(d.NewRels)+len(d.DropRels) != 0 {
		t.Fatalf("data change logged a relation-list change: %+v", d)
	}
	if len(d.Certain) != 1 {
		t.Fatalf("delta carries %d certain relations, want 1 (only A changed)", len(d.Certain))
	}
	if len(d.Upserts) != 2 || len(d.Drops) != 1 || d.Drops[0] != 3 {
		t.Fatalf("delta upserts=%d drops=%v, want 2 upserts and drop of id 3", len(d.Upserts), d.Drops)
	}
	got := applyThroughDisk(t, base, d)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, nextSnap)) {
		t.Fatal("delta replay differs from the committed snapshot")
	}
}

// TestDeltaSchemaChangeLogsTouched: relations pair by name, so a drop
// that shifts a component-bearing relation's index logs the drop alone —
// the shifted component is carried, not re-logged — and a create logs
// the new relation with its content and component; both replay
// byte-identically.
func TestDeltaSchemaChangeLogsTouched(t *testing.T) {
	db := deltaDB()
	db.Components = []wsd.DBComponent{compOf(db, 1, "A", 10, 11), compOf(db, 2, "B", 20, 21)}
	base := &Snapshot{Version: 1, DB: db, Views: map[string]string{}}

	dropped := &Snapshot{Version: 2, DB: db.DropRelation(0).Normalize(), Views: base.Views}
	d := mustDiff(t, base, dropped)
	if len(d.DropRels) != 1 || d.DropRels[0] != "A" || len(d.NewRels)+len(d.Upserts)+len(d.Certain)+len(d.Patch) != 0 ||
		len(d.Drops) != 1 || d.Drops[0] != 1 {
		t.Fatalf("drop of A logged %+v, want drop_rels [A] and drops [1] alone", d)
	}
	if got := applyThroughDisk(t, base, d); !bytes.Equal(saveBytes(t, got), saveBytes(t, dropped)) {
		t.Fatal("drop replay differs from the committed snapshot")
	}

	c := relation.New(relation.NewSchema("Y"))
	c.Insert(relation.Tuple{value.Int(7)})
	withC := db.WithRelation("C", c.Schema(), c)
	withC.Components = append(withC.Components, compOf(withC, 3, "C", 30, 31))
	created := &Snapshot{Version: 2, DB: withC, Views: base.Views}
	d = mustDiff(t, base, created)
	if len(d.NewRels) != 1 || d.NewRels[0].Name != "C" || len(d.DropRels) != 0 || len(d.Certain) != 1 ||
		len(d.Upserts) != 1 || d.Upserts[0].ID != 3 {
		t.Fatalf("create of C logged %+v, want C, its rows and its component alone", d)
	}
	if got := applyThroughDisk(t, base, d); !bytes.Equal(saveBytes(t, got), saveBytes(t, created)) {
		t.Fatal("create replay differs from the committed snapshot")
	}
}

// TestDeltaOrderOverride: a commit that reorders components beyond the
// derived rule records an explicit order, and replay honors it.
func TestDeltaOrderOverride(t *testing.T) {
	db := deltaDB()
	db.Components = []wsd.DBComponent{
		compOf(db, 1, "A", 10),
		compOf(db, 2, "B", 20),
	}
	base := &Snapshot{Version: 1, DB: db, Views: map[string]string{}}
	next := db.WithCertain(0, db.Certain[0])
	next.Components[0], next.Components[1] = next.Components[1], next.Components[0]
	nextSnap := &Snapshot{Version: 2, DB: next, Views: map[string]string{}}

	d := mustDiff(t, base, nextSnap)
	if len(d.Order) != 2 || d.Order[0] != 2 || d.Order[1] != 1 {
		t.Fatalf("reorder recorded order %v, want [2 1]", d.Order)
	}
	got := applyThroughDisk(t, base, d)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, nextSnap)) {
		t.Fatal("order-override replay differs from the committed snapshot")
	}
}

// TestDeltaViewsChange: view-map changes ride the delta even when the
// decomposition is untouched, including clearing to empty.
func TestDeltaViewsChange(t *testing.T) {
	db := deltaDB()
	base := &Snapshot{Version: 1, DB: db, Views: map[string]string{"V": "select 1"}}
	nextSnap := &Snapshot{Version: 2, DB: db, Views: map[string]string{}}
	d := mustDiff(t, base, nextSnap)
	if !d.ViewsChanged {
		t.Fatal("view drop not recorded")
	}
	got := applyThroughDisk(t, base, d)
	if len(got.Views) != 0 {
		t.Fatalf("replayed views %v, want empty", got.Views)
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, nextSnap)) {
		t.Fatal("views-change replay differs from the committed snapshot")
	}
}

// TestDeltaShardDiffMirrorsPublish: diffShard's record replays to the
// same state the overlay publishes, for a routed commit that modifies
// its certain relation and replaces one write-set component.
func TestDeltaShardDiffMirrorsPublish(t *testing.T) {
	const nshards = 4
	names := shardNames(nshards)
	dbNames := make([]string, nshards)
	schemas := make([]relation.Schema, nshards)
	for i := range dbNames {
		dbNames[i] = names[i]
		schemas[i] = relation.NewSchema("X")
	}
	db := wsd.NewDecompDB(dbNames, schemas)
	db.Components = []wsd.DBComponent{
		compOf(db, 1, names[1], 10, 11),
		compOf(db, 2, names[2], 20, 21),
	}

	nr := relation.New(db.Schemas[1])
	nr.Insert(relation.Tuple{value.Int(7)})
	next := db.WithCertain(1, nr)
	next.Components[0] = compOf(next, 1, names[1], 10) // shrink component 1
	rels, wset := closure(db, []string{names[1]})

	d := diffShard(db, next, rels, wset, nil)
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := decodeDelta(raw)
	if err != nil {
		t.Fatal(err)
	}
	replayed, _, err := applyDelta(db, map[string]string{}, dd)
	if err != nil {
		t.Fatal(err)
	}
	published := overlay(db, next, rels, wset)
	a := saveBytes(t, &Snapshot{Version: 1, DB: replayed, Views: map[string]string{}})
	b := saveBytes(t, &Snapshot{Version: 1, DB: published, Views: map[string]string{}})
	if !bytes.Equal(a, b) {
		t.Fatal("shard delta replay differs from the overlay publication")
	}
}

// TestDeltaPatchSmallEdit: a single-row insert into a large relation
// logs a one-tuple patch, never the whole post-commit contents, and
// the patch replays byte-identically. This is what keeps delta records
// O(edit) on insert-heavy workloads — whole-relation capture would
// make both the commit path and recovery O(relation) per record.
func TestDeltaPatchSmallEdit(t *testing.T) {
	db := deltaDB()
	big := relation.New(db.Schemas[0])
	for i := int64(0); i < 100; i++ {
		big.Insert(relation.Tuple{value.Int(i)})
	}
	db.Certain[0] = big
	base := &Snapshot{Version: 1, DB: db, Views: map[string]string{}}

	nr := big.Clone()
	nr.Insert(relation.Tuple{value.Int(999)})
	next := db.WithCertain(0, nr)
	nextSnap := &Snapshot{Version: 2, DB: next, Views: map[string]string{}}

	d := mustDiff(t, base, nextSnap)
	if len(d.Certain) != 0 {
		t.Fatalf("small edit captured %d whole relations, want a patch", len(d.Certain))
	}
	p := d.Patch["A"]
	if p == nil || len(p.Ins) != 1 || len(p.Del) != 0 {
		t.Fatalf("patch = %+v, want exactly one inserted tuple", p)
	}
	got := applyThroughDisk(t, base, d)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, nextSnap)) {
		t.Fatal("patch replay differs from the committed snapshot")
	}

	// Mixed edit: replace one tuple (delete + insert) — still a patch.
	nr2 := nr.Clone()
	nr2.Delete(relation.Tuple{value.Int(7)})
	nr2.Insert(relation.Tuple{value.Int(-7)})
	next2 := next.WithCertain(0, nr2)
	next2Snap := &Snapshot{Version: 3, DB: next2, Views: map[string]string{}}
	d2 := mustDiff(t, nextSnap, next2Snap)
	p2 := d2.Patch["A"]
	if p2 == nil || len(p2.Ins) != 1 || len(p2.Del) != 1 {
		t.Fatalf("patch = %+v, want one insert and one delete", p2)
	}
	got2 := applyThroughDisk(t, nextSnap, d2)
	if !bytes.Equal(saveBytes(t, got2), saveBytes(t, next2Snap)) {
		t.Fatal("delete+insert patch replay differs from the committed snapshot")
	}

	// Rewriting most of the relation is not patch-worthy: the capture
	// costs the same and skips the probes.
	bulk := relation.New(db.Schemas[0])
	for i := int64(500); i < 600; i++ {
		bulk.Insert(relation.Tuple{value.Int(i)})
	}
	next3 := next2.WithCertain(0, bulk)
	d3 := mustDiff(t, next2Snap, &Snapshot{Version: 4, DB: next3, Views: map[string]string{}})
	if len(d3.Patch) != 0 || len(d3.Certain) != 1 {
		t.Fatalf("bulk rewrite produced patch=%v certain=%d, want whole-relation capture", d3.Patch, len(d3.Certain))
	}
}

// TestDeltaPatchFromEdit: a routed commit whose relation carries an
// exact insert edit logs the patch diffing would have computed, without
// diffing — one tuple into a large relation is a one-tuple patch, a bulk
// load into a small one is a capture — and an edit survives a later
// SetDB only for the relations it leaves alone: the others fall back to
// the diff.
func TestDeltaPatchFromEdit(t *testing.T) {
	db := deltaDB()
	big := relation.New(db.Schemas[0])
	for i := int64(0); i < 100; i++ {
		big.Insert(relation.Tuple{value.Int(i)})
	}
	db.Certain[0] = big
	base := &Snapshot{Version: 1, DB: db, Views: map[string]string{}}
	rels, wset := closure(db, []string{"A", "B"})
	encoded := func(d *CommitDelta) string {
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	for _, tc := range []struct {
		name string
		ri   int
		ts   []int64
	}{{"one row", 0, []int64{999}}, {"bulk", 1, []int64{5, 6, 7, 8, 9}}} {
		tx := &Tx{base: base}
		var ts []relation.Tuple
		for _, v := range tc.ts {
			ts = append(ts, relation.Tuple{value.Int(v)})
		}
		if got := tx.InsertCertain(tc.ri, ts); len(got) != len(ts) {
			t.Fatalf("%s: relation gained %d tuples, want %d", tc.name, len(got), len(ts))
		}
		if len(tx.ins[tc.ri]) != len(ts) {
			t.Fatalf("%s: edit records %v", tc.name, tx.ins)
		}
		fromEdit := diffShard(db, tx.DB(), rels, wset, tx.ins)
		if patched := len(fromEdit.Patch) == 1; patched != (tc.name == "one row") || len(fromEdit.Patch)+len(fromEdit.Certain) != 1 {
			t.Fatalf("%s: delta patches %v and captures %d relations", tc.name, fromEdit.Patch, len(fromEdit.Certain))
		}
		if g, w := encoded(fromEdit), encoded(diffShard(db, tx.DB(), rels, wset, nil)); g != w {
			t.Fatalf("%s: edit-carried delta %s, diffed %s", tc.name, g, w)
		}
		got := applyThroughDisk(t, base, fromEdit)
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, &Snapshot{Version: 2, DB: tx.DB(), Views: base.Views})) {
			t.Fatalf("%s: edit-carried delta replays to a different state", tc.name)
		}
	}

	tx := &Tx{base: base}
	tx.InsertCertain(0, []relation.Tuple{{value.Int(999)}})
	tx.InsertCertain(1, []relation.Tuple{{value.Int(5)}})
	shrunk := relation.New(db.Schemas[1])
	tx.SetDB(tx.DB().WithCertain(1, shrunk))
	if _, ok := tx.ins[1]; ok || len(tx.ins[0]) != 1 {
		t.Fatalf("after rewriting B the edits are %v, want A's alone", tx.ins)
	}
}

// TestDeltaPatchMismatchErrors: a patch applied against a base it was
// not diffed from errors out (recovery then refuses) instead of
// silently diverging.
func TestDeltaPatchMismatchErrors(t *testing.T) {
	db := deltaDB()
	schema := db.Schemas[0]
	big := relation.New(schema)
	for i := int64(0); i < 20; i++ {
		big.Insert(relation.Tuple{value.Int(i)})
	}
	if _, err := applyPatch(big, schema, &relPatch{Del: []jsonTuple{{json.Number("99")}}}); err == nil {
		t.Fatal("deleting a missing tuple did not error")
	}
	if _, err := applyPatch(big, schema, &relPatch{Ins: []jsonTuple{{json.Number("5")}}}); err == nil {
		t.Fatal("inserting a present tuple did not error")
	}
}

// TestReplayPatchCostIndependentOfTableSize: replaying one-row insert
// records costs the rows they add. Each record's applyPatch derives the
// next replay state by Clone + Insert, and Clone shares the rows, so a
// 16k-row relation replays like a 1k-row one.
func TestReplayPatchCostIndependentOfTableSize(t *testing.T) {
	const records = 64
	schema := relation.NewSchema("K", "V")
	replay := func(rows int) float64 {
		base := relation.NewSized(schema, rows)
		for i := 0; i < rows; i++ {
			base.Insert(relation.Tuple{value.Int(int64(i)), value.Int(int64(i % 7))})
		}
		patches := make([]*relPatch, records)
		for i := range patches {
			patches[i] = &relPatch{Ins: []jsonTuple{{json.Number(fmt.Sprint(rows + i)), json.Number("1")}}}
		}
		return testing.AllocsPerRun(5, func() {
			rel := base
			for _, p := range patches {
				var err error
				if rel, err = applyPatch(rel, schema, p); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	small, large := replay(1000), replay(16000)
	t.Logf("allocations replaying %d one-row insert records: %.0f onto 1k rows, %.0f onto 16k rows", records, small, large)
	if large > 1.2*small {
		t.Errorf("replaying %d one-row inserts allocates %.0f onto 16k rows, %.0f onto 1k: each record copies the relation", records, large, small)
	}
}

// TestDeltaEmptyOnNoChange: diffing a snapshot against itself yields an
// empty delta.
func TestDeltaEmptyOnNoChange(t *testing.T) {
	db := deltaDB()
	db.Components = []wsd.DBComponent{compOf(db, 1, "A", 10)}
	snap := &Snapshot{Version: 1, DB: db, Views: map[string]string{}}
	if d := mustDiff(t, snap, snap); !d.isEmpty() {
		t.Fatalf("self-diff is not empty: %+v", d)
	}
}
