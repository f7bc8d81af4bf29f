package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"worldsetdb/internal/page"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// pageSnap builds an n-relation snapshot with data in every certain
// relation and a component per relation, suitable for page-store
// round trips.
func pageSnap(n int, version uint64, rowsPer int) *Snapshot {
	names := make([]string, n)
	schemas := make([]relation.Schema, n)
	for i := range names {
		names[i] = relName(i)
		schemas[i] = relation.NewSchema("X")
	}
	db := wsd.NewDecompDB(names, schemas)
	for i := range db.Certain {
		r := relation.New(schemas[i])
		for k := 0; k < rowsPer; k++ {
			r.Insert(relation.Tuple{value.Int(int64(i*1000 + k))})
		}
		db.Certain[i] = r
	}
	for i := range names {
		db.Components = append(db.Components, compOf(db, uint64(i+1), names[i], int64(i), int64(i+100)))
	}
	return &Snapshot{Version: version, DB: db, Views: map[string]string{}}
}

func relName(i int) string {
	return string(rune('A'+i%26)) + string(rune('a'+i/26))
}

// reloadSnap reopens the page file at path and returns the snapshot it
// holds.
func reloadSnap(t *testing.T, path string, poolPages int) *Snapshot {
	t.Helper()
	ps, snap, err := openPageStore(path, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if snap == nil {
		t.Fatalf("%s is not a page file", path)
	}
	return snap
}

// TestPageStoreFreshWriteReload: the first checkpoint creates a page
// file that reloads byte-identically (through Save), component ID
// counter included. A first checkpoint that fails before its meta slot
// leaves nothing in the directory, and the retry writes the same file
// as a store that never failed.
func TestPageStoreFreshWriteReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.wsd")
	snap := pageSnap(8, 3, 5)
	ps, loaded, err := openPageStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != nil {
		t.Fatal("missing file reported as loadable")
	}
	ps.failBeforeMeta = func() error { return errors.New("injected crash before meta commit") }
	if err := ps.WriteCheckpoint(snap, 99); err == nil {
		t.Fatal("first checkpoint with injected crash reported success")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("failed first checkpoint left %v (err %v)", ents, err)
	}
	ps.failBeforeMeta = nil
	if err := ps.WriteCheckpoint(snap, 99); err != nil {
		t.Fatal(err)
	}
	ps.Close()
	got := reloadSnap(t, path, 64)
	if got.Version != 3 || got.compID != 99 {
		t.Fatalf("reloaded version %d, component ID counter %d; want 3 and 99", got.Version, got.compID)
	}
	want := &Snapshot{Version: 3, DB: snap.DB, Views: snap.Views, compID: 99}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
		t.Fatal("page-file reload differs from the checkpointed snapshot")
	}

	twin := filepath.Join(dir, "twin.wsd")
	tps := newPageStore(twin, 64)
	if err := tps.WriteCheckpoint(snap, 99); err != nil {
		t.Fatal(err)
	}
	tps.Close()
	a, errA := os.ReadFile(path)
	b, errB := os.ReadFile(twin)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("retried first checkpoint differs from one that never failed (%d vs %d bytes)", len(a), len(b))
	}
}

// TestPageStoreIncrementalWritesOnlyDirty: a second checkpoint that
// touched one relation out of many rewrites a small fraction of the
// pages the first one wrote.
func TestPageStoreIncrementalWritesOnlyDirty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.wsd")
	snap := pageSnap(24, 1, 40)
	ps, _, err := openPageStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if err := ps.WriteCheckpoint(snap, 24); err != nil {
		t.Fatal(err)
	}
	full := ps.Stats().PagesWritten

	nr := relation.New(snap.DB.Schemas[0])
	nr.Insert(relation.Tuple{value.Int(424242)})
	db2 := snap.DB.WithCertain(0, nr)
	snap2 := &Snapshot{Version: 2, DB: db2, Views: snap.Views}
	if err := ps.WriteCheckpoint(snap2, 24); err != nil {
		t.Fatal(err)
	}
	incr := ps.Stats().PagesWritten - full
	if incr*4 >= full {
		t.Fatalf("incremental checkpoint wrote %d pages vs %d for the full one — not O(dirty)", incr, full)
	}
	got := reloadSnap(t, path, 256)
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, snap2)) {
		t.Fatal("incremental checkpoint reload differs from the committed snapshot")
	}
}

// TestPageStoreNoopSkipZeroWrites: checkpointing an already-persisted
// version writes nothing — not one page, not one byte.
func TestPageStoreNoopSkipZeroWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.wsd")
	snap := pageSnap(4, 7, 3)
	ps, _, err := openPageStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if err := ps.WriteCheckpoint(snap, 4); err != nil {
		t.Fatal(err)
	}
	before := ps.Stats()
	fi1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.WriteCheckpoint(snap, 4); err != nil {
		t.Fatal(err)
	}
	after := ps.Stats()
	if after.PagesWritten != before.PagesWritten || after.BytesWritten != before.BytesWritten {
		t.Fatalf("no-op checkpoint wrote %d pages", after.PagesWritten-before.PagesWritten)
	}
	if after.Checkpoints != before.Checkpoints {
		t.Fatal("no-op checkpoint counted as a page-writing checkpoint")
	}
	if after.NoopSkips != before.NoopSkips+1 {
		t.Fatalf("no-op skips %d, want %d", after.NoopSkips, before.NoopSkips+1)
	}
	fi2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() != fi1.Size() || !fi2.ModTime().Equal(fi1.ModTime()) {
		t.Fatal("no-op checkpoint modified the file")
	}
}

// TestPageStoreRecyclesFreedPages: repeatedly rewriting the same
// relation reuses freed pages instead of growing the file.
func TestPageStoreRecyclesFreedPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.wsd")
	snap := pageSnap(6, 1, 30)
	ps, _, err := openPageStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if err := ps.WriteCheckpoint(snap, 6); err != nil {
		t.Fatal(err)
	}
	var sizeAt5 int64
	db := snap.DB
	for v := uint64(2); v <= 11; v++ {
		nr := relation.New(db.Schemas[0])
		for k := 0; k < 30; k++ {
			nr.Insert(relation.Tuple{value.Int(int64(v)*100 + int64(k))})
		}
		db = db.WithCertain(0, nr)
		s := &Snapshot{Version: v, DB: db, Views: snap.Views}
		if err := ps.WriteCheckpoint(s, 6); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if v == 5 {
			sizeAt5 = fi.Size()
		}
		if v > 5 && fi.Size() > sizeAt5+2*page.Size {
			t.Fatalf("file grew from %d to %d bytes across same-size rewrites — freed pages not recycled", sizeAt5, fi.Size())
		}
	}
	got := reloadSnap(t, path, 128)
	want := &Snapshot{Version: 11, DB: db, Views: snap.Views}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
		t.Fatal("reload after recycling differs from the last checkpoint")
	}
}

// TestPageStoreMetaSlotFallback: corrupting the newest meta slot makes
// the open fall back to the previous checkpoint — an in-place torn
// checkpoint never loses the older base.
func TestPageStoreMetaSlotFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.wsd")
	snap1 := pageSnap(4, 1, 3)
	ps, _, err := openPageStore(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.WriteCheckpoint(snap1, 4); err != nil {
		t.Fatal(err)
	}
	nr := relation.New(snap1.DB.Schemas[1])
	nr.Insert(relation.Tuple{value.Int(31337)})
	snap2 := &Snapshot{Version: 2, DB: snap1.DB.WithCertain(1, nr), Views: snap1.Views}
	if err := ps.WriteCheckpoint(snap2, 4); err != nil {
		t.Fatal(err)
	}
	ps.Close()

	// The fresh write used epoch 1 (slot 1); the second used epoch 2
	// (slot 0). Corrupt slot 0 — the newest — and reopen.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 64), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got := reloadSnap(t, path, 64)
	if got.Version != 1 {
		t.Fatalf("fallback loaded version %d, want 1 (the surviving slot)", got.Version)
	}
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, snap1)) {
		t.Fatal("meta-slot fallback state differs from the older checkpoint")
	}
}
