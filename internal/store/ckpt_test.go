package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// applyPut interprets a statement record of the form "put <name> <v>":
// insert integer v into certain relation name, creating the relation
// (schema X) when missing.
func applyPut(db *wsd.DecompDB, stmt string) (*wsd.DecompDB, error) {
	f := strings.Fields(stmt)
	if len(f) != 3 || f[0] != "put" {
		return nil, fmt.Errorf("applyPut: bad statement %q", stmt)
	}
	v, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		return nil, err
	}
	ri := db.IndexOf(f[1])
	if ri < 0 {
		db = db.WithRelation(f[1], relation.NewSchema("X"), nil)
		ri = db.IndexOf(f[1])
	}
	nr := relation.New(db.Schemas[ri])
	for _, t := range db.Certain[ri].Tuples() {
		nr.Insert(t)
	}
	nr.Insert(relation.Tuple{value.Int(v)})
	return db.WithCertain(ri, nr), nil
}

// put commits one logged "put" transaction.
func put(t *testing.T, cat *Catalog, name string, v int64) {
	t.Helper()
	err := cat.Update(func(tx *Tx) error {
		stmt := fmt.Sprintf("put %s %d", name, v)
		tx.Log(stmt)
		db, err := applyPut(tx.DB(), stmt)
		if err != nil {
			return err
		}
		tx.SetDB(db)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkpoint runs cat.Checkpoint and asserts that dir holds one
// checkpoint file: no per-shard side file at any shard count.
func checkpoint(t *testing.T, cat *Catalog, dir string) {
	t.Helper()
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if side, _ := filepath.Glob(ckptPath(dir) + ".s*"); len(side) > 0 {
		t.Fatalf("checkpoint left side files %v", side)
	}
}

// TestCheckpointNoopZeroWrites: a second Catalog.Checkpoint with no
// intervening commit performs zero page writes and leaves the base
// files untouched — the no-op skip.
func TestCheckpointNoopZeroWrites(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
		defer closeWALs(wals)
		put(t, cat, "T", 1)
		put(t, cat, "T", 2)
		checkpoint(t, cat, dir)
		before := cat.Pager().Stats()
		fi1, err := os.Stat(ckptPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		checkpoint(t, cat, dir)
		after := cat.Pager().Stats()
		if after.PagesWritten != before.PagesWritten || after.BytesWritten != before.BytesWritten {
			t.Fatalf("no-op checkpoint wrote %d pages / %d bytes",
				after.PagesWritten-before.PagesWritten, after.BytesWritten-before.BytesWritten)
		}
		if after.NoopSkips != before.NoopSkips+1 {
			t.Fatalf("noop skips %d, want %d", after.NoopSkips, before.NoopSkips+1)
		}
		fi2, err := os.Stat(ckptPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if fi2.Size() != fi1.Size() || !fi2.ModTime().Equal(fi1.ModTime()) {
			t.Fatal("no-op checkpoint modified the base file")
		}
		// The skip still refreshes durability bookkeeping.
		if v := cat.Pager().Version(); v != cat.Snapshot().Version || !after.LastCkptAt.After(before.LastCkptAt) {
			t.Fatalf("no-op checkpoint left base v%d (want v%d), last checkpoint at %v (was %v)",
				v, cat.Snapshot().Version, after.LastCkptAt, before.LastCkptAt)
		}
	})
}

// TestCheckpointIncrementalBytes: after a full checkpoint of a wide
// catalog, committing to one relation and checkpointing again writes a
// small fraction of the bytes — O(dirty components), not O(catalog).
func TestCheckpointIncrementalBytes(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
		// Wide enough that the fixed directory + meta rewrite every
		// checkpoint pays stays a small share.
		for i := 0; i < 80; i++ {
			for k := 0; k < 8; k++ {
				put(t, cat, fmt.Sprintf("T%02d", i), int64(i*100+k))
			}
		}
		checkpoint(t, cat, dir)
		full := cat.Pager().Stats().BytesWritten

		put(t, cat, "T00", 424242)
		checkpoint(t, cat, dir)
		incr := cat.Pager().Stats().BytesWritten - full
		if incr*8 >= full {
			t.Fatalf("incremental checkpoint wrote %d bytes vs %d for the full one — not O(dirty)", incr, full)
		}

		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals)
		cat2, wals2 := openDir(t, dir, n)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("reopen after incremental checkpoint differs from the committed state")
		}
	})
}

// TestRecoveryReplaysDeltas: with no checkpoint past the seed, the
// state lives only in the log — whole-relation captures, and full
// deltas where a put created a relation — and recovery patches it back
// byte-identically.
func TestRecoveryReplaysDeltas(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
		put(t, cat, "T", 1)
		put(t, cat, "U", 2)
		put(t, cat, "T", 3)
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals) // crash

		cat2, wals2 := openDir(t, dir, n)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("delta recovery differs from the pre-crash state")
		}
	})
}

// TestColdStartPoolSmallerThanCatalog: a catalog whose page file spans
// far more pages than the buffer pool still recovers byte-identically
// and keeps serving reads and commits — chains page in and out on
// demand.
func TestColdStartPoolSmallerThanCatalog(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals, err := Open(ckptPath(dir), dir, n, 256, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			for k := 0; k < 30; k++ {
				put(t, cat, fmt.Sprintf("T%02d", i), int64(i*1000+k))
			}
		}
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		put(t, cat, "T00", -1) // leave a WAL tail too
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals)

		const pool = 2
		fi, err := os.Stat(ckptPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if npages := fi.Size() / 8192; npages <= pool*3 {
			t.Fatalf("the page file spans only %d pages — not meaningfully larger than the %d-page pool", npages, pool)
		}
		cat2, wals2, err := Open(ckptPath(dir), dir, n, pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("cold start with a small pool differs from the committed state")
		}
		if st := cat2.Pager().PoolStats(); st.Evictions == 0 {
			t.Fatalf("pool smaller than the page file recorded no evictions (stats %+v)", st)
		}
		// And it keeps working as a live catalog.
		put(t, cat2, "T23", 777777)
		if err := cat2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		closeWALs(wals2)
		cat3, wals3 := openDir(t, dir, n)
		defer closeWALs(wals3)
		if !bytes.Equal(saveBytes(t, cat3.Snapshot()), saveBytes(t, cat2.Snapshot())) {
			t.Fatal("post-recovery checkpoint through a small pool differs from the live state")
		}
	})
}

// TestDurabilityStats: the durability stat reports checkpoint age, disk
// bytes and the per-shard WAL tails consistent with the catalog's actual
// state.
func TestDurabilityStats(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
		defer closeWALs(wals)

		// Shard 0's tail holds the one record of every all-shard commit,
		// as their coordinator; every put is one.
		tail := func(st DurabilityStat) int {
			if len(st.WALTailRecords) != n {
				t.Fatalf("%d-shard catalog reports %d WAL tails", n, len(st.WALTailRecords))
			}
			sum := 0
			for _, r := range st.WALTailRecords {
				sum += r
			}
			return sum
		}
		// Open seeded the fresh directory: the seed checkpoint is the base.
		if st := cat.DurabilityStats(); st.CheckpointAgeSeconds < 0 || st.DiskBytes == 0 || st.BaseVersion != cat.Snapshot().Version || tail(st) != 0 {
			t.Fatalf("freshly seeded catalog reports %+v; want the seed checkpoint at v%d and no WAL tail", st, cat.Snapshot().Version)
		}

		put(t, cat, "T", 1)
		put(t, cat, "T", 2)
		if st := cat.DurabilityStats(); tail(st) != 2 || st.WALTailRecords[0] != 2 {
			t.Fatalf("WAL tails %v after 2 commits, want 2 on shard 0", st.WALTailRecords)
		}
		if cat.DurabilityStats().BaseVersion == cat.Snapshot().Version {
			t.Fatal("base version moved without a checkpoint")
		}

		checkpoint(t, cat, dir)
		st := cat.DurabilityStats()
		if tail(st) != 0 || st.CheckpointAgeSeconds < 0 || st.DiskBytes == 0 ||
			st.BaseVersion != cat.Snapshot().Version || st.Checkpoints == 0 {
			t.Fatalf("after a checkpoint the catalog reports %+v; want no WAL tail and the base at v%d", st, cat.Snapshot().Version)
		}
	})
}
