package store

import (
	"bytes"
	"fmt"
	"os"
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

// ckptTotals sums the checkpoint I/O counters over the catalog's page
// files.
func ckptTotals(cat *Catalog) CkptStats {
	var sum CkptStats
	for _, ps := range cat.Pagers() {
		st := ps.Stats()
		sum.PagesWritten += st.PagesWritten
		sum.BytesWritten += st.BytesWritten
		sum.Checkpoints += st.Checkpoints
		sum.NoopSkips += st.NoopSkips
	}
	return sum
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
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before := ckptTotals(cat)
		fi1, err := os.Stat(ckptPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		after := ckptTotals(cat)
		if after.PagesWritten != before.PagesWritten || after.BytesWritten != before.BytesWritten {
			t.Fatalf("no-op checkpoint wrote %d pages / %d bytes",
				after.PagesWritten-before.PagesWritten, after.BytesWritten-before.BytesWritten)
		}
		if after.NoopSkips != before.NoopSkips+uint64(n) {
			t.Fatalf("noop skips %d, want %d", after.NoopSkips, before.NoopSkips+uint64(n))
		}
		fi2, err := os.Stat(ckptPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if fi2.Size() != fi1.Size() || !fi2.ModTime().Equal(fi1.ModTime()) {
			t.Fatal("no-op checkpoint modified the base file")
		}
		// The skip still refreshes durability bookkeeping.
		for si, w := range wals {
			if v, _ := w.LastCheckpoint(); v != cat.Snapshot().Version {
				t.Fatalf("no-op checkpoint recorded WAL checkpoint version %d on segment %d, want %d", v, si, cat.Snapshot().Version)
			}
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
		// Wide enough that the fixed directory + meta rewrite every shard
		// file pays per checkpoint stays a small share at four shards too.
		for i := 0; i < 80; i++ {
			for k := 0; k < 8; k++ {
				put(t, cat, fmt.Sprintf("T%02d", i), int64(i*100+k))
			}
		}
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		full := ckptTotals(cat).BytesWritten

		put(t, cat, "T00", 424242)
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		incr := ckptTotals(cat).BytesWritten - full
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

// TestColdStartPoolSmallerThanCatalog: a catalog whose page files span
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
		for si := 0; si < n; si++ {
			fi, err := os.Stat(shardCkptPath(ckptPath(dir), si))
			if err != nil {
				t.Fatal(err)
			}
			if npages := fi.Size() / 8192; npages <= pool*3 {
				t.Fatalf("shard %d's page file spans only %d pages — not meaningfully larger than the %d-page pool", si, npages, pool)
			}
		}
		cat2, wals2, err := Open(ckptPath(dir), dir, n, pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("cold start with a small pool differs from the committed state")
		}
		for si, ps := range cat2.Pagers() {
			if st := ps.PoolStats(); st.Evictions == 0 {
				t.Fatalf("shard %d: pool smaller than its page file recorded no evictions (stats %+v)", si, st)
			}
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

// TestDurabilityStats: the per-shard durability rows report checkpoint
// age, disk bytes, and WAL tail consistent with the catalog's actual
// state.
func TestDurabilityStats(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
		defer closeWALs(wals)

		st := cat.DurabilityStats()
		if len(st) != n {
			t.Fatalf("%d-shard catalog reports %d durability rows", n, len(st))
		}
		// Assert on shard 0's row: it holds the one record of every
		// all-shard commit, as their coordinator.
		row := func() DurabilityStat { return cat.DurabilityStats()[0] }
		// Open seeded the fresh directory: the seed checkpoint is the base.
		if r := row(); r.CheckpointAgeSeconds < 0 || r.DiskBytes == 0 || r.BaseVersion != cat.Snapshot().Version {
			t.Fatalf("freshly seeded catalog reports age %f, %d disk bytes, base v%d; want the seed checkpoint at v%d",
				r.CheckpointAgeSeconds, r.DiskBytes, r.BaseVersion, cat.Snapshot().Version)
		}
		if row().WALTailRecords != 0 {
			t.Fatalf("fresh WAL tail %d, want 0", row().WALTailRecords)
		}

		put(t, cat, "T", 1)
		put(t, cat, "T", 2)
		if row().WALTailRecords != 2 {
			t.Fatalf("WAL tail %d after 2 commits, want 2", row().WALTailRecords)
		}
		if row().BaseVersion == cat.Snapshot().Version {
			t.Fatal("base version moved without a checkpoint")
		}

		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, r := range cat.DurabilityStats() {
			if r.WALTailRecords != 0 {
				t.Fatalf("shard %d: WAL tail %d after checkpoint, want 0", r.Shard, r.WALTailRecords)
			}
			if r.CheckpointAgeSeconds < 0 {
				t.Fatalf("shard %d: checkpoint age still negative after a checkpoint", r.Shard)
			}
			if r.DiskBytes == 0 {
				t.Fatalf("shard %d: disk bytes 0 after a checkpoint", r.Shard)
			}
			if r.BaseVersion != cat.Snapshot().Version {
				t.Fatalf("shard %d: base version %d, want %d", r.Shard, r.BaseVersion, cat.Snapshot().Version)
			}
			if r.Checkpoints == 0 {
				t.Fatalf("shard %d: checkpoint counter not incremented", r.Shard)
			}
		}
	})
}
