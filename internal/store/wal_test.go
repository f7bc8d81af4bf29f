package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
)

// addRelApplier interprets WAL statement records of the form "T<name>"
// by adding an empty relation of that name — a store-level stand-in for
// the I-SQL applier, so the log machinery is testable without parsing.
func addRelApplier(cat *Catalog, rec WALRecord) error {
	return cat.Update(func(tx *Tx) error {
		db := tx.DB()
		for _, stmt := range rec.Stmts {
			tx.Log(stmt)
			db = db.WithRelation(stmt, relation.NewSchema("X"), nil)
		}
		tx.SetDB(db)
		return nil
	})
}

// addRel commits one logged relation-adding transaction.
func addRel(t *testing.T, cat *Catalog, name string) {
	t.Helper()
	err := cat.Update(func(tx *Tx) error {
		tx.Log(name)
		tx.SetDB(tx.DB().WithRelation(name, relation.NewSchema("X"), nil))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func saveBytes(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStagedCommitPublishesOnce: a multi-statement staged transaction
// stays invisible until Commit, then appears as exactly one version.
func TestStagedCommitPublishesOnce(t *testing.T) {
	c := New(nil)
	base := c.Snapshot()
	txn := c.Begin()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("T%d", i)
		err := txn.Update(func(tx *Tx) error {
			tx.SetDB(tx.DB().WithRelation(name, relation.NewSchema("X"), nil))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot(); got != base {
			t.Fatalf("staged statement %d is visible before commit", i)
		}
		if txn.Snapshot().DB.IndexOf(name) < 0 {
			t.Fatalf("staging snapshot misses its own statement %d", i)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	final := c.Snapshot()
	if final.Version != base.Version+1 {
		t.Fatalf("commit published version %d, want %d (one version for the whole batch)", final.Version, base.Version+1)
	}
	if len(final.DB.Names) != 3 {
		t.Fatalf("committed catalog has %d relations, want 3", len(final.DB.Names))
	}
}

// TestStagedRollbackInvisible: rollback leaves the catalog untouched.
func TestStagedRollbackInvisible(t *testing.T) {
	c := New(nil)
	before := saveBytes(t, c.Snapshot())
	txn := c.Begin()
	if err := txn.Update(func(tx *Tx) error {
		tx.SetDB(tx.DB().WithRelation("Junk", relation.NewSchema("X"), nil))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	txn.Rollback()
	if got := saveBytes(t, c.Snapshot()); !bytes.Equal(got, before) {
		t.Fatal("rollback changed the catalog")
	}
	if err := txn.Commit(); !errors.Is(err, errTxnDone) {
		t.Fatalf("commit after rollback: %v, want errTxnDone", err)
	}
}

// TestStagedConflict: first committer wins; the loser reports
// *ConflictError and publishes nothing.
func TestStagedConflict(t *testing.T) {
	c := New(nil)
	txn := c.Begin()
	if err := txn.Update(func(tx *Tx) error {
		tx.SetDB(tx.DB().WithRelation("A", relation.NewSchema("X"), nil))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	addRel(t, c, "B") // interleaved auto-commit writer
	err := txn.Commit()
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConflictError, got %v", err)
	}
	final := c.Snapshot()
	if final.DB.IndexOf("A") >= 0 {
		t.Fatal("conflicting transaction leaked state")
	}
	if final.DB.IndexOf("B") < 0 {
		t.Fatal("winning writer lost state")
	}
}

// TestStagedReadOnlyCommit: a transaction that staged nothing commits
// without bumping the version even when the catalog moved meanwhile.
func TestStagedReadOnlyCommit(t *testing.T) {
	c := New(nil)
	txn := c.Begin()
	_ = txn.Snapshot()
	addRel(t, c, "B")
	if err := txn.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}
}

// forShardCounts runs fn against the one-shard catalog and a 4-way
// sharded one: both go through the same Open / commit / Checkpoint, so
// every WAL and checkpoint case below is one sweep, not two copies.
func forShardCounts(t *testing.T, fn func(t *testing.T, nshards int)) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { fn(t, n) })
	}
}

// ckptPath is where openDir keeps dir's checkpoint base.
func ckptPath(dir string) string { return filepath.Join(dir, "checkpoint.wsd") }

// openDir recovers the WAL-backed catalog rooted at dir (checkpoint
// base at ckptPath(dir), segments dir/wal-<i>.log) at nshards shards.
func openDir(t *testing.T, dir string, nshards int, applier Applier) (*Catalog, []*WAL) {
	t.Helper()
	cat, wals, err := Open(ckptPath(dir), dir, nshards, applier, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cat, wals
}

func closeWALs(wals []*WAL) {
	for _, w := range wals {
		w.Close()
	}
}

// replayFallbacks sums the statement-replay fallbacks of cat's recovery.
func replayFallbacks(cat *Catalog) uint64 {
	var n uint64
	for _, st := range cat.DurabilityStats() {
		n += st.ReplayFallbacks
	}
	return n
}

// TestWALRoundTrip: commits append records; reopening replays them into
// an identical catalog, byte for byte through Save — by delta alone: the
// chain is dense, so no record falls back to statement replay.
func TestWALRoundTrip(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n, addRelApplier)
		for i := 0; i < 5; i++ {
			addRel(t, cat, fmt.Sprintf("T%d", i))
		}
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals) // crash: no checkpoint was ever written

		cat2, wals2 := openDir(t, dir, n, addRelApplier)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("recovered catalog differs\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
		if cat2.Snapshot().Version != 6 {
			t.Fatalf("recovered version %d, want 6", cat2.Snapshot().Version)
		}
		if f := replayFallbacks(cat2); f != 0 {
			t.Fatalf("dense delta replay fell back to statements %d time(s)", f)
		}
	})
}

// TestWALTornTailTruncated: a half-written final record (crash
// mid-append) is detected and dropped; recovery stops at the last
// intact record and appending resumes cleanly.
func TestWALTornTailTruncated(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n, addRelApplier)
		addRel(t, cat, "T0")
		addRel(t, cat, "T1")
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals)

		// Simulate a torn append on the last segment: half a record, no
		// newline.
		f, err := os.OpenFile(SegmentPath(dir, n-1), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"v":4,"stmts":["T2"],"cr`); err != nil {
			t.Fatal(err)
		}
		f.Close()

		cat2, wals2 := openDir(t, dir, n, addRelApplier)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("torn tail changed the recovered catalog")
		}
		// The file was truncated back to the intact prefix; a new commit
		// appends a valid record after it.
		addRel(t, cat2, "T2")
		want2 := saveBytes(t, cat2.Snapshot())
		closeWALs(wals2)
		cat3, wals3 := openDir(t, dir, n, addRelApplier)
		defer closeWALs(wals3)
		if got := saveBytes(t, cat3.Snapshot()); !bytes.Equal(got, want2) {
			t.Fatal("recovery after torn-tail truncation + append differs")
		}
	})
}

// TestWALCorruptRecordStopsReplay: a flipped byte fails the CRC; the
// segment's replay stops at the last good record rather than applying
// garbage. (At 4 shards the commit is staged on every segment; losing
// shard 0's copy also loses its marker, so the epoch rolls back
// everywhere.)
func TestWALCorruptRecordStopsReplay(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n, addRelApplier)
		addRel(t, cat, "T0")
		good := saveBytes(t, cat.Snapshot())
		addRel(t, cat, "T1")
		closeWALs(wals)

		seg := SegmentPath(dir, 0)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt the second record's statement text.
		mangled := strings.Replace(string(data), `"T1"`, `"TX"`, 1)
		if mangled == string(data) {
			t.Fatal("test setup: record not found")
		}
		if err := os.WriteFile(seg, []byte(mangled), 0o644); err != nil {
			t.Fatal(err)
		}
		cat2, wals2 := openDir(t, dir, n, addRelApplier)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, good) {
			t.Fatal("replay did not stop at the corrupt record")
		}
	})
}

// TestWALCheckpointTruncates: checkpointing writes the snapshot,
// truncates every segment, and recovery uses checkpoint + tail.
func TestWALCheckpointTruncates(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n, addRelApplier)
		addRel(t, cat, "T0")
		addRel(t, cat, "T1")
		// The last segment holds exactly the two commit records (markers,
		// when there are several participants, go to shard 0).
		last := wals[n-1]
		if last.Appended() != 2 {
			t.Fatalf("appended = %d, want 2", last.Appended())
		}
		if err := cat.Checkpoint(ckptPath(dir)); err != nil {
			t.Fatal(err)
		}
		for si, w := range wals {
			if w.Appended() != 0 {
				t.Fatalf("segment %d: appended after checkpoint = %d, want 0", si, w.Appended())
			}
			if info, err := os.Stat(w.Path()); err != nil || info.Size() != 0 {
				t.Fatalf("segment %d not truncated after checkpoint: %v", si, err)
			}
		}
		addRel(t, cat, "T2") // tail after the checkpoint
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals)

		cat2, wals2 := openDir(t, dir, n, addRelApplier)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("checkpoint + tail recovery differs from pre-crash state")
		}
	})
}

// TestWALStaleRecordsSkipped: records at or below the checkpoint
// version (a crash between checkpoint save and log truncate) are
// skipped on replay instead of being applied twice.
func TestWALStaleRecordsSkipped(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n, addRelApplier)
		addRel(t, cat, "T0")
		// Checkpoint WITHOUT truncating the log: exactly the crash window.
		if err := SaveFile(ckptPath(dir), cat.Snapshot()); err != nil {
			t.Fatal(err)
		}
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals)

		cat2, wals2 := openDir(t, dir, n, addRelApplier)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("stale record was replayed on top of the checkpoint that already contains it")
		}
	})
}

// TestWALConcurrentWriters: logged commits from many goroutines recover
// to the same catalog (run under -race in CI).
func TestWALConcurrentWriters(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n, addRelApplier)
		const writers = 8
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = cat.Update(func(tx *Tx) error {
					name := fmt.Sprintf("W%d", g)
					tx.Log(name)
					tx.SetDB(tx.DB().WithRelation(name, relation.NewSchema("X"), nil))
					return nil
				})
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("writer %d: %v", g, err)
			}
		}
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals)
		cat2, wals2 := openDir(t, dir, n, addRelApplier)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("concurrent-writer recovery differs")
		}
	})
}

// failNextLogger is a real WAL segment whose next append fails.
type failNextLogger struct {
	w    *WAL
	fail atomic.Bool
}

func (f *failNextLogger) AppendBatch(recs []WALRecord) error {
	if f.fail.CompareAndSwap(true, false) {
		return errors.New("injected fsync failure")
	}
	return f.w.AppendBatch(recs)
}

// TestBurnedEpochReplaysByStatement: a commit whose fsync fails is
// aborted, but its epoch stays burned, so the segment's chain has a gap.
// Recovery must neither reject the log nor apply the later deltas
// across the gap: it re-executes the records from the gap on, says so
// in the fallback counter, and still recovers the committed state
// byte-identically.
func TestBurnedEpochReplaysByStatement(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n, shardApplier)
		names := shardNames(n)
		mkAll(t, cat, names)
		tbl := names[n-1]
		sIns(t, cat, tbl, 1)
		flaky := &failNextLogger{w: wals[n-1]}
		cat.shards[n-1].log = flaky
		flaky.fail.Store(true)
		err := cat.UpdateRouted([]string{tbl}, func(tx *Tx) error { return insInto(tx, tbl, 2) })
		if err == nil {
			t.Fatal("commit with a failed fsync reported success")
		}
		if snap := cat.Snapshot(); snap.DB.Certain[snap.DB.IndexOf(tbl)].Len() != 1 {
			t.Fatal("failed commit was published")
		}
		sIns(t, cat, tbl, 3)
		sIns(t, cat, names[0], 4)
		want := dbBytes(t, cat.Snapshot())
		wantVer := cat.Snapshot().Version
		closeWALs(wals)

		cat2, wals2 := openDir(t, dir, n, shardApplier)
		defer closeWALs(wals2)
		if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("recovery across a burned epoch differs from the committed state")
		}
		if got := cat2.Snapshot().Version; got != wantVer {
			t.Fatalf("recovered version %d, want %d", got, wantVer)
		}
		if f := replayFallbacks(cat2); f != 2 {
			t.Fatalf("%d replay fallbacks, want 2 (the two commits after the burned epoch)", f)
		}
	})
}

// legacyWALLog is a wal.log exactly as the pre-sharding single-log
// server wrote it (three "put" commits, v2..v4, captured from that
// build): no shard, no participant list, deltas as that writer diffed
// them. legacySaved is what that server's catalog serialized to through
// Save after the third commit.
const legacyWALLog = `{"v":2,"stmts":["put T 1"],"delta":{"full":true,"names":["T"],"schemas":[["X"]],"certain":{"T":[[1]]},"vch":true},"crc":3786518645}
{"v":3,"stmts":["put U 2"],"delta":{"full":true,"names":["T","U"],"schemas":[["X"],["X"]],"certain":{"T":[[1]],"U":[[2]]},"vch":true},"crc":2681434120}
{"v":4,"stmts":["put T 3"],"delta":{"certain":{"T":[[1],[3]]}},"crc":2545961443}
`

const legacySaved = `{
 "format": "worldsetdb-catalog/v1",
 "version": 4,
 "names": [
  "T",
  "U"
 ],
 "schemas": [
  [
   "X"
  ],
  [
   "X"
  ]
 ],
 "certain": [
  [
   [
    1
   ],
   [
    3
   ]
  ],
  [
   [
    2
   ]
  ]
 ]
}
`

// TestLegacyWALLogAdopted is the upgrade path: Open adopts a wal.log
// left by the single-log layout as shard 0's segment and recovers its
// commits byte-identically to what the old server held — at any shard
// count, since the merged replay orders by epoch. A record from before
// deltas existed (statements only) replays through the applier and is
// counted as a fallback. A non-empty wal.log next to a non-empty
// wal-0.log is refused rather than silently dropping one of them.
func TestLegacyWALLogAdopted(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		legacy := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(legacy, []byte(legacyWALLog), 0o644); err != nil {
			t.Fatal(err)
		}
		cat, wals := openDir(t, dir, n, putApplier)
		if got := saveBytes(t, cat.Snapshot()); string(got) != legacySaved {
			t.Fatalf("legacy wal.log did not recover byte-identically\n--- got ---\n%s\n--- want ---\n%s", got, legacySaved)
		}
		if f := replayFallbacks(cat); f != 0 {
			t.Fatalf("%d statement-replay fallbacks for a dense legacy log with deltas", f)
		}
		if _, err := os.Stat(legacy); !os.IsNotExist(err) {
			t.Fatalf("wal.log still present after adoption (err %v)", err)
		}
		if data, err := os.ReadFile(SegmentPath(dir, 0)); err != nil || string(data) != legacyWALLog {
			t.Fatalf("wal-0.log does not hold the adopted records (err %v)", err)
		}
		// New commits append behind the adopted records and both recover.
		put(t, cat, "U", 9)
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals)
		cat2, wals2 := openDir(t, dir, n, putApplier)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("adopted log + new commit does not recover byte-identically")
		}
		closeWALs(wals2)

		// A second wal.log next to the now non-empty wal-0.log is ambiguous.
		if err := os.WriteFile(legacy, []byte(legacyWALLog), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(ckptPath(dir), dir, n, putApplier, 0); err == nil {
			t.Fatal("Open accepted a non-empty wal.log next to a non-empty wal-0.log")
		}
	})

	// Statements-only records, the format before deltas: same adoption,
	// every record re-executed and counted.
	dir := t.TempDir()
	var old bytes.Buffer
	for i, stmt := range []string{"put T 1", "put U 2"} {
		rec := WALRecord{Version: uint64(i + 2), Stmts: []string{stmt}}
		fmt.Fprintf(&old, `{"v":%d,"stmts":[%q],"crc":%d}`+"\n", rec.Version, stmt, crcOfRecord(rec))
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, wals := openDir(t, dir, 1, putApplier)
	defer closeWALs(wals)
	snap := cat.Snapshot()
	if snap.Version != 3 || snap.DB.IndexOf("T") < 0 || snap.DB.IndexOf("U") < 0 {
		t.Fatalf("statements-only legacy log recovered to v%d, relations %v", snap.Version, snap.DB.Names)
	}
	if f := replayFallbacks(cat); f != 2 {
		t.Fatalf("%d fallbacks for 2 delta-less records, want 2", f)
	}
}

// TestSaveFileAtomic: SaveFile goes through a temp file + rename — the
// destination always holds either the old or the new complete document,
// and no temp files are left behind.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.wsd")
	c1 := New(nil)
	if err := SaveFile(path, c1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	c2 := FromComplete([]string{"T"}, []*relation.Relation{
		relation.FromRows(relation.NewSchema("A"), relation.Tuple{value.Int(1)})})
	if err := SaveFile(path, c2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Snapshot().DB.IndexOf("T") < 0 {
		t.Fatal("overwrite lost the new catalog")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("temp files left behind: %v", names)
	}
}
