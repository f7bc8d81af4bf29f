package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"worldsetdb/internal/page"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
)

// addRelApplier interprets WAL statement records of the form "T<name>"
// by adding an empty relation of that name — the statement-level oracle
// the torn-batch sweep compares delta recovery against.
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

// openDir creates or recovers the WAL-backed catalog rooted at dir
// (checkpoint base at ckptPath(dir), segments dir/wal-<i>.log) at
// nshards shards; a fresh directory is seeded empty.
func openDir(t *testing.T, dir string, nshards int) (*Catalog, []*WAL) {
	t.Helper()
	cat, wals, err := Open(ckptPath(dir), dir, nshards, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cat, wals
}

// openRefused opens dir expecting a *RecoveryError, and returns it.
func openRefused(t *testing.T, dir string, nshards int) *RecoveryError {
	t.Helper()
	cat, wals, err := Open(ckptPath(dir), dir, nshards, 0, nil)
	var re *RecoveryError
	if !errors.As(err, &re) {
		if err == nil {
			closeWALs(wals)
			t.Fatalf("Open recovered v%d, want a *RecoveryError", cat.Snapshot().Version)
		}
		t.Fatalf("Open failed with %v, want a *RecoveryError", err)
	}
	return re
}

func closeWALs(wals []*WAL) {
	for _, w := range wals {
		w.Close()
	}
}

// TestWALRoundTrip: commits append records; reopening replays them into
// an identical catalog, byte for byte through Save.
func TestWALRoundTrip(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
		for i := 0; i < 5; i++ {
			addRel(t, cat, fmt.Sprintf("T%d", i))
		}
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals) // crash: no checkpoint was ever written

		cat2, wals2 := openDir(t, dir, n)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("recovered catalog differs\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
		if cat2.Snapshot().Version != 6 {
			t.Fatalf("recovered version %d, want 6", cat2.Snapshot().Version)
		}
	})
}

// TestWALTornTailTruncated: a half-written final record (crash
// mid-append) is detected and dropped; recovery stops at the last
// intact record and appending resumes cleanly.
func TestWALTornTailTruncated(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
		addRel(t, cat, "T0")
		addRel(t, cat, "T1")
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals)

		// Simulate a torn append on the last segment: half a record, no
		// newline.
		f, err := os.OpenFile(segmentPath(dir, n-1), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"v":4,"stmts":["T2"],"cr`); err != nil {
			t.Fatal(err)
		}
		f.Close()

		cat2, wals2 := openDir(t, dir, n)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("torn tail changed the recovered catalog")
		}
		// The file was truncated back to the intact prefix; a new commit
		// appends a valid record after it.
		addRel(t, cat2, "T2")
		want2 := saveBytes(t, cat2.Snapshot())
		closeWALs(wals2)
		cat3, wals3 := openDir(t, dir, n)
		defer closeWALs(wals3)
		if got := saveBytes(t, cat3.Snapshot()); !bytes.Equal(got, want2) {
			t.Fatal("recovery after torn-tail truncation + append differs")
		}
	})
}

// TestWALCorruptRecordStopsReplay: a flipped byte fails the CRC; the
// segment's replay stops at the last good record rather than applying
// garbage. (At 4 shards each all-shard commit is one record on shard
// 0's segment, the coordinator's.)
func TestWALCorruptRecordStopsReplay(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
		addRel(t, cat, "T0")
		good := saveBytes(t, cat.Snapshot())
		addRel(t, cat, "T1")
		closeWALs(wals)

		seg := segmentPath(dir, 0)
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
		cat2, wals2 := openDir(t, dir, n)
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
		cat, wals := openDir(t, dir, n)
		addRel(t, cat, "T0")
		addRel(t, cat, "T1")
		// Shard 0's segment holds exactly the two commit records: it is
		// the coordinator of every all-shard commit.
		if wals[0].Appended() != 2 {
			t.Fatalf("appended = %d, want 2", wals[0].Appended())
		}
		if err := cat.Checkpoint(); err != nil {
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

		cat2, wals2 := openDir(t, dir, n)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("checkpoint + tail recovery differs from pre-crash state")
		}
	})
}

// TestWALStaleRecordsSkipped: records at or below the checkpoint
// version (a crash between the checkpoint commit and the log truncate)
// are skipped on replay instead of being applied twice.
func TestWALStaleRecordsSkipped(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
		names := shardNames(n)
		mkAll(t, cat, names)
		for _, name := range names {
			sIns(t, cat, name, 1) // a record on every segment
		}
		// Checkpoint, then put the pre-checkpoint segments back: exactly
		// what a crash after the page file committed but before the
		// truncates leaves.
		logs := make([][]byte, n)
		for si := range logs {
			var err error
			if logs[si], err = os.ReadFile(segmentPath(dir, si)); err != nil {
				t.Fatal(err)
			}
		}
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals)
		for si, data := range logs {
			if len(data) == 0 {
				t.Fatalf("test setup: segment %d held no record before the checkpoint", si)
			}
			if err := os.WriteFile(segmentPath(dir, si), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		cat2, wals2 := openDir(t, dir, n)
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
		cat, wals := openDir(t, dir, n)
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
		cat2, wals2 := openDir(t, dir, n)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("concurrent-writer recovery differs")
		}
	})
}

// failNextLogger is a real WAL segment whose next append fails once
// fail is set.
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

// TestBurnedEpochReplaysByDelta: a commit whose fsync fails is aborted,
// but its epoch stays burned, so the global epoch chain has a gap. The
// commits after it were staged on the shard state without it, so they
// link on their shard and recovery replays them by delta to the
// committed state, byte-identically.
func TestBurnedEpochReplaysByDelta(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
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

		cat2, wals2 := openDir(t, dir, n)
		defer closeWALs(wals2)
		if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("recovery across a burned epoch differs from the committed state")
		}
		if got := cat2.Snapshot().Version; got != wantVer {
			t.Fatalf("recovered version %d, want %d", got, wantVer)
		}
	})
}

// TestRolledBackCrossShardEpochLinks: a cross-shard commit whose one
// append fails rolls back, burning its epoch. Later commits on the
// participants were staged on the state without it: they link past the
// hole and replay by delta, and the rolled-back transaction stays
// invisible on every shard.
func TestRolledBackCrossShardEpochLinks(t *testing.T) {
	dir := t.TempDir()
	cat, wals := openDir(t, dir, 4)
	names := shardNames(4)
	mkAll(t, cat, names)
	// The coordinator (shard 1) fails the transaction's record.
	flaky := &failNextLogger{w: wals[1]}
	cat.shards[1].log = flaky
	flaky.fail.Store(true)
	txn := cat.Begin()
	for i, v := range []int{777, 888} {
		tbl := names[1+i]
		if err := txn.UpdateRouted([]string{tbl}, func(tx *Tx) error { return insInto(tx, tbl, v) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("cross-shard commit with a failed append reported success")
	}
	sIns(t, cat, names[1], 5)
	sIns(t, cat, names[2], 6)
	want := dbBytes(t, cat.Snapshot())
	wantVer := cat.Snapshot().Version
	closeWALs(wals)

	cat2, wals2 := openDir(t, dir, 4)
	defer closeWALs(wals2)
	if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("recovery past a rolled-back cross-shard epoch differs from the committed state\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if got := cat2.Snapshot().Version; got != wantVer {
		t.Fatalf("recovered version %d, want %d", got, wantVer)
	}
}

// TestEpochNotReusedAfterRollback: a crash tears the record of a
// cross-shard commit, the highest epoch in the log, so recovery rolls
// the transaction back on both participants. The commit acknowledged
// after that recovery must survive the next one, whatever epoch it was
// numbered with.
func TestEpochNotReusedAfterRollback(t *testing.T) {
	dir := t.TempDir()
	cat, wals := openDir(t, dir, 4)
	names := shardNames(4)
	mkAll(t, cat, names)
	txn := cat.Begin()
	for i, v := range []int{777, 888} {
		tbl := names[1+i]
		if err := txn.UpdateRouted([]string{tbl}, func(tx *Tx) error { return insInto(tx, tbl, v) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	rolledBack := cat.Snapshot().Version
	closeWALs(wals)
	tearLastLine(t, segmentPath(dir, 1)) // the transaction's record, on its coordinator

	cat2, wals2 := openDir(t, dir, 4)
	if got := cat2.Snapshot().Version; got != rolledBack-1 {
		t.Fatalf("recovered version %d, want %d (the transaction rolled back)", got, rolledBack-1)
	}
	for _, tbl := range names[1:3] {
		sIns(t, cat2, tbl, 1) // acknowledged, on each former participant
	}
	want := dbBytes(t, cat2.Snapshot())
	closeWALs(wals2)

	cat3, wals3 := openDir(t, dir, 4)
	defer closeWALs(wals3)
	if got := dbBytes(t, cat3.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("acknowledged commit lost behind a rolled-back epoch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// tearLastLine cuts a segment file in the middle of its last record,
// as a crash mid-append leaves it.
func tearLastLine(t *testing.T, seg string) {
	t.Helper()
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.LastIndexByte(bytes.TrimSuffix(data, []byte("\n")), '\n') + 1
	if start >= len(data) {
		t.Fatalf("segment %s has no line to tear", seg)
	}
	if err := os.WriteFile(seg, data[:(start+len(data))/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestartTwiceWithoutCheckpoint: after a recovery every shard
// continues from the version recovery reached on it, so records logged
// after the restart link behind the replayed tail on the next recovery
// — with no checkpoint anywhere in between, and with shards at
// different versions.
func TestRestartTwiceWithoutCheckpoint(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		names := shardNames(n)
		cat, wals := openDir(t, dir, n)
		mkAll(t, cat, names)
		sIns(t, cat, names[n-1], 1)
		for round := 2; round <= 3; round++ {
			closeWALs(wals) // crash
			cat, wals = openDir(t, dir, n)
			sIns(t, cat, names[0], round)      // a shard the tail may not have touched
			sIns(t, cat, names[n-1], 10*round) // a shard it did
		}
		want := dbBytes(t, cat.Snapshot())
		wantVer := cat.Snapshot().Version
		closeWALs(wals)
		cat2, wals2 := openDir(t, dir, n)
		defer closeWALs(wals2)
		if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("third recovery over an un-checkpointed log differs from the committed state")
		}
		if got := cat2.Snapshot().Version; got != wantVer {
			t.Fatalf("recovered version %d, want %d", got, wantVer)
		}
	})
}

// TestFirstRecordAfterCheckpointLinks: a checkpoint stamps the base
// with the global version while shards sit at older ones. The first
// record a lagging shard logs afterwards names a predecessor below the
// base version — it is in the base, so the record links.
func TestFirstRecordAfterCheckpointLinks(t *testing.T) {
	dir := t.TempDir()
	names := shardNames(4)
	cat, wals := openDir(t, dir, 4)
	mkAll(t, cat, names)
	sIns(t, cat, names[1], 1) // shard 1 stays here
	sIns(t, cat, names[3], 2)
	sIns(t, cat, names[3], 3) // the global version moves on
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sIns(t, cat, names[1], 4)
	sIns(t, cat, names[1], 5)
	want := dbBytes(t, cat.Snapshot())
	closeWALs(wals)
	cat2, wals2 := openDir(t, dir, 4)
	defer closeWALs(wals2)
	if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("tail behind a checkpoint newer than its shard's version did not recover")
	}
}

// TestOrphanedRecordRefused: a record whose predecessor on its shard is
// missing from the log is refused with a *RecoveryError naming shard
// and epoch — never applied across the hole — and the directory is
// left as found.
func TestOrphanedRecordRefused(t *testing.T) {
	dir := t.TempDir()
	cat, wals := openDir(t, dir, 1)
	names := shardNames(1)
	mkAll(t, cat, names)
	sIns(t, cat, names[0], 1)
	sIns(t, cat, names[0], 2)
	last := cat.Snapshot().Version
	closeWALs(wals)
	seg := segmentPath(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	holed := append(append([]byte{}, lines[0]...), lines[2]...) // drop the middle record
	if err := os.WriteFile(seg, holed, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openRefused(t, dir, 1)
	if re.Shard != 0 || re.Epoch != last {
		t.Fatalf("refusal names shard %d epoch e%d, want shard 0 epoch e%d: %v", re.Shard, re.Epoch, last, re)
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, holed) {
		t.Fatalf("refused recovery modified the segment (err %v)", err)
	}
}

// TestUndecodableDeltaRefused: a record whose CRC holds was written
// whole, so a delta in it that does not decode is not a torn tail. Open
// must refuse, naming segment and epoch, and must not truncate the
// record — or the acknowledged record behind it — away.
func TestUndecodableDeltaRefused(t *testing.T) {
	dir := t.TempDir()
	cat, wals := openDir(t, dir, 1)
	addRel(t, cat, "T0")
	err := wals[0].AppendBatch([]WALRecord{
		{Version: 3, Stmts: []string{"T1"}, Prev: []uint64{2}, deltaRaw: []byte(`{"full":"yes"}`)},
		{Version: 4, Stmts: []string{"T2"}, Prev: []uint64{3}, Delta: &CommitDelta{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	closeWALs(wals)
	seg := segmentPath(dir, 0)
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if re := openRefused(t, dir, 1); re.Shard != 0 || re.Epoch != 3 {
		t.Fatalf("refusal names shard %d epoch e%d, want shard 0 epoch e3: %v", re.Shard, re.Epoch, re)
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused recovery truncated the segment (err %v)", err)
	}
}

// legacyWALLog is a wal.log exactly as the pre-sharding single-log
// server wrote it (three "put" commits, v2..v4, captured from that
// build): no format number, no shard, no participant list, no links.
const legacyWALLog = `{"v":2,"stmts":["put T 1"],"delta":{"full":true,"names":["T"],"schemas":[["X"]],"certain":{"T":[[1]]},"vch":true},"crc":3786518645}
{"v":3,"stmts":["put U 2"],"delta":{"full":true,"names":["T","U"],"schemas":[["X"],["X"]],"certain":{"T":[[1]],"U":[[2]]},"vch":true},"crc":2681434120}
{"v":4,"stmts":["put T 3"],"delta":{"certain":{"T":[[1],[3]]}},"crc":2545961443}
`

// twoPhaseSegments are the segments of a 4-shard directory as the
// build before one-record commits wrote them (captured from that
// build): an all-shard DDL staged on every segment with its marker on
// shard 0, a routed insert on shard 1, and a transaction over shards 1
// and 2 staged on both with its marker on shard 1.
var twoPhaseSegments = [4]string{
	`{"v":2,"stmts":["mk T1_0","mk T2_2"],"parts":[0,1,2,3],"prev":[1,1,1,1],"delta":{"full":true,"names":["T1_0","T2_2"],"schemas":[["X"],["X"]],"vch":true},"crc":1753586064}
{"v":2,"stmts":null,"parts":[0,1,2,3],"m":true,"crc":3201636878}
`,
	`{"v":2,"stmts":["mk T1_0","mk T2_2"],"shard":1,"parts":[0,1,2,3],"prev":[1,1,1,1],"delta":{"full":true,"names":["T1_0","T2_2"],"schemas":[["X"],["X"]],"vch":true},"crc":1753586064}
{"v":3,"stmts":["ins T1_0 1"],"shard":1,"prev":[2],"delta":{"certain":{"T1_0":[[1]]}},"crc":3044009267}
{"v":4,"stmts":["ins T1_0 7","ins T2_2 8"],"shard":1,"parts":[1,2],"prev":[3,2],"delta":{"certain":{"T1_0":[[1],[7]],"T2_2":[[8]]}},"crc":2020799323}
{"v":4,"stmts":null,"shard":1,"parts":[1,2],"m":true,"crc":4018637903}
`,
	`{"v":2,"stmts":["mk T1_0","mk T2_2"],"shard":2,"parts":[0,1,2,3],"prev":[1,1,1,1],"delta":{"full":true,"names":["T1_0","T2_2"],"schemas":[["X"],["X"]],"vch":true},"crc":1753586064}
{"v":4,"stmts":["ins T1_0 7","ins T2_2 8"],"shard":2,"parts":[1,2],"prev":[3,2],"delta":{"certain":{"T1_0":[[1],[7]],"T2_2":[[8]]}},"crc":2020799323}
`,
	`{"v":2,"stmts":["mk T1_0","mk T2_2"],"shard":3,"parts":[0,1,2,3],"prev":[1,1,1,1],"delta":{"full":true,"names":["T1_0","T2_2"],"schemas":[["X"],["X"]],"vch":true},"crc":1753586064}
`,
}

// format2Segment is a wal-0.log as the build before format 3 wrote it
// (captured from that build): a create table logged as a "full" delta of
// the whole catalog, then a routed insert. Under format 3's reader the
// full record would decode as a wrong patch, so the format is refused.
const format2Segment = `{"f":2,"v":2,"stmts":["mk T"],"prev":[1],"delta":{"full":true,"names":["T"],"schemas":[["X"]],"vch":true},"crc":3288191478}
{"f":2,"v":3,"stmts":["ins T 1"],"prev":[2],"delta":{"certain":{"T":[[1]]}},"crc":3040713853}
`

// dirFiles reads every file of dir, by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// refusedAsFound opens dir at nshards expecting a *RecoveryError at
// shard and epoch, with every file of dir left byte for byte as it was,
// and returns the refusal.
func refusedAsFound(t *testing.T, dir string, nshards, shard int, epoch uint64) *RecoveryError {
	t.Helper()
	before := dirFiles(t, dir)
	re := openRefused(t, dir, nshards)
	if re.Shard != shard || re.Epoch != epoch {
		t.Fatalf("refusal names shard %d epoch e%d, want shard %d epoch e%d: %v", re.Shard, re.Epoch, shard, epoch, re)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused Open changed the directory\n--- before ---\n%v\n--- after ---\n%v", before, after)
	}
	return re
}

// TestOldLogsRefused: a log an older build wrote is refused with the
// shard and epoch named, never replayed and never cut as a torn tail:
// the single wal.log of the builds before per-shard segments, records
// without per-shard links (here with a hole), records without deltas,
// a directory of stage and marker records, and a CRC-valid format-2
// segment whose schema change is a whole-catalog delta. Recovering it is the
// writing build's job; a clean shutdown there leaves empty segments,
// which open.
func TestOldLogsRefused(t *testing.T) {
	lines := strings.SplitAfter(legacyWALLog, "\n")
	// Statements-only records, the format before deltas, as it summed them.
	stmtsOnly := `{"v":2,"stmts":["put T 1"],"crc":2956984107}
{"v":3,"stmts":["put U 2"],"crc":3011980914}
`
	for name, tc := range map[string]struct {
		files   map[string]string
		nshards int
	}{
		"wal.log":                  {map[string]string{"wal.log": legacyWALLog}, 1},
		"gap in a link-less log":   {map[string]string{"wal-0.log": lines[0] + lines[2]}, 1},
		"statements only":          {map[string]string{"wal-0.log": stmtsOnly}, 1},
		"stage and marker records": {map[string]string{"wal-0.log": twoPhaseSegments[0], "wal-1.log": twoPhaseSegments[1], "wal-2.log": twoPhaseSegments[2], "wal-3.log": twoPhaseSegments[3]}, 4},
		"format 2 full delta":      {map[string]string{"wal-0.log": format2Segment}, 1},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for file, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, file), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			refusedAsFound(t, dir, tc.nshards, 0, 2)
		})
	}
}

// TestLowerShardCountRefused: segments are recovered at the shard count
// that wrote them. A crashed 4-shard directory reopened at 2 shards
// would never read wal-2.log and wal-3.log, so Open refuses, naming the
// first non-empty one, and leaves every file as found; at 4 shards the
// commit logged there is back. The checkpoint carries no shard layout:
// once checkpointed, the directory reopens byte-identical at a lower
// and at a higher count.
func TestLowerShardCountRefused(t *testing.T) {
	dir := t.TempDir()
	names := shardNames(4)
	cat, wals := openDir(t, dir, 4)
	mkAll(t, cat, names)
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sIns(t, cat, names[3], 42)
	want := dbBytes(t, cat.Snapshot())
	closeWALs(wals) // crash
	refusedAsFound(t, dir, 2, 3, cat.Snapshot().Version)

	cat2, wals2 := openDir(t, dir, 4)
	if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("the commit on shard 3 did not recover at 4 shards")
	}
	if err := cat2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeWALs(wals2)
	for _, n := range []int{1, 8} {
		cat3, wals3 := openDir(t, dir, n)
		got := dbBytes(t, cat3.Snapshot())
		closeWALs(wals3)
		if !bytes.Equal(got, want) {
			t.Fatalf("a checkpointed 4-shard directory reopened at %d shards differs", n)
		}
	}
}

// v2PageFile is a checkpoint file as builds before one-file checkpoints
// wrote it — a meta slot of format worldsetdb-pages/v2 naming the file's
// shard, and a directory chain — at catalog version 7.
func v2PageFile(t *testing.T, shard int) []byte {
	t.Helper()
	file := make([]byte, 3*page.Size)
	meta := fmt.Sprintf(`{"magic":"worldsetdb-pages/v2","epoch":1,"version":7,"dir":2,"pages":3,"comp_id":0,"shard":%d,"coord":%t}`, shard, shard == 0)
	if err := page.Encode(file[page.Size:2*page.Size], page.KindMeta, 0, []byte(meta)); err != nil {
		t.Fatal(err)
	}
	if err := page.Encode(file[2*page.Size:], page.KindDir, 0, []byte(`{"names":[],"schemas":[],"views":{}}`)); err != nil {
		t.Fatal(err)
	}
	return file
}

// TestOlderPageFormatRefused: a checkpoint of the format before one-file
// checkpoints may keep objects in side files (checkpoint.wsd.s<i>) this
// build never reads, so Open refuses it — at one shard and at four with
// side files — naming the format and the way out, and leaves every file
// as found.
func TestOlderPageFormatRefused(t *testing.T) {
	for _, nshards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) {
			dir := t.TempDir()
			files := map[string][]byte{"checkpoint.wsd": v2PageFile(t, 0)}
			for si := 0; si < nshards; si++ {
				files[segmentName(si)] = nil // what a clean shutdown leaves
				if si > 0 {
					files[fmt.Sprintf("checkpoint.wsd.s%d", si)] = v2PageFile(t, si)
				}
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			re := refusedAsFound(t, dir, nshards, 0, 7)
			for _, want := range []string{"worldsetdb-pages/v2", "-save", "-load"} {
				if !strings.Contains(re.Reason, want) {
					t.Errorf("refusal %q does not name %q", re.Reason, want)
				}
			}
		})
	}
}

// TestOpenRefusesNonPageCheckpoint: recovery reads page files only. A
// .wsd JSON export (what checkpoints were before the page format) or
// junk at the checkpoint path is refused with the way out — import it
// with -load — and left untouched.
func TestOpenRefusesNonPageCheckpoint(t *testing.T) {
	for name, content := range map[string][]byte{
		"v1 JSON": saveBytes(t, FromComplete([]string{"T"}, []*relation.Relation{
			relation.FromRows(relation.NewSchema("A"), relation.Tuple{value.Int(1)})}).Snapshot()),
		"junk": bytes.Repeat([]byte{0xAB}, 3*8192),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(ckptPath(dir), content, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := Open(ckptPath(dir), dir, 1, 0, nil)
			if err == nil || !strings.Contains(err.Error(), "-load") {
				t.Fatalf("Open over a non-page checkpoint: %v, want a refusal pointing at -load", err)
			}
			if after, rerr := os.ReadFile(ckptPath(dir)); rerr != nil || !bytes.Equal(after, content) {
				t.Fatalf("refused Open modified the file (err %v)", rerr)
			}
		})
	}
}

// TestOpenSeedsFreshDirectory: a directory without state is seeded and
// the seed is durable before Open returns; a directory with state wins
// over the seed, which is never built. What a crash during the seed
// checkpoint leaves behind — empty segments, a stray temp file, no
// checkpoint file — still counts as fresh: the next Open seeds again
// and nothing of the torn attempt survives.
func TestOpenSeedsFreshDirectory(t *testing.T) {
	seedWith := func(v int64) func() (*Catalog, error) {
		return func() (*Catalog, error) {
			names := shardNames(4)
			rels := make([]*relation.Relation, len(names))
			for i := range rels {
				rels[i] = relation.FromRows(relation.NewSchema("X"), relation.Tuple{value.Int(v)})
			}
			return FromComplete(names, rels), nil
		}
	}
	dir := t.TempDir()
	cat, wals, err := Open(ckptPath(dir), dir, 4, 0, seedWith(1))
	if err != nil {
		t.Fatal(err)
	}
	want := dbBytes(t, cat.Snapshot())
	closeWALs(wals) // crash right after Open: only the seed checkpoint holds the data

	cat2, wals2, err := Open(ckptPath(dir), dir, 4, 0, func() (*Catalog, error) {
		t.Error("seed built for a directory that already holds state")
		return New(nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	closeWALs(wals2)
	if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("seed did not survive a crash right after Open")
	}

	// Torn seed checkpoint: killed before the rename.
	if err := os.Remove(ckptPath(dir)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".checkpoint.wsd.tmp-1234"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat3, wals3, err := Open(ckptPath(dir), dir, 4, 0, seedWith(2))
	if err != nil {
		t.Fatalf("Open refused what a crash during the seed checkpoint leaves: %v", err)
	}
	want3 := dbBytes(t, cat3.Snapshot())
	closeWALs(wals3)
	if bytes.Equal(want3, want) {
		t.Fatal("test setup: the two seeds do not differ")
	}
	cat4, wals4 := openDir(t, dir, 4)
	defer closeWALs(wals4)
	if got := dbBytes(t, cat4.Snapshot()); !bytes.Equal(got, want3) {
		t.Fatalf("reopen after re-seeding over a torn seed checkpoint\n--- got ---\n%s\n--- want ---\n%s", got, want3)
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
