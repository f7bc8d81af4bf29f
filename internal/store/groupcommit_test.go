package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/relation"
)

// gatedBatchLogger is a batchLogger whose AppendBatch blocks until
// released, so tests can hold a flush leader mid-fsync while more
// committers enqueue — making batch formation deterministic.
type gatedBatchLogger struct {
	mu      sync.Mutex
	batches [][]WALRecord
	entered chan struct{} // signaled when AppendBatch is entered
	release chan struct{} // receives one token per AppendBatch allowed out
	fail    error         // when set, AppendBatch returns it (after the gate)
}

// newGatedCatalog returns a one-shard catalog whose only group-commit
// queue logs through a fresh gated fake.
func newGatedCatalog() (*Catalog, *gatedBatchLogger) {
	// Room for every AppendBatch a test lets through without a reader.
	g := &gatedBatchLogger{entered: make(chan struct{}, 64), release: make(chan struct{}, 64)}
	c := New(nil)
	c.shards[0].log = g
	return c, g
}

func (g *gatedBatchLogger) AppendBatch(recs []WALRecord) error {
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fail != nil {
		return g.fail
	}
	cp := append([]WALRecord{}, recs...)
	g.batches = append(g.batches, cp)
	return nil
}

func (g *gatedBatchLogger) snapshotBatches() [][]WALRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]WALRecord{}, g.batches...)
}

func (g *gatedBatchLogger) setFail(err error) {
	g.mu.Lock()
	g.fail = err
	g.mu.Unlock()
}

// commitRelAsync starts one logged relation-adding commit and returns
// its error channel.
func commitRelAsync(c *Catalog, name string) chan error {
	done := make(chan error, 1)
	go func() {
		done <- c.Update(func(tx *Tx) error {
			tx.Log(name)
			tx.SetDB(tx.DB().WithRelation(name, relation.NewSchema("X"), nil))
			return nil
		})
	}()
	return done
}

// waitPending polls until n commits are queued behind the in-flight
// flush.
func waitPending(t *testing.T, c *Catalog, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.PendingCommits() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d commits enqueued", c.PendingCommits(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitBatches: committers arriving while the leader is
// inside its fsync coalesce into the next batch — one AppendBatch, one
// fsync, many records — and the leader returns as soon as its own record
// is durable, handing the next batch's leadership off.
func TestGroupCommitBatches(t *testing.T) {
	c, g := newGatedCatalog()

	first := commitRelAsync(c, "T0")
	<-g.entered // leader is mid-"fsync" with batch [T0]

	const waiters = 4
	var rest []chan error
	for i := 0; i < waiters; i++ {
		rest = append(rest, commitRelAsync(c, fmt.Sprintf("W%d", i)))
	}
	waitPending(t, c, waiters)

	g.release <- struct{}{} // let batch 1 (the lone leader record) finish
	if err := <-first; err != nil {
		t.Fatalf("leader commit: %v", err)
	}
	<-g.entered // a fresh leader drained the queue into batch 2
	g.release <- struct{}{}
	for i, done := range rest {
		if err := <-done; err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}

	batches := g.snapshotBatches()
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2 (leader + coalesced waiters): %v", len(batches), batches)
	}
	if len(batches[0]) != 1 || len(batches[1]) != waiters {
		t.Fatalf("batch sizes %d,%d; want 1,%d", len(batches[0]), len(batches[1]), waiters)
	}
	// Epochs are contiguous across batches and published in order.
	want := uint64(2)
	for _, b := range batches {
		for _, rec := range b {
			if rec.Version != want || len(rec.Parts) != 0 {
				t.Fatalf("record %+v, want a plain single-participant record at epoch %d", rec, want)
			}
			want++
		}
	}
	if got := c.Snapshot().Version; got != uint64(1+1+waiters) {
		t.Fatalf("final version %d, want %d", got, 1+1+waiters)
	}
	if c.PendingCommits() != 0 {
		t.Fatalf("queue not drained: %d pending", c.PendingCommits())
	}
	if st := c.ShardStats()[0]; st.Commits != 1+waiters {
		t.Fatalf("shard counted %d commits, want %d", st.Commits, 1+waiters)
	}
}

// TestGroupCommitFailureAborts: a failing batch write publishes
// nothing, fails the commits queued behind it on the aborted chain,
// rolls the shard head back, and the next commit re-bases on the
// durable version and succeeds (the failed epochs stay burned).
func TestGroupCommitFailureAborts(t *testing.T) {
	c, g := newGatedCatalog()
	boom := errors.New("disk on fire")
	g.setFail(boom)

	first := commitRelAsync(c, "T0")
	<-g.entered // leader mid-"fsync" with [T0]
	behind := commitRelAsync(c, "T1")
	waitPending(t, c, 1) // T1 chained on T0's head and queued behind it
	g.release <- struct{}{}
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("commit error = %v, want wrapped %v", err, boom)
	}
	if err := <-behind; !errors.Is(err, boom) {
		t.Fatalf("commit queued behind the failed batch = %v, want wrapped %v", err, boom)
	}
	if got := c.Snapshot().Version; got != 1 {
		t.Fatalf("failed commit published version %d", got)
	}
	if c.PendingCommits() != 0 {
		t.Fatalf("aborted chain left %d commits queued", c.PendingCommits())
	}
	// The next commit re-bases on the durable version and succeeds.
	g.setFail(nil)
	g.release <- struct{}{}
	if err := <-commitRelAsync(c, "T2"); err != nil {
		t.Fatalf("commit after failure: %v", err)
	}
	<-g.entered
	snap := c.Snapshot()
	if snap.Version != 4 || snap.DB.IndexOf("T2") < 0 || snap.DB.IndexOf("T0") >= 0 || snap.DB.IndexOf("T1") >= 0 {
		t.Fatalf("post-failure catalog wrong: v%d, names %v", snap.Version, snap.DB.Names)
	}
	batches := g.snapshotBatches()
	if len(batches) != 1 || batches[0][0].Version != 4 {
		t.Fatalf("logged batches after failure: %v", batches)
	}
}

// TestGroupCommitStaleChainAborts: a commit that chained on a head the
// failed flush has since rolled back (it was between taking its epoch
// and entering the queue when the abort drained it) reaches the flusher
// with a base epoch that is no longer the published chain. It must be
// failed without ever being written.
func TestGroupCommitStaleChainAborts(t *testing.T) {
	c, g := newGatedCatalog()
	stale := &commitReq{ps: []int{0}, epoch: 7, prev: []uint64{6}, stmts: []string{"T"},
		db: c.Snapshot().DB, done: make(chan error, 1)}
	c.flushShardBatch(0, []*commitReq{stale})
	if err := <-stale.done; err == nil {
		t.Fatal("commit staged on an aborted chain was acknowledged")
	}
	if len(g.entered) != 0 {
		t.Fatal("stale commit reached the log")
	}
	if got := c.Snapshot().Version; got != 1 {
		t.Fatalf("stale commit published version %d", got)
	}
}

// TestWaitPublished: the advisory wait conflict retry relies on blocks
// while the awaited epoch sits in the group-commit queue, returns once
// it is reader-visible — and also returns when the queue goes idle
// without it (the commit was aborted).
func TestWaitPublished(t *testing.T) {
	c, g := newGatedCatalog()
	waitFor := func(v uint64) chan uint64 {
		out := make(chan uint64, 1)
		go func() {
			c.WaitPublished(v)
			out <- c.Snapshot().Version
		}()
		return out
	}

	first := commitRelAsync(c, "T0")
	<-g.entered // epoch 2 assigned, unpublished
	waited := waitFor(2)
	select {
	case v := <-waited:
		t.Fatalf("WaitPublished(2) returned at v%d while epoch 2 was still awaiting its fsync", v)
	case <-time.After(20 * time.Millisecond):
	}
	g.release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if v := <-waited; v < 2 {
		t.Fatalf("WaitPublished(2) returned at v%d", v)
	}

	g.setFail(errors.New("disk on fire"))
	second := commitRelAsync(c, "T1")
	<-g.entered // epoch 3 assigned, about to fail
	waited = waitFor(3)
	g.release <- struct{}{}
	if err := <-second; err == nil {
		t.Fatal("failing commit succeeded")
	}
	if v := <-waited; v != 2 {
		t.Fatalf("WaitPublished(3) after the abort returned at v%d, want the durable v2", v)
	}
}

// delayedLogger is a real WAL segment whose appends take at least a
// millisecond, so committers reliably pile up behind a flush leader
// whatever the filesystem's fsync cost or the scheduler's mood.
type delayedLogger struct{ w *WAL }

func (d delayedLogger) AppendBatch(recs []WALRecord) error {
	time.Sleep(time.Millisecond)
	return d.w.AppendBatch(recs)
}

// commitCost returns a check that one commit — one new epoch — costs
// exactly one fsync and one WAL record, summed over every segment.
func commitCost(t *testing.T, cat *Catalog, wals []*WAL) func(what string, commit func() error) {
	sums := func() (syncs uint64, recs int) {
		for i, st := range cat.ShardStats() {
			syncs += st.Syncs
			recs += wals[i].TailRecords()
		}
		return syncs, recs
	}
	return func(what string, commit func() error) {
		t.Helper()
		syncs, recs := sums()
		ver := cat.Snapshot().Version
		if err := commit(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		syncs2, recs2 := sums()
		if syncs2 != syncs+1 || recs2 != recs+1 || cat.Snapshot().Version != ver+1 {
			t.Fatalf("%s cost %d fsync(s) and %d record(s) for %d commit(s), want 1/1/1", what,
				syncs2-syncs, recs2-recs, cat.Snapshot().Version-ver)
		}
	}
}

// TestOneShardCommitCostsOneFsync: on a one-shard WAL-backed catalog
// every kind of commit — DDL, routed auto-commit, un-routed and routed
// staged transactions — is one record and one fsync through the
// group-commit queue, and concurrent auto-commit writers still
// coalesce.
func TestOneShardCommitCostsOneFsync(t *testing.T) {
	dir := t.TempDir()
	cat, wals := openDir(t, dir, 1)
	defer closeWALs(wals)
	cost := commitCost(t, cat, wals)
	cost("DDL", func() error { return cat.Update(func(tx *Tx) error { return mkTable(tx, "A") }) })
	cost("routed auto-commit", func() error {
		return cat.UpdateRouted([]string{"A"}, func(tx *Tx) error { return insInto(tx, "A", 1) })
	})
	cost("un-routed transaction", func() error {
		txn := cat.Begin()
		if err := txn.Update(func(tx *Tx) error { return mkTable(tx, "B") }); err != nil {
			return err
		}
		if err := txn.Update(func(tx *Tx) error { return insInto(tx, "B", 2) }); err != nil {
			return err
		}
		return txn.Commit()
	})
	cost("routed transaction", func() error {
		txn := cat.Begin()
		for _, tbl := range []string{"A", "B"} {
			if err := txn.UpdateRouted([]string{tbl}, func(tx *Tx) error { return insInto(tx, tbl, 3) }); err != nil {
				return err
			}
		}
		return txn.Commit()
	})

	cat.shards[0].log = delayedLogger{wals[0]}
	const writers, per = 8, 10
	before := cat.ShardStats()[0]
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := cat.UpdateRouted([]string{"A"}, func(tx *Tx) error { return insInto(tx, "A", 100+w*per+k) }); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	after := cat.ShardStats()[0]
	commits, syncs := after.Commits-before.Commits, after.Syncs-before.Syncs
	if commits != writers*per || syncs >= commits {
		t.Fatalf("%d commits over %d fsyncs: 8 concurrent writers on one shard did not coalesce", commits, syncs)
	}
	t.Logf("%d commits, %d fsyncs (amortization %.1fx)", commits, syncs, float64(commits)/float64(syncs))

	// And all of it recovers.
	want := dbBytes(t, cat.Snapshot())
	closeWALs(wals)
	cat2, wals2 := openDir(t, dir, 1)
	defer closeWALs(wals2)
	if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("one-shard commits do not recover byte-identically")
	}
}

// TestShardedCommitCostsOneFsync: at four shards a commit with several
// participants — an all-shard DDL, an un-routed transaction, a staged
// transaction over tables on two shards — is still one record and one
// fsync, on the coordinator segment; a traced one shows it as a single
// wal.fsync child. All of it recovers.
func TestShardedCommitCostsOneFsync(t *testing.T) {
	dir := t.TempDir()
	cat, wals := openDir(t, dir, 4)
	cost := commitCost(t, cat, wals)
	names := shardNames(4)
	trace := obs.NewTrace("commit")
	cost("all-shard DDL", func() error {
		return cat.Update(func(tx *Tx) error {
			tx.SetTrace(trace)
			for _, n := range names {
				if err := mkTable(tx, n); err != nil {
					return err
				}
			}
			return nil
		})
	})
	var fsyncs []string
	for _, sp := range trace.Children() {
		if sp.Name == "wal.fsync" {
			fsyncs = append(fsyncs, fmt.Sprint(sp.SortedAttrs()))
		}
	}
	if want := fmt.Sprint([]obs.Attr{{Key: "batch", Val: "1"}, {Key: "participants", Val: "4"}}); len(fsyncs) != 1 || fsyncs[0] != want {
		t.Fatalf("traced all-shard commit has wal.fsync children %v, want one with %s", fsyncs, want)
	}
	cost("un-routed transaction", func() error {
		txn := cat.Begin()
		if err := txn.Update(func(tx *Tx) error { return mkTable(tx, "B") }); err != nil {
			return err
		}
		if err := txn.Update(func(tx *Tx) error { return insInto(tx, "B", 2) }); err != nil {
			return err
		}
		return txn.Commit()
	})
	cost("two-participant transaction", func() error {
		txn := cat.Begin()
		for _, tbl := range names[1:3] {
			if err := txn.UpdateRouted([]string{tbl}, func(tx *Tx) error { return insInto(tx, tbl, 3) }); err != nil {
				return err
			}
		}
		return txn.Commit()
	})
	if wals[0].TailRecords() != 2 || wals[1].TailRecords() != 1 {
		t.Fatalf("segments 0 and 1 hold %d and %d records, want 2 and 1 (each on its coordinator)",
			wals[0].TailRecords(), wals[1].TailRecords())
	}

	want := dbBytes(t, cat.Snapshot())
	closeWALs(wals)
	cat2, wals2 := openDir(t, dir, 4)
	defer closeWALs(wals2)
	if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("cross-shard commits do not recover byte-identically")
	}
}

// TestGroupCommitConcurrentWriters: heavy concurrent commit traffic
// through a real WAL (group commit live) recovers byte-identically and
// never fsyncs more than once per commit (run under -race in CI).
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	cat, wals := openDir(t, dir, 1)
	const writers = 8
	const commitsPer = 20
	var wg sync.WaitGroup
	errs := make([]error, writers*commitsPer)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commitsPer; i++ {
				name := fmt.Sprintf("W%d_%d", g, i)
				errs[g*commitsPer+i] = cat.Update(func(tx *Tx) error {
					tx.Log(name)
					tx.SetDB(tx.DB().WithRelation(name, relation.NewSchema("X"), nil))
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	commits := uint64(writers * commitsPer)
	if got := cat.Snapshot().Version; got != commits+1 {
		t.Fatalf("final version %d, want %d", got, commits+1)
	}
	if s := wals[0].Syncs(); s > commits {
		t.Fatalf("%d fsyncs for %d commits: group commit never batched", s, commits)
	} else {
		t.Logf("%d commits, %d fsyncs (amortization %.1fx)", commits, s, float64(commits)/float64(s))
	}
	want := saveBytes(t, cat.Snapshot())
	closeWALs(wals)
	cat2, wals2 := openDir(t, dir, 1)
	defer closeWALs(wals2)
	if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("group-committed catalog does not recover byte-identically")
	}
}

// TestGroupCommitCheckpointDrains: Checkpoint must wait for in-flight
// group commits, so the truncated log never orphans a commit that was
// acknowledged (or is about to be).
func TestGroupCommitCheckpointDrains(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openDir(t, dir, n)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if err := addRelApplier(cat, WALRecord{Stmts: []string{fmt.Sprintf("W%d_%d", g, i)}}); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		// Checkpoint racing the writers: every one must land either in the
		// checkpoint or in the log tail.
		for i := 0; i < 5; i++ {
			if err := cat.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		want := saveBytes(t, cat.Snapshot())
		closeWALs(wals)
		cat2, wals2 := openDir(t, dir, n)
		defer closeWALs(wals2)
		if got := saveBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("checkpoint during group commit lost a commit")
		}
	})
}

// TestGroupBatchTornMidBatchTruncated: a crash anywhere inside a
// multi-record batch append — the kill -9 mid-batch case; a batch is
// its records' lines back to back — recovers byte-identically to the
// statement-level replay of the intact record prefix, for every cut
// point.
func TestGroupBatchTornMidBatchTruncated(t *testing.T) {
	dir := t.TempDir()
	cat, wals := openDir(t, dir, 1)
	const n = 4
	recs := make([]WALRecord, n)
	for i := range recs {
		recs[i] = WALRecord{Stmts: []string{fmt.Sprintf("T%d", i)}}
		addRel(t, cat, recs[i].Stmts[0])
	}
	closeWALs(wals)
	full, err := os.ReadFile(segmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Reference states: the catalog after replaying the first k records.
	wants := make([][]byte, n+1)
	for k := 0; k <= n; k++ {
		ref := New(nil)
		for _, rec := range recs[:k] {
			if err := addRelApplier(ref, rec); err != nil {
				t.Fatal(err)
			}
		}
		wants[k] = saveBytes(t, ref.Snapshot())
	}
	// Line boundaries of the batch records.
	var ends []int
	for i, b := range full {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != n {
		t.Fatalf("log holds %d lines, want %d", len(ends), n)
	}
	for cut := 1; cut <= len(full); cut++ {
		// intact = number of whole records before the cut.
		intact := 0
		for intact < n && ends[intact] <= cut {
			intact++
		}
		caseDir := t.TempDir()
		copyDir(t, dir, caseDir)
		if err := os.WriteFile(segmentPath(caseDir, 0), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cat, wals := openDir(t, caseDir, 1)
		got := saveBytes(t, cat.Snapshot())
		closeWALs(wals)
		if !bytes.Equal(got, wants[intact]) {
			t.Fatalf("cut at byte %d (%d intact records): recovered state differs from the intact-prefix replay", cut, intact)
		}
	}
}
