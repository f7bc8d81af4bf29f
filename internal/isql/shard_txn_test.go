package isql

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"worldsetdb/internal/store"
)

// tableOn picks a table name homing on the given shard of cat.
func tableOn(t *testing.T, cat *store.Catalog, shard int) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		if name := fmt.Sprintf("T%d", i); cat.ShardOf(name) == shard {
			return name
		}
	}
	t.Fatalf("no table name homes on shard %d", shard)
	return ""
}

// crossShardTables picks two table names homing on shards 1 and 2 of
// cat, so a transaction writing both is a cross-shard commit with
// shard 1 as its coordinator.
func crossShardTables(t *testing.T, cat *store.Catalog) (string, string) {
	t.Helper()
	return tableOn(t, cat, 1), tableOn(t, cat, 2)
}

// TestShardedCrashRecoveryByteIdentical is the sharded WAL acceptance
// test at the I-SQL level: a workload over a 4-shard catalog — all-shard
// DDL, routed single-shard commits, and a committed cross-shard
// transaction as the final commit — crashes without checkpointing, and
// merged-epoch recovery over the four segments must restore the catalog
// byte-identical (version included) to the last committed snapshot. An
// uncommitted transaction in flight at crash time leaves no trace.
func TestShardedCrashRecoveryByteIdentical(t *testing.T) {
	const nshards = 4
	dir := t.TempDir()
	cat, wals := openStoreDir(t, dir, nshards)
	ta, tb := crossShardTables(t, cat)
	s := FromCatalog(cat)
	mustScript(t, s,
		fmt.Sprintf("create table %s (A);", ta),
		fmt.Sprintf("create table %s (A);", tb),
		fmt.Sprintf("insert into %s values (1), (2);", ta),
		fmt.Sprintf("insert into %s values (10);", tb),
		"begin;",
		fmt.Sprintf("insert into %s values (777);", ta),
		fmt.Sprintf("insert into %s values (888);", tb),
		"commit;",
	)
	want := rawSnapBytes(t, cat.Snapshot())

	// An in-flight transaction at crash time: staged, never committed.
	mustScript(t, s, "begin;", fmt.Sprintf("delete from %s;", ta))
	closeWALs(wals) // crash: no checkpoint, open transaction dropped

	cat2, wals2 := openStoreDir(t, dir, nshards)
	defer closeWALs(wals2)
	if got := rawSnapBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("recovered catalog differs from last committed snapshot\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if oracle := rawSnapBytes(t, statementOracle(t, dir, nshards).Snapshot()); !bytes.Equal(oracle, want) {
		t.Fatalf("delta recovery differs from statement re-execution of the log\n--- oracle ---\n%s\n--- want ---\n%s", oracle, want)
	}
	// And the recovered catalog serves, with the cross-shard commit
	// visible on both shards.
	s2 := FromCatalog(cat2)
	if got := singleAnswer(t, s2, fmt.Sprintf("select certain A from %s;", ta)); got.Len() != 3 {
		t.Fatalf("recovered %s has %d certain rows, want 3", ta, got.Len())
	}
	if got := singleAnswer(t, s2, fmt.Sprintf("select certain A from %s;", tb)); got.Len() != 2 {
		t.Fatalf("recovered %s has %d certain rows, want 2", tb, got.Len())
	}
}

// tornCrossShardDir runs a workload whose last commit is a cross-shard
// transaction over ta (shard 1, the coordinator) and tb (shard 2), then
// crashes mid-way through appending its one record to the coordinator
// segment. It returns the directory and the catalog version before the
// transaction.
func tornCrossShardDir(t *testing.T, nshards int) (dir, ta, tb string, before uint64) {
	t.Helper()
	dir = t.TempDir()
	cat, wals := openStoreDir(t, dir, nshards)
	ta, tb = crossShardTables(t, cat)
	s := FromCatalog(cat)
	mustScript(t, s,
		fmt.Sprintf("create table %s (A);", ta),
		fmt.Sprintf("create table %s (A);", tb),
		fmt.Sprintf("create table %s (A);", tableOn(t, cat, 0)),
		fmt.Sprintf("insert into %s values (1), (2);", ta),
		fmt.Sprintf("insert into %s values (10);", tb),
	)
	before = cat.Snapshot().Version
	mustScript(t, s,
		"begin;",
		fmt.Sprintf("insert into %s values (777);", ta),
		fmt.Sprintf("insert into %s values (888);", tb),
		"commit;",
	)
	coordinator := wals[cat.ShardOf(ta)].Path()
	closeWALs(wals)
	data, err := os.ReadFile(coordinator)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.LastIndexByte(bytes.TrimSuffix(data, []byte("\n")), '\n') + 1
	if start >= len(data) {
		t.Fatalf("coordinator segment %s has no line to tear", coordinator)
	}
	if err := os.WriteFile(coordinator, data[:(start+len(data))/2], 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, ta, tb, before
}

// TestShardedCrashTornRecordRollsBack pins cross-shard atomicity under
// a crash mid-commit: the transaction's one record, on the coordinator
// segment, is torn. Recovery cuts it like any torn tail, so the
// transaction is gone from ALL participants — neither shard may show a
// torn half. A commit on the other participant after the restart was
// staged on the state without the transaction, so the next recovery
// links it and replays it by delta: the state before the transaction
// plus that commit, equal to statement re-execution of the surviving
// log.
func TestShardedCrashTornRecordRollsBack(t *testing.T) {
	const nshards = 4
	dir, ta, tb, before := tornCrossShardDir(t, nshards)

	cat2, wals2 := openStoreDir(t, dir, nshards)
	if got := cat2.Snapshot().Version; got != before {
		t.Fatalf("recovered version %d, want %d (the transaction rolled back)", got, before)
	}
	mustScript(t, FromCatalog(cat2), fmt.Sprintf("insert into %s values (5);", tb))
	want := rawSnapBytes(t, cat2.Snapshot())
	closeWALs(wals2)

	cat3, wals3 := openStoreDir(t, dir, nshards)
	defer closeWALs(wals3)
	if got := rawSnapBytes(t, cat3.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("torn cross-shard commit not rolled back on every shard\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if got, oracle := rawSnapBytes(t, cat3.Snapshot()), rawSnapBytes(t, statementOracle(t, dir, nshards).Snapshot()); !bytes.Equal(got, oracle) {
		t.Fatalf("delta recovery differs from statement re-execution of the surviving log\n--- got ---\n%s\n--- oracle ---\n%s", got, oracle)
	}
	s3 := FromCatalog(cat3)
	for _, v := range []int{777, 888} {
		for _, tbl := range []string{ta, tb} {
			if got := singleAnswer(t, s3, fmt.Sprintf("select certain A from %s where A = %d;", tbl, v)); got.Len() != 0 {
				t.Fatalf("%d survived in %s after the rollback", v, tbl)
			}
		}
	}
	if got := singleAnswer(t, s3, fmt.Sprintf("select certain A from %s where A = 5;", tb)); got.Len() != 1 {
		t.Fatalf("the commit behind the rolled-back epoch is missing from %s", tb)
	}
}

// TestShardedEpochNotReusedAfterRollback is the isql-level twin of the
// store's TestEpochNotReusedAfterRollback: after recovery rolled back
// the torn highest epoch in the log, an acknowledged insert into a
// table on a shard outside the transaction must survive the next
// recovery.
func TestShardedEpochNotReusedAfterRollback(t *testing.T) {
	const nshards = 4
	dir, _, _, _ := tornCrossShardDir(t, nshards)

	cat2, wals2 := openStoreDir(t, dir, nshards)
	t0 := tableOn(t, cat2, 0)
	mustScript(t, FromCatalog(cat2), fmt.Sprintf("insert into %s values (42);", t0)) // acknowledged
	want := rawSnapBytes(t, cat2.Snapshot())
	closeWALs(wals2)

	cat3, wals3 := openStoreDir(t, dir, nshards)
	defer closeWALs(wals3)
	if got := rawSnapBytes(t, cat3.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("acknowledged commit lost behind a rolled-back epoch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestScatterReadCostsNoMore: selects over eight choice tables spread
// round-robin over 4 shards, plus a cross-shard join, answer as on one
// shard and allocate at most 1/0.7 of what they do there.
func TestScatterReadCostsNoMore(t *testing.T) {
	var allocs []float64
	var answers []string
	for _, nshards := range []int{1, 4} {
		cat := store.NewSharded(nil, nshards)
		s := FromCatalog(cat)
		var reads []string
		for ti, i := 0, 0; ti < 8; i++ {
			tbl := fmt.Sprintf("B%d", i)
			if cat.ShardOf(tbl) != ti%nshards {
				continue
			}
			mustExec(t, s, fmt.Sprintf("create table %s (A);", tbl))
			for v := 0; v < 6; v++ {
				mustExec(t, s, fmt.Sprintf("insert into %s values (%d);", tbl, v+10*ti))
			}
			mustExec(t, s, fmt.Sprintf("create table P%d as select * from %s choice of A;", ti, tbl))
			reads = append(reads, fmt.Sprintf("select possible A from P%d;", ti))
			ti++
		}
		reads = append(reads, "select certain X.A from P0 X, P1 Y where X.A = Y.A;")
		var b strings.Builder
		for _, sql := range reads {
			for _, a := range mustExec(t, s, sql).Answers {
				b.WriteString(a.ContentKey())
			}
		}
		answers = append(answers, b.String())
		a := testing.AllocsPerRun(10, func() {
			for _, sql := range reads {
				mustExec(t, s, sql)
			}
		})
		t.Logf("shards=%d: %.0f allocations per pass", nshards, a)
		allocs = append(allocs, a)
	}
	if answers[0] != answers[1] {
		t.Error("scattered reads answer differently at 4 shards than at 1")
	}
	if 0.7*allocs[1] > allocs[0] {
		t.Errorf("scattered reads allocate %.0f at 4 shards, %.0f at 1: over 1/0.7 as much", allocs[1], allocs[0])
	}
}
