package isql

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"worldsetdb/internal/store"
)

// crossShardTables picks two table names homing on different shards of
// cat, so a transaction writing both must take the cross-shard
// two-phase commit path.
func crossShardTables(t *testing.T, cat *store.Catalog) (string, string) {
	t.Helper()
	ta := "T0"
	for i := 1; i < 64; i++ {
		tb := fmt.Sprintf("T%d", i)
		if cat.ShardOf(tb) != cat.ShardOf(ta) {
			return ta, tb
		}
	}
	t.Fatal("no two table names home on different shards")
	return "", ""
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
	if f := replayFallbacks(cat2); f != 0 {
		t.Fatalf("dense delta replay fell back to statements %d time(s)", f)
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

// TestShardedCrashTornMarkerRollsBack pins cross-shard atomicity under
// the worst crash point: the stage records of a cross-shard transaction
// reached every participant segment, but the crash tore off the
// coordinator's commit marker. Recovery must discard the transaction on
// ALL participants — neither shard may show a torn half. A later commit
// on the non-coordinator participant survives behind the rolled-back
// epoch; the gap makes its delta unsafe to apply, so recovery
// re-executes it — counted as a replay fallback — and the result is the
// state before the transaction began plus that commit, at the pre-crash
// version.
func TestShardedCrashTornMarkerRollsBack(t *testing.T) {
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
	)
	// The coordinator is the lowest participant shard; the survivor goes
	// to the other participant's table.
	co, later := cat.ShardOf(ta), tb
	if o := cat.ShardOf(tb); o < co {
		co, later = o, ta
	}
	ref := NewSession()
	mustScript(t, ref,
		fmt.Sprintf("create table %s (A);", ta),
		fmt.Sprintf("create table %s (A);", tb),
		fmt.Sprintf("insert into %s values (1), (2);", ta),
		fmt.Sprintf("insert into %s values (10);", tb),
		fmt.Sprintf("insert into %s values (5);", later),
	)
	want := snapBytes(t, ref.Catalog().Snapshot())
	mustScript(t, s,
		"begin;",
		fmt.Sprintf("insert into %s values (777);", ta),
		fmt.Sprintf("insert into %s values (888);", tb),
		"commit;",
		fmt.Sprintf("insert into %s values (5);", later),
	)
	wantVer := cat.Snapshot().Version
	closeWALs(wals)

	// Tear the marker off the coordinator segment, leaving the stage
	// records on both segments.
	seg := store.SegmentPath(dir, co)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	trim := bytes.LastIndexByte(bytes.TrimSuffix(data, []byte("\n")), '\n')
	if trim < 0 {
		t.Fatalf("coordinator segment %s has no line to tear", seg)
	}
	if err := os.WriteFile(seg, data[:trim+1], 0o644); err != nil {
		t.Fatal(err)
	}

	cat2, wals2 := openStoreDir(t, dir, nshards)
	defer closeWALs(wals2)
	if got := snapBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("unmarked cross-shard commit not rolled back on every shard\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if got := cat2.Snapshot().Version; got != wantVer {
		t.Fatalf("recovered version %d, want the pre-crash %d", got, wantVer)
	}
	if f := replayFallbacks(cat2); f != 1 {
		t.Fatalf("%d replay fallbacks, want 1 (the commit behind the rolled-back epoch)", f)
	}
	s2 := FromCatalog(cat2)
	for _, v := range []int{777, 888} {
		for _, tbl := range []string{ta, tb} {
			if got := singleAnswer(t, s2, fmt.Sprintf("select certain A from %s where A = %d;", tbl, v)); got.Len() != 0 {
				t.Fatalf("%d survived in %s after the rollback", v, tbl)
			}
		}
	}
}
