package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Torn-checkpoint crash sweeps: a checkpoint that dies between the
// temp-file write and the rename (fresh writes), or mid-page-flush
// before the meta-slot commit (incremental writes), must leave recovery
// falling back to the previous base plus strict WAL replay,
// byte-identically, and a later checkpoint writing what one that never
// failed writes.

// sIns commits one routed "ins" transaction.
func sIns(t *testing.T, cat *Catalog, table string, v int) {
	t.Helper()
	err := cat.UpdateRouted([]string{table}, func(tx *Tx) error {
		return insInto(tx, table, v)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mkAll commits one all-shard transaction creating every named table.
func mkAll(t *testing.T, cat *Catalog, names []string) {
	t.Helper()
	err := cat.UpdateRouted(nil, func(tx *Tx) error {
		for _, n := range names {
			if err := mkTable(tx, n); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTornCheckpointTempFileIgnored: a crash between the checkpoint's
// temp-file write and its rename leaves a stray dot-temp in the catalog
// directory. Recovery must ignore it and rebuild the committed state
// from the previous base plus the WALs.
func TestTornCheckpointTempFileIgnored(t *testing.T) {
	forShardCounts(t, func(t *testing.T, nshards int) {
		dir := t.TempDir()
		names := shardNames(nshards)
		cat, wals := openDir(t, dir, nshards)
		mkAll(t, cat, names)
		for i, n := range names {
			sIns(t, cat, n, 100+i)
		}
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i, n := range names {
			sIns(t, cat, n, 200+i) // WAL tail on every shard
		}
		want := dbBytes(t, cat.Snapshot())
		closeWALs(wals)

		// Simulate the torn checkpoint: a half-written temp file, killed
		// before its rename.
		stray := filepath.Join(dir, ".checkpoint.wsd.tmp-1234")
		if err := os.WriteFile(stray, bytes.Repeat([]byte{0xAB}, 12345), 0o644); err != nil {
			t.Fatal(err)
		}

		cat2, wals2 := openDir(t, dir, nshards)
		defer closeWALs(wals2)
		if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("recovery with a stray checkpoint temp file differs from the committed state")
		}
	})
}

// crashFixture opens a catalog in dir with one table per shard, each
// holding enough rows that later inserts log as tuple patches, and
// checkpoints it.
func crashFixture(t *testing.T, dir string, nshards int) (*Catalog, []*WAL, []string) {
	t.Helper()
	names := shardNames(nshards)
	cat, wals := openDir(t, dir, nshards)
	mkAll(t, cat, names)
	for i, n := range names {
		for k := 0; k < 8; k++ {
			sIns(t, cat, n, 100+10*i+k)
		}
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return cat, wals, names
}

var errInjected = errors.New("injected crash before meta commit")

// TestCrashMidPageFlush: an incremental checkpoint that dies after
// flushing data pages but before the meta-slot commit leaves the file at
// exactly the previous version and truncates no WAL. Recovery loads that
// base and replays the tail strictly — the relations are large enough
// that the tail's inserts are tuple patches, which refuse to apply over
// a base already holding them — to the exact committed state. The next
// checkpoint commits and a further reopen still matches. The sweep runs
// over the victim, the first shard whose table the torn checkpoint
// rewrites: the tail commits land on shards victim..n-1, from a tail on
// every segment down to one on the last segment alone, the other
// segments empty and their tables' chains left as the base has them.
func TestCrashMidPageFlush(t *testing.T) {
	forShardCounts(t, func(t *testing.T, nshards int) {
		for victim := 0; victim < nshards; victim++ {
			t.Run(fmt.Sprintf("victim=%d", victim), func(t *testing.T) {
				dir := t.TempDir()
				cat, wals, names := crashFixture(t, dir, nshards)
				baseVer := cat.Pager().Version()
				for i := victim; i < len(names); i++ {
					sIns(t, cat, names[i], 200+i)
				}
				want := dbBytes(t, cat.Snapshot())

				cat.Pager().failBeforeMeta = func() error { return errInjected }
				if err := cat.Checkpoint(); !errors.Is(err, errInjected) {
					t.Fatalf("checkpoint with injected crash: %v", err)
				}
				for si, n := range cat.DurabilityStats().WALTailRecords {
					wantTail := 0
					if si >= victim {
						wantTail = 1
					}
					if n != wantTail {
						t.Fatalf("failed checkpoint left %d WAL records on shard %d, want the %d commits since the base", n, si, wantTail)
					}
				}
				closeWALs(wals) // crash

				ps, base, err := openPageStore(ckptPath(dir), 16)
				if err != nil {
					t.Fatal(err)
				}
				if base == nil || base.Version != baseVer {
					t.Fatalf("base after torn checkpoint is %v, want version %d", base, baseVer)
				}
				ps.Close()

				cat2, wals2 := openDir(t, dir, nshards)
				if v := cat2.Pager().Version(); v != baseVer {
					t.Fatalf("recovery loaded base v%d, want v%d", v, baseVer)
				}
				if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
					t.Fatal("recovery after mid-flush crash differs from the committed state")
				}
				if err := cat2.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				closeWALs(wals2)
				cat3, wals3 := openDir(t, dir, nshards)
				defer closeWALs(wals3)
				if got := dbBytes(t, cat3.Snapshot()); !bytes.Equal(got, want) {
					t.Fatal("reopen after the next checkpoint differs from the committed state")
				}
			})
		}
	})
}

// TestFailedCheckpointReturnsPages: a checkpoint that fails before its
// meta slot hands back every page it allocated, so the next clean
// checkpoint leaves the file as long, and the free list as it is, in a
// twin catalog that never failed.
func TestFailedCheckpointReturnsPages(t *testing.T) {
	forShardCounts(t, func(t *testing.T, nshards int) {
		run := func(fail bool) *PageStore {
			dir := t.TempDir()
			cat, wals, names := crashFixture(t, dir, nshards)
			defer closeWALs(wals)
			for i, n := range names {
				sIns(t, cat, n, 200+i)
			}
			if fail {
				cat.Pager().failBeforeMeta = func() error { return errInjected }
				if err := cat.Checkpoint(); !errors.Is(err, errInjected) {
					t.Fatalf("checkpoint with injected crash: %v", err)
				}
				cat.Pager().failBeforeMeta = nil
			}
			if err := cat.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			return cat.Pager()
		}
		failed, twin := run(true), run(false)
		fa, err := os.Stat(failed.Path())
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.Stat(twin.Path())
		if err != nil {
			t.Fatal(err)
		}
		if fa.Size() != fb.Size() || !reflect.DeepEqual(failed.free, twin.free) {
			t.Fatalf("after a failed checkpoint: %d bytes, free %v; twin that never failed: %d bytes, free %v",
				fa.Size(), failed.free, fb.Size(), twin.free)
		}
	})
}
