package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Torn-checkpoint crash sweeps: a checkpoint that dies between the
// temp-file write and the rename (fresh writes), or mid-page-flush
// before the meta-slot commit (incremental writes), must
// leave recovery falling back to the previous base plus WAL replay,
// byte-identically.

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
// directory. Recovery must ignore the strays (for the main and side
// files alike) and rebuild the committed state from the previous base
// plus the WALs.
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

		// Simulate the torn checkpoint: half-written temp files for the main
		// file and a side file, killed before their renames.
		for _, base := range []string{"checkpoint.wsd", "checkpoint.wsd.s2"} {
			stray := filepath.Join(dir, "."+base+".tmp-1234")
			if err := os.WriteFile(stray, bytes.Repeat([]byte{0xAB}, 12345), 0o644); err != nil {
				t.Fatal(err)
			}
		}

		cat2, wals2 := openDir(t, dir, nshards)
		defer closeWALs(wals2)
		if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("recovery with stray checkpoint temp files differs from the committed state")
		}
	})
}

// TestCrashMidPageFlush: an incremental checkpoint that dies after
// flushing data pages but before one shard's meta-slot commit — swept
// over every victim shard, main file included — leaves the main file at
// the previous version (side files may already be at the new one) and
// truncates no WAL. Recovery merges the mixed-epoch files and replays
// the WALs to the exact committed state: the relations are large enough
// that the tail's inserts are logged as tuple patches, which re-apply
// over the newer files that already hold them. The next checkpoint
// heals the base and a further reopen still matches.
func TestCrashMidPageFlush(t *testing.T) {
	forShardCounts(t, func(t *testing.T, nshards int) {
		for victim := 0; victim < nshards; victim++ {
			t.Run(fmt.Sprintf("victim=%d", victim), func(t *testing.T) {
				dir := t.TempDir()
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
				baseVer := cat.Pagers()[0].Version()
				for i, n := range names {
					sIns(t, cat, n, 200+i)
				}
				want := dbBytes(t, cat.Snapshot())

				cat.Pagers()[victim].failBeforeMeta = func() error { return errors.New("injected crash before meta commit") }
				if err := cat.Checkpoint(); err == nil {
					t.Fatal("checkpoint with injected crash reported success")
				}
				for i, st := range cat.DurabilityStats() {
					if st.WALTailRecords == 0 {
						t.Fatalf("failed checkpoint truncated shard %d's WAL — commits would be lost", i)
					}
				}
				closeWALs(wals) // crash

				// The main file on disk must still be the previous checkpoint.
				ps, loaded, err := openPageStore(ckptPath(dir), 0, 16)
				if err != nil {
					t.Fatal(err)
				}
				if loaded == nil || loaded.Version != baseVer {
					t.Fatalf("base after torn checkpoint is at version %v, want %d", loaded, baseVer)
				}
				ps.Close()

				cat2, wals2 := openDir(t, dir, nshards)
				if got := dbBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
					t.Fatal("recovery after mid-flush crash differs from the committed state")
				}
				// The store heals: a clean checkpoint commits every shard and a
				// further reopen still matches.
				if err := cat2.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				closeWALs(wals2)
				cat3, wals3 := openDir(t, dir, nshards)
				defer closeWALs(wals3)
				if got := dbBytes(t, cat3.Snapshot()); !bytes.Equal(got, want) {
					t.Fatal("reopen after healing checkpoint differs from the committed state")
				}
			})
		}
	})
}
