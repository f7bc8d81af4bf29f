package isql

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/store"
	"worldsetdb/internal/wsd"
)

// walBytes sums the sizes of dir's WAL segments.
func walBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestDDLRecordCostsTouchedData: a schema change logs what it touched,
// not the catalog. Each statement — create table, a choice-of and a
// repair-by-key CTAS, a drop of a relation listed before two
// component-bearing ones, create and drop view — appends a WAL record of
// the same byte count on the census catalog as on the same catalog plus
// 16 unrelated 1000-row relations (the bench's agg_wide shape), and
// recovery replays the records to the committed catalog byte for byte.
func TestDDLRecordCostsTouchedData(t *testing.T) {
	stmts := []string{
		"create table T (C, S, V);",
		"create table Pick as select * from Census choice of POB;",
		"create table Rep as select * from Census repair by key SSN;",
		"drop table T;",
		"create view NYC as select Name from Rep where POB = 'NYC';",
		"drop table NYC;",
	}
	narrow := func() *wsd.DecompDB { return datagen.CensusRepairDecomp(1000, 40, 1) }
	wide := func() *wsd.DecompDB {
		db := narrow()
		for i := 0; i < 16; i++ {
			r := datagen.Census(1000, 0, int64(i)+2)
			db = db.WithRelation(fmt.Sprintf("Other%d", i), r.Schema(), r)
		}
		return db
	}
	forShardCounts(t, func(t *testing.T, n int) {
		var sizes [2][]int64
		for k, seed := range []func() *wsd.DecompDB{narrow, wide} {
			dir := t.TempDir()
			cat, wals, err := store.Open(filepath.Join(dir, "checkpoint.wsd"), dir, n, 0,
				func() (*store.Catalog, error) { return store.New(seed()), nil })
			if err != nil {
				t.Fatal(err)
			}
			s := FromCatalog(cat)
			for _, sql := range stmts {
				before := walBytes(t, dir)
				mustScript(t, s, sql)
				sizes[k] = append(sizes[k], walBytes(t, dir)-before)
			}
			want := rawSnapBytes(t, cat.Snapshot())
			closeWALs(wals) // crash
			cat2, wals2 := openStoreDir(t, dir, n)
			got := rawSnapBytes(t, cat2.Snapshot())
			closeWALs(wals2)
			if !bytes.Equal(got, want) {
				t.Fatalf("replay of the DDL records differs from the committed catalog\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		}
		for i, sql := range stmts {
			t.Logf("%-60s %7d B", sql, sizes[0][i])
			if sizes[0][i] == 0 || sizes[0][i] != sizes[1][i] {
				t.Errorf("%s logged %d B on the census catalog, %d B with 16 unrelated relations beside it", sql, sizes[0][i], sizes[1][i])
			}
		}
	})
}

// copyStoreDir copies every file of src into a new directory dst.
func copyStoreDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashSweepDDLEveryCutPoint is the I-SQL twin of the store's
// crash sweep for schema changes: after a checkpoint holding a
// repair-by-key table, a choice-of CTAS creates components, a create
// table, a drop of a relation listed before both component-bearing
// tables shifts their indexes, a view and routed DML follow; then every
// segment is cut at every line boundary and mid-line. Each cut recovers
// to what re-executing the surviving statements over the checkpoint
// gives, or — a cut no crash can produce, leaving a record whose
// predecessor is gone — is refused, naming that record.
func TestCrashSweepDDLEveryCutPoint(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openStoreDir(t, dir, n)
		s := FromCatalog(cat)
		mustScript(t, s,
			"create table Census (SSN, Name, POB);",
			"insert into Census values (1, 'Smith', 'NYC'), (1, 'Smith', 'LA'), (2, 'Brown', 'SF'), (3, 'Green', 'LA'), (3, 'Grey', 'SF');",
			"create table Gone (A);",
			"create table Clean as select * from Census repair by key SSN;",
		)
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ckpt := rawSnapBytes(t, cat.Snapshot())
		mustScript(t, s,
			"create table Pick as select * from Census choice of POB;",
			"create table T (A, B);",
			"drop table Gone;",
			"create view NYC as select Name from Clean where POB = 'NYC';",
			"insert into T values (1, 'x');",
			"insert into Census values (4, 'White', 'SF');",
			"update Clean set POB = 'CHI' where SSN = 2;",
		)
		closeWALs(wals)

		recovered, refused := 0, 0
		for si := 0; si < n; si++ {
			seg := filepath.Join(dir, fmt.Sprintf("wal-%d.log", si))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			cuts := []int{0}
			for off, b := range data {
				if b == '\n' {
					cuts = append(cuts, off+1)
					if off+3 < len(data) {
						cuts = append(cuts, off+3) // mid next line: torn record
					}
				}
			}
			for _, cut := range cuts {
				cdir := fmt.Sprintf("%s-s%d-c%d", dir, si, cut)
				copyStoreDir(t, dir, cdir)
				if err := os.WriteFile(filepath.Join(cdir, filepath.Base(seg)), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				ref, last, orphan := checkpointOracle(t, ckpt, cdir, n)
				cpath := filepath.Join(cdir, "checkpoint.wsd")
				if orphan != nil {
					_, _, err := store.Open(cpath, cdir, n, 0, nil)
					var re *store.RecoveryError
					if !errors.As(err, &re) || re.Shard != orphan.Shard || re.Epoch != orphan.Epoch {
						t.Fatalf("segment %d cut %d: Open returned %v, want a refusal at shard %d e%d", si, cut, err, orphan.Shard, orphan.Epoch)
					}
					refused++
					os.RemoveAll(cdir)
					continue
				}
				rec, rwals, err := store.Open(cpath, cdir, n, 0, nil)
				if err != nil {
					t.Fatalf("segment %d cut %d: %v", si, cut, err)
				}
				if got, want := snapBytes(t, rec.Snapshot()), snapBytes(t, ref.Snapshot()); !bytes.Equal(got, want) {
					t.Fatalf("segment %d cut %d: recovery differs from re-executing the surviving statements\n--- got ---\n%s\n--- want ---\n%s", si, cut, got, want)
				}
				if rec.Snapshot().Version != last {
					t.Fatalf("segment %d cut %d: recovered version %d, want %d", si, cut, rec.Snapshot().Version, last)
				}
				closeWALs(rwals)
				recovered++
				os.RemoveAll(cdir)
			}
		}
		t.Logf("%d cuts recovered, %d refused", recovered, refused)
		if recovered < 2 {
			t.Fatalf("only %d cuts recovered", recovered)
		}
	})
}
