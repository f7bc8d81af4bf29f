package store

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"

	_ "worldsetdb/internal/translate" // register the translated engine
)

func censusCatalog(t testing.TB, n, dups int) *Catalog {
	t.Helper()
	return FromComplete([]string{"Census"}, []*relation.Relation{datagen.Census(n, dups, 7)})
}

// repairQ is cert(repair_SSN(Census)) compiled by hand.
func repairQ() wsa.Expr {
	return wsa.NewCert(&wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}})
}

// TestSnapshotIsolation: a reader holding a snapshot sees the old
// version while a writer commits a new one; new readers see the new
// version.
func TestSnapshotIsolation(t *testing.T) {
	c := censusCatalog(t, 20, 2)
	before := c.Snapshot()
	err := c.Update(func(tx *Tx) error {
		db := tx.DB().WithRelation("Extra", relation.NewSchema("X"),
			relation.FromRows(relation.NewSchema("X"), relation.Tuple{value.Int(1)}))
		tx.SetDB(db)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if after.Version != before.Version+1 {
		t.Fatalf("version %d after commit, want %d", after.Version, before.Version+1)
	}
	if before.DB.IndexOf("Extra") >= 0 {
		t.Fatal("old snapshot sees the new relation")
	}
	if after.DB.IndexOf("Extra") < 0 {
		t.Fatal("new snapshot misses the committed relation")
	}
}

// TestUpdateErrorPublishesNothing: a failed transaction leaves the
// catalog untouched.
func TestUpdateErrorPublishesNothing(t *testing.T) {
	c := censusCatalog(t, 10, 1)
	before := c.Snapshot()
	boom := errors.New("boom")
	if err := c.Update(func(tx *Tx) error {
		tx.SetDB(tx.DB().WithRelation("Junk", relation.NewSchema("X"), nil))
		tx.SetView("V", "select * from Census;")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := c.Snapshot(); got != before {
		t.Fatal("failed update must not publish a new snapshot")
	}
}

// TestUpdatePanicReleasesLocks: a panic inside the staging closure (the
// server recovers per request) must not leave the shard locks held:
// the next writer goes through.
func TestUpdatePanicReleasesLocks(t *testing.T) {
	for _, refs := range [][]string{nil, {"Census"}} {
		c := censusCatalog(t, 10, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("closure panic was swallowed")
				}
			}()
			c.UpdateRouted(refs, func(tx *Tx) error { panic("boom") })
		}()
		if err := c.Update(func(tx *Tx) error {
			tx.SetDB(tx.DB().WithRelation("After", relation.NewSchema("X"), nil))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if c.Snapshot().DB.IndexOf("After") < 0 {
			t.Fatal("commit after a panicking writer was lost")
		}
	}
}

// TestQueryNativeAt2Pow40: the factorized engine answers the census
// repair certain-answer question natively on a 2^40-world catalog.
func TestQueryNativeAt2Pow40(t *testing.T) {
	c := censusCatalog(t, 100, 40)
	snap := c.Snapshot()
	out, plan, err := Query(snap, "", repairQ(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Native {
		t.Fatalf("plan not native: %v", plan)
	}
	k := out.IndexOf(wsa.AnswerName)
	if k < 0 || out.Certain[k].Len() == 0 {
		t.Fatalf("missing certain answers in %s", out)
	}
}

// TestQueryRegistryEngineRefactors: a non-wsdexec engine runs on the
// expansion and its output comes back factored.
func TestQueryRegistryEngineRefactors(t *testing.T) {
	c := censusCatalog(t, 20, 3) // 8 worlds after repair, expandable
	snap := c.Snapshot()
	q := &wsa.Choice{Attrs: []string{"POB"}, From: &wsa.Rel{Name: "Census"}}
	native, _, err := Query(snap, "", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"reference", "translated"} {
		out, plan, err := Query(snap, engine, q, 0)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if plan.Native {
			t.Fatalf("%s plan claims native", engine)
		}
		a, err := native.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := out.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("engine %s disagrees with wsdexec\nwsdexec:\n%s\n%s:\n%s", engine, a, engine, b)
		}
		if len(out.Components) == 0 {
			t.Fatalf("engine %s output not factored: %s", engine, out)
		}
	}
}

// TestQueryBudgetErrorShape: an engine that must expand a 2^40-world
// catalog reports the shared wsd.BudgetError.
func TestQueryBudgetErrorShape(t *testing.T) {
	db, err := wsd.RepairByKey("Census", datagen.Census(100, 40, 7), []string{"SSN"})
	if err != nil {
		t.Fatal(err)
	}
	c := New(db) // 2^40 worlds in the catalog itself
	_, _, err = Query(c.Snapshot(), "reference", &wsa.Rel{Name: "Census"}, 0)
	var be *wsd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *wsd.BudgetError, got %v", err)
	}
}

// TestConcurrentReadersOneWriter hammers the catalog with concurrent
// snapshot readers during writer commits; every reader must observe a
// consistent version (table count matches the version's expectation).
// Run under -race this is the MVCC correctness test.
func TestConcurrentReadersOneWriter(t *testing.T) {
	c := censusCatalog(t, 30, 4)
	const writers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	q := repairQ()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := c.Snapshot()
				// Within one snapshot, relation count and names agree and
				// queries answer without error.
				if len(snap.DB.Names) != len(snap.DB.Certain) {
					t.Error("inconsistent snapshot")
					return
				}
				if _, _, err := Query(snap, "", q, 0); err != nil {
					t.Errorf("query on snapshot v%d: %v", snap.Version, err)
					return
				}
			}
		}()
	}
	base := c.Snapshot().Version
	for i := 0; i < writers; i++ {
		err := c.Update(func(tx *Tx) error {
			name := fmt.Sprintf("T%d", i)
			tx.SetDB(tx.DB().WithRelation(name, relation.NewSchema("X"), nil))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	final := c.Snapshot()
	if final.Version != base+writers {
		t.Fatalf("final version %d, want %d", final.Version, base+writers)
	}
	if len(final.DB.Names) != 1+writers {
		t.Fatalf("final catalog has %d relations, want %d", len(final.DB.Names), 1+writers)
	}
}

// TestPersistRoundTrip: a factored 2^40-world catalog with views
// round-trips through the .wsd JSON format byte-identically (rendered
// decomposition and re-saved bytes).
func TestPersistRoundTrip(t *testing.T) {
	c := censusCatalog(t, 50, 40)
	// Materialize the repair so the persisted catalog has components.
	if err := c.Update(func(tx *Tx) error {
		out, _, err := Query(tx.Snap(), "", &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}, 0)
		if err != nil {
			return err
		}
		tx.SetDB(out.RenameRelation(out.IndexOf(wsa.AnswerName), "Clean").Normalize())
		tx.SetView("NYC", "select Name from Clean where POB = 'NYC';")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.DB.Worlds().BitLen() != 41 { // 2^40
		t.Fatalf("worlds = %s, want 2^40", snap.DB.Worlds())
	}
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Snapshot()
	if got.Version != snap.Version {
		t.Fatalf("version %d, want %d", got.Version, snap.Version)
	}
	if got.DB.String() != snap.DB.String() {
		t.Fatalf("decomposition differs after round trip\nbefore:\n%s\nafter:\n%s", snap.DB, got.DB)
	}
	if got.Views["NYC"] != snap.Views["NYC"] {
		t.Fatalf("views differ: %v vs %v", got.Views, snap.Views)
	}
	// Certain answers agree before and after.
	a, _, err := Query(snap, "", repairQ(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Query(got, "", repairQ(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := a.IndexOf(wsa.AnswerName), b.IndexOf(wsa.AnswerName)
	if a.Certain[ka].ContentKey() != b.Certain[kb].ContentKey() {
		t.Fatal("certain answers differ after persistence round trip")
	}
	var buf2 bytes.Buffer
	if err := Save(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save → load → save is not byte-stable")
	}
}

// TestValueKindsRoundTrip covers every value kind through persistence.
func TestValueKindsRoundTrip(t *testing.T) {
	schema := relation.NewSchema("A", "B", "C", "D", "E", "F")
	r := relation.FromRows(schema, relation.Tuple{
		value.Null(), value.Bool(true), value.Int(1<<62 + 3),
		value.Float(2.5), value.Str("hello 'world'"), value.Pad(),
	})
	c := New(wsd.FromComplete([]string{"T"}, []*relation.Relation{r}))
	var buf bytes.Buffer
	if err := Save(&buf, c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Snapshot().DB.Certain[0]
	if !got.Equal(r) {
		t.Fatalf("values differ after round trip:\n%s\nvs\n%s", got, r)
	}
}

// TestIntegralFloatKeepsKind: a float with an integral value stays a
// float through the .wsd file, the checkpoint and a WAL delta: it
// renders as 1.234567e+06 after each, never as the int 1234567.
func TestIntegralFloatKeepsKind(t *testing.T) {
	schema := relation.NewSchema("A")
	r := relation.FromRows(schema, relation.Tuple{value.Float(1234567)}, relation.Tuple{value.Float(0)},
		relation.Tuple{value.Float(1e21)}, relation.Tuple{value.Int(7)})
	want := r.String()
	if !strings.Contains(want, "1.234567e+06") {
		t.Fatalf("float renders as\n%s", want)
	}
	seed := func() (*Catalog, error) {
		return New(wsd.FromComplete([]string{"T"}, []*relation.Relation{r})), nil
	}
	dir := t.TempDir()
	c, _ := seed()
	path := filepath.Join(dir, "t.wsd")
	if err := SaveFile(path, c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Snapshot().DB.Certain[0].String(); got != want {
		t.Fatalf("after SaveFile/LoadFile:\n%s\nwant\n%s", got, want)
	}

	walDir := filepath.Join(dir, "wal")
	cat, wals, err := Open(ckptPath(walDir), walDir, 1, 0, seed) // seeds and checkpoints
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Update(func(tx *Tx) error {
		tx.Log("insert into T values (42000000.0);")
		tx.InsertCertain(0, []relation.Tuple{{value.Float(42e6)}})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want = cat.Snapshot().DB.Certain[0].String()
	closeWALs(wals)
	cat2, wals2, err := Open(ckptPath(walDir), walDir, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWALs(wals2)
	if got := cat2.Snapshot().DB.Certain[0].String(); got != want || !strings.Contains(got, "4.2e+07") {
		t.Fatalf("after checkpoint and WAL recovery:\n%s\nwant\n%s", got, want)
	}
}
