package isql

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
)

// snapBytes renders a snapshot through store.Save with the version
// normalized away, so states reached by different numbers of commits
// compare on content.
func snapBytes(t *testing.T, snap *store.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	norm := &store.Snapshot{Version: 0, DB: snap.DB, Views: snap.Views}
	if err := store.Save(&buf, norm); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawSnapBytes keeps the version — for identity checks where even the
// version must be untouched (rollback, crash recovery).
func rawSnapBytes(t *testing.T, snap *store.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// forShardCounts runs fn against a one-shard and a 4-way sharded
// catalog: both go through the same store.Open, commit and recovery.
func forShardCounts(t *testing.T, fn func(t *testing.T, nshards int)) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { fn(t, n) })
	}
}

// openStoreDir creates or recovers the WAL-backed catalog rooted at
// dir: checkpoint at dir/checkpoint.wsd, one wal-<i>.log segment per
// shard.
func openStoreDir(t *testing.T, dir string, nshards int) (*store.Catalog, []*store.WAL) {
	t.Helper()
	cat, wals, err := store.Open(filepath.Join(dir, "checkpoint.wsd"), dir, nshards, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cat, wals
}

func closeWALs(wals []*store.WAL) {
	for _, w := range wals {
		w.Close()
	}
}

// ReplayRecord re-executes one committed WAL record's statements as a
// single staged transaction. Recovery never does this — it patches the
// record's page delta — but statement execution is deterministic, so
// re-executing a log's records in epoch order is the oracle the crash
// tests hold delta replay to, byte for byte through store.Save.
func ReplayRecord(cat *store.Catalog, rec store.WALRecord) error {
	sess := FromCatalog(cat)
	if err := sess.Begin(); err != nil {
		return err
	}
	for _, sql := range rec.Stmts {
		st, err := Parse(sql)
		if err != nil {
			sess.Rollback()
			return fmt.Errorf("isql: WAL statement %q does not parse: %w", sql, err)
		}
		if _, err := sess.Exec(st); err != nil {
			sess.Rollback()
			return fmt.Errorf("isql: replaying %q: %w", sql, err)
		}
	}
	return sess.Commit()
}

// statementOracle re-executes the statements logged in dir's segments on
// a fresh catalog: the state delta recovery of a directory that was
// never checkpointed past its empty seed must equal, version included.
func statementOracle(t *testing.T, dir string, nshards int) *store.Catalog {
	t.Helper()
	ref, _, orphan := checkpointOracle(t, nil, dir, nshards)
	if orphan != nil {
		t.Fatalf("oracle: e%d does not link on shard %d", orphan.Epoch, orphan.Shard)
	}
	return ref
}

// checkpointOracle reads the records logged in dir's segments — its own
// reading of the record lines, not the store's; every commit is one line
// — and re-executes their statements in epoch order on the catalog ckpt
// holds (the Save of the checkpointed snapshot; nil for the empty seed),
// skipping epochs the checkpoint already holds. It returns that catalog
// and the last epoch applied: the state delta recovery must reach. A
// torn last line is skipped, as recovery cuts it. A record staged, on
// one of its shards, on a version other than the last one applied there
// (or the checkpoint's, if later) is an orphan recovery must refuse: it
// is returned instead, shard and epoch set.
func checkpointOracle(t *testing.T, ckpt []byte, dir string, nshards int) (*store.Catalog, uint64, *store.RecoveryError) {
	t.Helper()
	type logged struct {
		Epoch uint64   `json:"v"`
		Stmts []string `json:"stmts"`
		Parts []int    `json:"parts"`
		Prev  []uint64 `json:"prev"`
	}
	txns := map[uint64]logged{}
	for si := 0; si < nshards; si++ {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%d.log", si)))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		for _, line := range lines[:len(lines)-1] { // the last piece has no newline
			var rec logged
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("segment %d: %v", si, err)
			}
			if _, dup := txns[rec.Epoch]; dup {
				t.Fatalf("segment %d: a second record of e%d", si, rec.Epoch)
			}
			if len(rec.Parts) == 0 {
				rec.Parts = []int{si}
			}
			txns[rec.Epoch] = rec
		}
	}
	var order []uint64
	for e := range txns {
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	ref := store.NewSharded(nil, nshards)
	if ckpt != nil {
		var err error
		if ref, err = store.Load(bytes.NewReader(ckpt)); err != nil {
			t.Fatal(err)
		}
		ref.Reshard(nshards)
	}
	base := ref.Snapshot().Version
	last, at := base, make([]uint64, nshards) // last epoch applied, overall and per shard
	for p := range at {
		at[p] = base
	}
	for _, e := range order {
		rec := txns[e]
		if e <= base {
			continue
		}
		for i, p := range rec.Parts {
			if max(rec.Prev[i], base) != at[p] {
				return nil, 0, &store.RecoveryError{Shard: p, Epoch: e}
			}
		}
		if err := ReplayRecord(ref, store.WALRecord{Stmts: rec.Stmts}); err != nil {
			t.Fatalf("oracle replay of e%d: %v", e, err)
		}
		for _, p := range rec.Parts {
			at[p] = e
		}
		last = e
	}
	return ref, last, nil
}

func mustScript(t *testing.T, s *Session, stmts ...string) {
	t.Helper()
	for _, sql := range stmts {
		if _, err := s.ExecString(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

// TestTxnInvisibleUntilCommit: a concurrent session over the same
// catalog keeps seeing the pre-transaction state while statements
// stage, and the whole batch at once after COMMIT.
func TestTxnInvisibleUntilCommit(t *testing.T) {
	writer := NewSession()
	mustScript(t, writer, "create table T (A);", "insert into T values (1);")
	reader := FromCatalog(writer.Catalog())
	baseVersion := writer.Catalog().Snapshot().Version

	mustScript(t, writer, "begin;", "insert into T values (2);", "insert into T values (3);",
		"create table U (B);")
	// The writer's own statements see the staging snapshot...
	if got := singleAnswer(t, writer, "select count(*) as N from T;"); !got.Contains(relation.Tuple{value.Int(3)}) {
		t.Fatalf("writer does not see its own staged inserts: %v", got)
	}
	// ...while the reader still sees the pre-transaction catalog.
	if got := singleAnswer(t, reader, "select count(*) as N from T;"); !got.Contains(relation.Tuple{value.Int(1)}) {
		t.Fatalf("reader observed an uncommitted statement: %v", got)
	}
	if writer.Catalog().Snapshot().Version != baseVersion {
		t.Fatal("staging bumped the shared catalog version")
	}

	mustScript(t, writer, "commit;")
	if got := writer.Catalog().Snapshot().Version; got != baseVersion+1 {
		t.Fatalf("commit published version %d, want %d (whole batch = one version)", got, baseVersion+1)
	}
	if got := singleAnswer(t, reader, "select count(*) as N from T;"); !got.Contains(relation.Tuple{value.Int(3)}) {
		t.Fatalf("reader misses the committed batch: %v", got)
	}
}

// TestTxnRollbackByteIdentity: BEGIN → statements → ROLLBACK leaves the
// persisted catalog byte-identical to never having run the transaction.
func TestTxnRollbackByteIdentity(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	mustScript(t, s, "create table Clean as select * from Census repair by key SSN;")
	before := rawSnapBytes(t, s.Catalog().Snapshot())

	mustScript(t, s,
		"begin;",
		"insert into Census values (999, 'Ghost', 'NYC', 'Nowhere');",
		"update Clean set POB = 'LA' where POB = 'NYC';",
		"create table Tmp (Z);",
		"create view V as select Name from Clean;",
		"drop table Tmp;",
		"rollback;")
	after := rawSnapBytes(t, s.Catalog().Snapshot())
	if !bytes.Equal(before, after) {
		t.Fatal("rollback left a trace in the persisted catalog")
	}
	// The session itself must also be back on the committed state (view
	// cache included: V must be gone).
	if _, err := s.ExecString("select Name from V;"); err == nil {
		t.Fatal("rolled-back view still resolves")
	}
}

// TestTxnCommitMatchesAutocommit: the same statements committed as one
// transaction produce the same catalog content as auto-committing each.
func TestTxnCommitMatchesAutocommit(t *testing.T) {
	stmts := []string{
		"create table Clean as select * from Census repair by key SSN;",
		"update Clean set POW = 'Remote' where POB = 'NYC';",
		"insert into Census values (42, 'New', 'SF', 'Here');",
		"create view V as select Name from Clean;",
		"delete from Census where SSN = 42;",
	}
	auto := FromDB([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	mustScript(t, auto, stmts...)

	txn := FromDB([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	mustScript(t, txn, "begin;")
	mustScript(t, txn, stmts...)
	mustScript(t, txn, "commit;")

	a := snapBytes(t, auto.Catalog().Snapshot())
	b := snapBytes(t, txn.Catalog().Snapshot())
	if !bytes.Equal(a, b) {
		t.Fatalf("transactional commit differs from auto-commit\n--- auto ---\n%s\n--- txn ---\n%s", a, b)
	}
}

// TestTxnConflictFirstCommitterWins: optimistic concurrency across two
// sessions sharing a catalog.
func TestTxnConflictFirstCommitterWins(t *testing.T) {
	a := NewSession()
	mustScript(t, a, "create table T (A);")
	b := FromCatalog(a.Catalog())

	mustScript(t, a, "begin;", "insert into T values (1);")
	mustScript(t, b, "insert into T values (2);") // auto-commit wins
	_, err := a.ExecString("commit;")
	var ce *store.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want *store.ConflictError, got %v", err)
	}
	if a.InTxn() {
		t.Fatal("failed commit left the transaction open")
	}
	got := singleAnswer(t, b, "select A from T;")
	if got.Len() != 1 || !got.Contains(relation.Tuple{value.Int(2)}) {
		t.Fatalf("catalog after conflict = %v, want only the winner's row", got)
	}
}

// TestTxnControlErrors: commit/rollback without begin, nested begin.
func TestTxnControlErrors(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecString("commit;"); err == nil {
		t.Fatal("commit without begin must fail")
	}
	if _, err := s.ExecString("rollback;"); err == nil {
		t.Fatal("rollback without begin must fail")
	}
	mustScript(t, s, "begin;")
	if _, err := s.ExecString("begin;"); err == nil {
		t.Fatal("nested begin must fail")
	}
	mustScript(t, s, "rollback;")
}

// TestPrepareExecuteParams: placeholders bind per execution; the
// prepared tree in the cache is never mutated.
func TestPrepareExecuteParams(t *testing.T) {
	s := NewSession()
	mustScript(t, s,
		"create table T (A, B);",
		"prepare ins as insert into T values ($1, $2);",
		"execute ins(1, 'x');",
		"execute ins(2, 'y');",
		"prepare sel as select A from T where B = $1;",
	)
	if got := singleAnswer(t, s, "execute sel('y');"); got.Len() != 1 || !got.Contains(relation.Tuple{value.Int(2)}) {
		t.Fatalf("execute sel('y') = %v", got)
	}
	if got := singleAnswer(t, s, "execute sel('x');"); !got.Contains(relation.Tuple{value.Int(1)}) {
		t.Fatalf("execute sel('x') = %v", got)
	}
	// Wrong arity and unknown names are real errors.
	if _, err := s.ExecString("execute sel;"); err == nil || !strings.Contains(err.Error(), "argument") {
		t.Fatalf("arity mismatch: %v", err)
	}
	if _, err := s.ExecString("execute nosuch;"); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown prepared statement: %v", err)
	}
	// Running the raw prepared statement without binding is refused.
	if _, err := s.ExecString("insert into T values ($1, $2);"); err == nil || !strings.Contains(err.Error(), "unbound parameter") {
		t.Fatalf("unbound parameter must be refused, got %v", err)
	}
	if _, err := s.ExecString("select A from T where B = $1;"); err == nil || !strings.Contains(err.Error(), "unbound parameter") {
		t.Fatalf("unbound select parameter must be refused, got %v", err)
	}
}

// TestPreparedPlanSurvivesDML: the compiled plan is keyed on the schema
// fingerprint, so data edits reuse it and DDL forces a correct
// recompile.
func TestPreparedPlanSurvivesDML(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	mustScript(t, s,
		"create table Clean as select * from Census repair by key SSN;",
		"prepare q as select certain Name from Clean;",
	)
	first := singleAnswer(t, s, "execute q;")
	// DML moves the version but not the schema; the memoized plan must
	// still evaluate against the NEW snapshot.
	mustScript(t, s, "delete from Clean;")
	if got := singleAnswer(t, s, "execute q;"); got.Len() != 0 {
		t.Fatalf("after delete, execute q = %v, want empty (stale snapshot?)", got)
	}
	// DDL (a new view) changes the fingerprint: recompile, still correct.
	mustScript(t, s, "create view W as select Name from Census;")
	if got := singleAnswer(t, s, "execute q;"); got.Len() != 0 {
		t.Fatalf("after DDL, execute q = %v", got)
	}
	_ = first
}

// TestPreparedSharedAcrossSessions: a shared PlanCache makes a
// statement prepared on one session executable on another — the isqld
// serving model.
func TestPreparedSharedAcrossSessions(t *testing.T) {
	a := FromDB([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	cache := NewPlanCache()
	a.SetPlanCache(cache)
	mustScript(t, a, "prepare q as select possible Name from Census;")

	b := FromCatalog(a.Catalog())
	b.SetPlanCache(cache)
	if got := singleAnswer(t, b, "execute q;"); got.Len() == 0 {
		t.Fatal("shared prepared statement returned nothing")
	}
	// Concurrent executes over the shared cache (plan memoization is
	// racy territory; run under -race in CI).
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := FromCatalog(a.Catalog())
			sess.SetPlanCache(cache)
			for i := 0; i < 5; i++ {
				if _, err := sess.ExecString("execute q;"); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("executor %d: %v", g, err)
		}
	}
}

// TestPrepareRoundTripString: prepare/execute statements re-parse from
// their rendered text (the script-echo invariant every statement obeys).
func TestPrepareRoundTripString(t *testing.T) {
	for _, sql := range []string{
		"prepare q as select A from T where B = $1",
		"prepare ins as insert into T values ($1, 'x', $2)",
		"execute q('a')",
		"execute ins(1, 2.5)",
		"begin",
		"commit",
		"rollback",
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		st2, err := Parse(st.String())
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", st.String(), sql, err)
		}
		if st.String() != st2.String() {
			t.Fatalf("%q does not round-trip: %q vs %q", sql, st.String(), st2.String())
		}
	}
}

// TestCrashRecoveryByteIdentical is the WAL acceptance test: run a
// workload over a WAL-backed catalog — auto-commits, a committed
// multi-statement transaction, a transaction rebased over a commit on
// another relation, and an uncommitted one in flight — kill the process
// (drop the WAL without checkpointing), reopen, and require the
// recovered catalog byte-identical (version included) to the last
// committed snapshot and to statement re-execution of the log.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openStoreDir(t, dir, n)
		s := FromCatalog(cat)
		mustScript(t, s,
			"create table Census (SSN, Name, POB);",
			"create table Log (A);",
			"insert into Census values (1, 'Smith', 'NYC'), (1, 'Smith', 'LA'), (2, 'Brown', 'SF');",
			"begin;",
			"create table Clean as select * from Census repair by key SSN;",
			"create view NYC as select Name from Clean where POB = 'NYC';",
			"commit;",
			"update Census set POB = 'CHI' where SSN = 2;",
			"begin;",
			"insert into Log values (1), (2);",
		)
		// Another session commits on Census between the transaction's
		// Begin and Commit: the transaction commits anyway, rebased.
		mustScript(t, FromCatalog(cat), "insert into Census values (3, 'Green', 'LA');")
		mustScript(t, s, "commit;")
		// A no-op insert (the row is already there) logs an empty delta.
		mustScript(t, s, "insert into Log values (2);")
		want := rawSnapBytes(t, cat.Snapshot())

		// An in-flight transaction at crash time: staged, never committed.
		mustScript(t, s, "begin;", "delete from Census;", "drop table Clean;")
		closeWALs(wals) // crash: no checkpoint, open transaction dropped

		cat2, wals2 := openStoreDir(t, dir, n)
		defer closeWALs(wals2)
		got := rawSnapBytes(t, cat2.Snapshot())
		if !bytes.Equal(got, want) {
			t.Fatalf("recovered catalog differs from last committed snapshot\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
		if oracle := rawSnapBytes(t, statementOracle(t, dir, n).Snapshot()); !bytes.Equal(got, oracle) {
			t.Fatalf("delta recovery differs from statement re-execution of the log\n--- got ---\n%s\n--- oracle ---\n%s", got, oracle)
		}
		// And the recovered catalog serves: the view works, worlds intact.
		s2 := FromCatalog(cat2)
		singleAnswer(t, s2, "select certain Name from NYC;")
		if s2.Worlds().Int64() != 2 {
			t.Fatalf("recovered worlds = %s, want 2", s2.Worlds())
		}
	})
}

// TestCrashRecoveryAfterCheckpoint: checkpoint mid-workload, more
// commits, crash — recovery = checkpoint + replayed tail.
func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openStoreDir(t, dir, n)
		s := FromCatalog(cat)
		mustScript(t, s,
			"create table T (A);",
			"insert into T values (1);",
		)
		if err := cat.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mustScript(t, s,
			"insert into T values (2);",
			"begin;", "insert into T values (3);", "update T set A = 30 where A = 3;", "commit;",
		)
		want := rawSnapBytes(t, cat.Snapshot())
		closeWALs(wals)

		cat2, wals2 := openStoreDir(t, dir, n)
		defer closeWALs(wals2)
		if got := rawSnapBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("checkpoint + tail recovery differs from last committed state")
		}
	})
}

// TestRecoveryPatchesNotReexecutes: recovery replays a logged analytic
// CTAS — the §2 what-if analysis: choice-of worlds, a not-in subquery,
// grouped aggregation — by patching its delta into the catalog, never
// by evaluating it again: replaying the log of a drop and a re-create
// runs no rewrite search and allocates under a quarter of what
// executing them does.
func TestRecoveryPatchesNotReexecutes(t *testing.T) {
	const rounds = 4
	const whatIf = `create table YearQuantity as
		select A.Year, sum(A.Price) as Revenue
		from (select * from Lineitem choice of Year) as A
		where Quantity not in (select * from Lineitem choice of Quantity)
		group by A.Year;`
	dir := t.TempDir()
	closeAll := func(cat *store.Catalog, wals []*store.WAL) {
		closeWALs(wals)
		cat.Pager().Close()
	}
	cat, wals := openStoreDir(t, dir, 1)
	s := FromCatalog(cat)
	var ins strings.Builder
	ins.WriteString("insert into Lineitem values")
	sep := " "
	datagen.Lineitem(20, 3, 4, 42).Each(func(tp relation.Tuple) {
		fmt.Fprintf(&ins, "%s('%s', %d, %d, %d)", sep, tp[0].AsString(), tp[1].AsInt(), tp[2].AsInt(), tp[3].AsInt())
		sep = ", "
	})
	mustScript(t, s, "create table Lineitem (Product, Quantity, Price, Year);", ins.String()+";", whatIf)
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeAll(cat, wals)
	base := testing.AllocsPerRun(3, func() { closeAll(openStoreDir(t, dir, 1)) }) // an empty tail

	cat, wals = openStoreDir(t, dir, 1)
	s = FromCatalog(cat)
	exec := testing.AllocsPerRun(rounds, func() { mustScript(t, s, "drop table YearQuantity;", whatIf) })
	want := cat.Snapshot().Version
	closeAll(cat, wals) // the tail holds 1+rounds drop/create pairs

	before := rewrite.SearchExpanded.Value()
	var got uint64
	replay := testing.AllocsPerRun(3, func() {
		c, w := openStoreDir(t, dir, 1)
		got = c.Snapshot().Version
		closeAll(c, w)
	})
	if got != want {
		t.Fatalf("recovery reached v%d, want v%d", got, want)
	}
	if expanded := rewrite.SearchExpanded.Value() - before; expanded != 0 {
		t.Errorf("recovery expanded %d rewrite candidates: it evaluated a logged statement", expanded)
	}
	perPair := (replay - base) / (rounds + 1)
	t.Logf("allocations: executing a drop + what-if CTAS %.0f, replaying its records %.0f", exec, perPair)
	if 4*perPair > exec {
		t.Errorf("replaying a drop + what-if CTAS allocates %.0f, over a quarter of executing it (%.0f)", perPair, exec)
	}
}

// TestWALLiteralRoundTrip pins the literal-rendering invariant the
// logged statement texts must keep to stay faithful provenance: floats
// that would render in scientific notation or look integral, strings
// with embedded quotes, negatives, bools and nulls must all survive
// commit → log → crash, both ways: recovery's delta replay and
// re-parsing and re-executing the logged texts reach the pre-crash
// bytes.
func TestWALLiteralRoundTrip(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openStoreDir(t, dir, n)
		s := FromCatalog(cat)
		mustScript(t, s,
			"create table T (A, B);",
			"insert into T values (10000000.5, 'it''s quoted');",
			"insert into T values (-0.00000125, 'plain');",
			"insert into T values (1234567.0, 'integral float');",
			"insert into T values (true, null);",
			"update T set B = 'x''y' where A = -0.00000125;",
		)
		want := rawSnapBytes(t, cat.Snapshot())
		closeWALs(wals)
		cat2, wals2 := openStoreDir(t, dir, n)
		defer closeWALs(wals2)
		if got := rawSnapBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("literal round trip through the WAL diverged\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
		if oracle := rawSnapBytes(t, statementOracle(t, dir, n).Snapshot()); !bytes.Equal(oracle, want) {
			t.Fatalf("re-executing the logged texts diverged\n--- got ---\n%s\n--- want ---\n%s", oracle, want)
		}
	})
}

// TestWALLargeRecordRecovered: a committed record far larger than any
// scanner buffer must replay, not be mistaken for a torn tail.
func TestWALLargeRecordRecovered(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		cat, wals := openStoreDir(t, dir, n)
		s := FromCatalog(cat)
		mustScript(t, s, "create table T (A, B);")
		big := strings.Repeat("x", 3<<20) // one 3 MiB statement text
		mustScript(t, s, "begin;", fmt.Sprintf("insert into T values (1, '%s');", big), "commit;")
		want := rawSnapBytes(t, cat.Snapshot())
		closeWALs(wals)
		cat2, wals2 := openStoreDir(t, dir, n)
		defer closeWALs(wals2)
		if got := rawSnapBytes(t, cat2.Snapshot()); !bytes.Equal(got, want) {
			t.Fatal("multi-megabyte WAL record was not recovered intact")
		}
	})
}

// TestInsertCostIndependentOfTableSize: a single-row insert into a
// certain table allocates what it adds, not what the table holds. The
// commit derives the new version of the table by Clone + Insert, and
// Clone shares the rows instead of copying them, so 16k rows cost what
// 1k rows do.
func TestInsertCostIndependentOfTableSize(t *testing.T) {
	insert := func(rows int) float64 {
		log := relation.NewSized(relation.NewSchema("K", "V"), rows)
		for i := 0; i < rows; i++ {
			log.Insert(relation.Tuple{value.Int(int64(i)), value.Int(int64(i % 7))})
		}
		s := FromCatalog(store.New(datagen.CensusRepairDecomp(1000, 40, 1).WithRelation("Log", log.Schema(), log)))
		next := rows
		return testing.AllocsPerRun(50, func() {
			next++
			mustExec(t, s, fmt.Sprintf("insert into Log values (%d, 1);", next))
		})
	}
	small, large := insert(1000), insert(16000)
	t.Logf("allocations per single-row insert: %.0f into 1k rows, %.0f into 16k rows", small, large)
	if large > 1.2*small {
		t.Errorf("a single-row insert allocates %.0f into 16k rows, %.0f into 1k: it copies the table", large, small)
	}
}
