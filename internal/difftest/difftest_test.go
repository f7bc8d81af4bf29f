package difftest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/isql"
	"worldsetdb/internal/randquery"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

var (
	names   = []string{"R", "S"}
	schemas = []relation.Schema{relation.NewSchema("A", "B"), relation.NewSchema("C")}
)

// TestMain forces the partitioned parallel code paths in the factorized
// engine and the inline decoder regardless of input size and core
// count, so the differential runs — especially under -race — exercise
// the worker fan-out and the deterministic merges. It also installs the
// edit-delta audit: every routed commit any sweep makes that logs a
// relation from its recorded insert edit is checked against the patch
// diffing the two relation versions computes (see expectEditAudits).
func TestMain(m *testing.M) {
	relation.ForceParts = 3
	store.EditDeltaAudit = edits.record
	os.Exit(m.Run())
}

// editAudit counts the edit-carried patches store.EditDeltaAudit saw
// and keeps the first that differed from the diff.
type editAudit struct {
	mu       sync.Mutex
	n        int
	mismatch error
}

var edits editAudit

func (a *editAudit) record(rel string, mismatch error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	if mismatch != nil && a.mismatch == nil {
		a.mismatch = fmt.Errorf("relation %s: %w", rel, mismatch)
	}
}

// expectEditAudits returns a check to defer in a sweep: it fails t if
// any edit-carried patch logged since differed from the diffed one, or
// if the sweep logged none — then it never exercised the edit path.
func expectEditAudits(t *testing.T) func() {
	edits.mu.Lock()
	before := edits.n
	edits.mu.Unlock()
	return func() {
		edits.mu.Lock()
		defer edits.mu.Unlock()
		if edits.mismatch != nil {
			t.Fatalf("edit-carried WAL patch differs from the diffed one: %v", edits.mismatch)
		}
		if edits.n == before && !t.Failed() {
			t.Fatal("no routed commit of the sweep logged a patch from its edit")
		}
	}
}

// TestPaperQueriesAgree pins the three evaluators to one another on the
// paper's running trip-planning pipeline, independent of randomness.
func TestPaperQueriesAgree(t *testing.T) {
	ws := worldset.FromDB([]string{"HFlights"}, []*relation.Relation{datagen.PaperFlights()})
	queries := []wsa.Expr{
		&wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "HFlights"}},
		wsa.NewCert(&wsa.Project{Columns: []string{"Arr"},
			From: &wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "HFlights"}}}),
		wsa.NewPoss(&wsa.Project{Columns: []string{"Arr"},
			From: &wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "HFlights"}}}),
		wsa.NewPossGroup([]string{"Arr"}, []string{"Dep", "Arr"},
			&wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "HFlights"}}),
	}
	for _, q := range queries {
		if err := Check(q, ws); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRandomizedAgreement is the main differential sweep: hundreds of
// randomized well-typed queries over randomized multi-world inputs, all
// three evaluators required to agree world-set-for-world-set.
func TestRandomizedAgreement(t *testing.T) {
	queries, inputs := 250, 2
	if testing.Short() {
		queries = 40
	}
	rng := rand.New(rand.NewSource(20070612))
	gen := randquery.NewQueryGen(rng, names, schemas)
	checked := 0
	for qi := 0; qi < queries; qi++ {
		q := gen.Query(1 + rng.Intn(3))
		for wi := 0; wi < inputs; wi++ {
			ws := datagen.RandomWorldSet(rng, names, schemas, 3, 3, 3)
			if err := Check(q, ws); err != nil {
				t.Fatalf("query %d input %d: %v", qi, wi, err)
			}
			checked++
		}
	}
	if want := queries * inputs; checked != want {
		t.Fatalf("checked %d query/input pairs, want %d", checked, want)
	}
	if !testing.Short() && checked < 500 {
		t.Fatalf("differential sweep too small: %d < 500", checked)
	}
}

// TestParallelMatchesSequential pins the determinism guarantee of the
// parallel inline decoder: with partitioning forced on (TestMain) and
// off, the translated evaluator — whose answer inline.Decode builds —
// must produce byte-identical rendered output for the same query, not
// merely equal world-sets.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	gen := randquery.NewQueryGen(rng, names, schemas)
	for qi := 0; qi < 40; qi++ {
		q := gen.Query(1 + rng.Intn(3))
		ws := datagen.RandomWorldSet(rng, names, schemas, 3, 4, 3)
		par := mustTranslated(t, q, ws)
		relation.ForceParts = 1 // sequential
		seq := mustTranslated(t, q, ws)
		relation.ForceParts = 3
		if par != seq {
			t.Fatalf("parallel output differs from sequential for %s\nparallel:\n%s\nsequential:\n%s", q, par, seq)
		}
	}
}

func mustTranslated(t *testing.T, q wsa.Expr, ws *worldset.WorldSet) string {
	t.Helper()
	tr := Run(q, ws)[1]
	if tr.Err != nil {
		t.Fatalf("translated eval failed for %s: %v", q, tr.Err)
	}
	return tr.Out.String()
}

// TestRandomizedDecompAgreement is the decomposition-level differential
// sweep backing the factorized engine: hundreds of randomized
// well-typed queries over randomized expandable decompositions
// (components spanning several relations, empty alternatives, certain
// tuples), wsdexec evaluated natively on the decomposition and required
// to render byte-identically to the reference run on the enumeration.
func TestRandomizedDecompAgreement(t *testing.T) {
	queries, inputs := 250, 2
	if testing.Short() {
		queries = 40
	}
	rng := rand.New(rand.NewSource(20070613))
	gen := randquery.NewQueryGen(rng, names, schemas)
	checked, spliced := 0, 0
	for qi := 0; qi < queries; qi++ {
		q := gen.Query(1 + rng.Intn(3))
		for wi := 0; wi < inputs; wi++ {
			db := datagen.RandomDecompDB(rng, names, schemas, 3, 3, 2, 3, 2)
			plan, err := CheckDecomp(q, db)
			if err != nil {
				t.Fatalf("query %d input %d: %v", qi, wi, err)
			}
			if splicedFallback(plan, q, db) {
				spliced++
			}
			checked++
		}
	}
	if !testing.Short() && spliced == 0 {
		t.Fatal("no fallback of the sweep left a component outside its region: the splice is not under the byte-identity bar")
	}
	if want := queries * inputs; checked != want {
		t.Fatalf("checked %d query/input pairs, want %d", checked, want)
	}
	if !testing.Short() && checked < 500 {
		t.Fatalf("decomposition differential sweep too small: %d < 500", checked)
	}
}

// TestRandomizedStoreAgreement is the store-path differential sweep:
// the same scale as the decomposition sweep (500+ query/input pairs),
// but through store.Query — the exact path I-SQL session selects take —
// so the catalog snapshot plumbing and the wsd.Refactor re-factorization
// of every fallback output are held to the byte-identity bar too.
func TestRandomizedStoreAgreement(t *testing.T) {
	queries, inputs := 250, 2
	if testing.Short() {
		queries = 40
	}
	rng := rand.New(rand.NewSource(20070614))
	gen := randquery.NewQueryGen(rng, names, schemas)
	checked, spliced := 0, 0
	for qi := 0; qi < queries; qi++ {
		q := gen.Query(1 + rng.Intn(3))
		for wi := 0; wi < inputs; wi++ {
			db := datagen.RandomDecompDB(rng, names, schemas, 3, 3, 2, 3, 2)
			plan, err := CheckStore(q, db)
			if err != nil {
				t.Fatalf("query %d input %d: %v", qi, wi, err)
			}
			if splicedFallback(plan, q, db) {
				spliced++
			}
			checked++
		}
	}
	if !testing.Short() && spliced == 0 {
		t.Fatal("no fallback of the sweep left a component outside its region: the splice is not under the byte-identity bar")
	}
	if want := queries * inputs; checked != want {
		t.Fatalf("checked %d query/input pairs, want %d", checked, want)
	}
	if !testing.Short() && checked < 500 {
		t.Fatalf("store differential sweep too small: %d < 500", checked)
	}
}

// splicedFallback reports whether the plan is an engine fallback whose
// region — the components q's relations depend on — is a strict subset
// of db's components, i.e. one that spliced untouched components back.
func splicedFallback(plan *wsdexec.Plan, q wsa.Expr, db *wsd.DecompDB) bool {
	return !plan.Native && len(wsd.RegionOf(db, wsa.Relations(q), false).Deps) < len(db.Components)
}

// TestWSDXParallelMatchesSequential pins the determinism guarantee of
// the factorized engine's component-parallel fan-out: with partitioning
// forced on (TestMain) and off, evaluating the same query on the same
// decomposition must produce byte-identical rendered output.
func TestWSDXParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	gen := randquery.NewQueryGen(rng, names, schemas)
	for qi := 0; qi < 40; qi++ {
		q := gen.Query(1 + rng.Intn(3))
		db := datagen.RandomDecompDB(rng, names, schemas, 3, 4, 2, 3, 2)
		par := mustWSDX(t, q, db)
		relation.ForceParts = 1 // sequential
		seq := mustWSDX(t, q, db)
		relation.ForceParts = 3
		if par != seq {
			t.Fatalf("wsdexec parallel output differs from sequential for %s\nparallel:\n%s\nsequential:\n%s", q, par, seq)
		}
	}
}

func mustWSDX(t *testing.T, q wsa.Expr, db *wsd.DecompDB) string {
	t.Helper()
	out, _, err := wsdexec.Eval(q, db)
	if err != nil {
		t.Fatalf("wsdexec eval failed for %s: %v", q, err)
	}
	ws, err := out.Expand(0)
	if err != nil {
		t.Fatalf("expanding wsdexec result of %s: %v", q, err)
	}
	return ws.String()
}

// seedRS builds the two-table seed database of the SQL-level sweep:
// R(A, B) and S(C) with small integer domains, so repair-by-key group
// sizes — and hence world counts — stay enumerable for the legacy
// comparison session.
func seedRS(rng *rand.Rand) ([]string, []*relation.Relation, []relation.Schema) {
	schemas := []relation.Schema{relation.NewSchema("A", "B"), relation.NewSchema("C")}
	r := relation.New(schemas[0])
	for i := 0; i < 5+rng.Intn(5); i++ {
		r.InsertValues(value.Int(int64(rng.Intn(6))), value.Int(int64(rng.Intn(8))))
	}
	s := relation.New(schemas[1])
	for i := 0; i < 3+rng.Intn(4); i++ {
		s.InsertValues(value.Int(int64(rng.Intn(8))))
	}
	return []string{"R", "S"}, []*relation.Relation{r, s}, schemas
}

// TestRandomizedSQLAgreement is the statement-level differential sweep:
// 500+ generated I-SQL statements — fragment selects, joins,
// group-worlds-by, aggregates (count/sum/min/max, group by),
// (correlated) subqueries, and interleaved INSERTs and DELETE/UPDATE
// with tuple-local and subquery predicates, over a catalog where a
// created table's components also contribute to a projection of it, so
// a bounded statement naming one of the two enumerates both — through
// the native factorized path, the three wsa engines and the legacy engine (the bounded arm
// over the whole world-set), all required to agree on answers, affected
// counts and the state after every statement. The native session's
// accounting must additionally show zero enumeration fallbacks:
// fragment statements merge at worst, and the out-of-fragment shapes —
// DML included — run bounded, never expanding the catalog.
func TestRandomizedSQLAgreement(t *testing.T) {
	defer expectEditAudits(t)()
	scripts, perScript := 56, 8
	if testing.Short() {
		scripts = 8
	}
	rng := rand.New(rand.NewSource(20070616))
	stats := isql.NewExecStats()
	total, subqueries, subqueryDML := 0, 0, 0
	for i := 0; i < scripts; i++ {
		names, rels, schemas := seedRS(rng)
		gen := randquery.NewStmtGen(rng, names, schemas)
		script := []string{gen.CreateUncertain()}
		if rng.Intn(2) == 0 {
			script = append(script, gen.CreateUncertain())
		}
		script = append(script, gen.CreateDerived())
		for j := 0; j < perScript; j++ {
			script = append(script, gen.Select())
			switch j % 3 {
			case 0:
				script = append(script, gen.Mutate())
			case 1:
				script = append(script, gen.Insert())
			}
		}
		total += len(script)
		for _, sql := range script {
			if strings.Contains(sql, "(select") {
				subqueries++
				if !strings.HasPrefix(sql, "select") {
					subqueryDML++
				}
			}
		}
		if err := CheckSQLScript(names, rels, script, stats); err != nil {
			t.Fatalf("script %d: %v\nscript:\n%s", i, err, strings.Join(script, "\n"))
		}
	}
	if !testing.Short() && total < 500 {
		t.Fatalf("SQL differential sweep too small: %d < 500", total)
	}
	snap := stats.Snapshot()
	if snap.Fallbacks != 0 {
		t.Fatalf("native path hit %d enumeration fallbacks (ops %v)", snap.Fallbacks, snap.FallbackOps)
	}
	if snap.LegacyOps["aggregation"] == 0 || subqueryDML == 0 {
		t.Fatalf("sweep did not exercise the out-of-fragment shapes (%d subquery DML): %+v", subqueryDML, snap)
	}
	// Every statement holding a subquery — DELETE and UPDATE included —
	// ran bounded and was accounted exactly once.
	if got := snap.LegacyOps["expression subquery"]; got != uint64(subqueries) {
		t.Fatalf("%d subquery statements (%d of them DML) but %d accounted as bounded: %+v", subqueries, subqueryDML, got, snap)
	}
	if snap.Merged == 0 {
		t.Fatalf("sweep did not exercise component merging: %+v", snap)
	}
}

// TestEntangledSQLAgreement: choice-of over an uncertain answer — a
// select and a create-table-as — beside spectator components (V's) it
// never reads. The native session falls back over U's region and
// splices V's component back, the three wsa engines do the same by
// override, and the legacy session expands everything; all five must
// agree on every answer and on the state after every statement.
func TestEntangledSQLAgreement(t *testing.T) {
	r := relation.New(schemas[0])
	for _, ab := range [][2]int64{{1, 10}, {2, 20}, {2, 21}} {
		r.InsertValues(value.Int(ab[0]), value.Int(ab[1]))
	}
	s := relation.New(schemas[1])
	for _, c := range []int64{1, 2, 3} {
		s.InsertValues(value.Int(c))
	}
	script := []string{
		"create table U as select * from S choice of C;",
		"create table V as select * from R choice of A;",
		"select certain C from U choice of C;",
		"create table W as select * from U choice of C;",
		"select possible C from W;",
		"select possible A, B from V;",
	}
	stats := isql.NewExecStats()
	if err := CheckSQLScript(names, []*relation.Relation{r, s}, script, stats); err != nil {
		t.Fatal(err)
	}
	if snap := stats.Snapshot(); snap.Fallbacks != 2 || snap.FallbackOps["choice-of over an uncertain answer"] != 2 {
		t.Fatalf("the entangled select and CTAS should both fall back on the native session: %+v", snap)
	}
}

// randTxnStmts generates one chunk of valid I-SQL statements over the
// seed table R(A, B): inserts, tuple-local updates/deletes, and
// world-creating CTAS. Tables created in a chunk are named uniquely per
// chunk and only referenced within it, so a rolled-back chunk leaves
// nothing later statements depend on.
func randTxnStmts(rng *rand.Rand, chunk int) []string {
	n := 1 + rng.Intn(4)
	out := make([]string, 0, n)
	created := ""
	for i := 0; i < n; i++ {
		switch k := rng.Intn(6); {
		case k == 0:
			out = append(out, fmt.Sprintf("insert into R values (%d, %d);", rng.Intn(8), rng.Intn(50)))
		case k == 1:
			out = append(out, fmt.Sprintf("update R set B = B + %d where A = %d;", 1+rng.Intn(9), rng.Intn(8)))
		case k == 2:
			out = append(out, fmt.Sprintf("delete from R where A = %d and B < %d;", rng.Intn(8), rng.Intn(20)))
		case k == 3 && created == "":
			created = fmt.Sprintf("C%d", chunk)
			op := "choice of A"
			if rng.Intn(2) == 0 {
				op = "repair by key A"
			}
			out = append(out, fmt.Sprintf("create table %s as select * from R %s;", created, op))
		case k == 4 && created != "":
			out = append(out, fmt.Sprintf("select possible B from %s;", created))
		default:
			out = append(out, "select certain A from R;")
		}
	}
	return out
}

// seedR builds the seed database for the transactional sweeps.
func seedR(rng *rand.Rand) ([]string, []*relation.Relation) {
	r := relation.New(relation.NewSchema("A", "B"))
	for i := 0; i < 6+rng.Intn(6); i++ {
		r.InsertValues(value.Int(int64(rng.Intn(6))), value.Int(int64(rng.Intn(40))))
	}
	return []string{"R"}, []*relation.Relation{r}
}

// TestRandomizedTxnLaws sweeps CheckTxn over randomized scripts:
// rollback must be byte-invisible and commit must match auto-commit,
// with identical answers along the way.
func TestRandomizedTxnLaws(t *testing.T) {
	defer expectEditAudits(t)()
	iters := 60
	if testing.Short() {
		iters = 12
	}
	rng := rand.New(rand.NewSource(20260726))
	for i := 0; i < iters; i++ {
		names, rels := seedR(rng)
		stmts := randTxnStmts(rng, i)
		if err := CheckTxn(names, rels, stmts); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// TestTxnLawsBoundedDML holds the transaction laws over a script whose
// DELETE and UPDATE carry subqueries — the bounded arm stages its
// re-factorized, spliced catalog on the transaction like any other
// write: ROLLBACK is byte-invisible, COMMIT equals auto-commit, and a
// conflicted COMMIT retried after an interloper equals the serial
// schedule.
func TestTxnLawsBoundedDML(t *testing.T) {
	names, rels := seedR(rand.New(rand.NewSource(14)))
	stmts := []string{
		"create table C as select * from R repair by key A;",
		"delete from R where A in (select A from C where B < 20);",
		"select possible A from R;",
		"update C set B = B + 1 where exists (select * from R Y where Y.A = A);",
		"select count(*) as N from C;",
	}
	if err := CheckTxn(names, rels, stmts); err != nil {
		t.Fatal(err)
	}
	if err := CheckTxnRetry(names, rels, stmts, "insert into R values (97, 970);"); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedInterleavedTxn runs one long session of randomly
// interleaved BEGIN/COMMIT and BEGIN/ROLLBACK chunks against a shared
// catalog and requires the final state byte-identical to a reference
// session that ran only the committed chunks, auto-commit.
func TestRandomizedInterleavedTxn(t *testing.T) {
	defer expectEditAudits(t)()
	iters := 15
	if testing.Short() {
		iters = 4
	}
	rng := rand.New(rand.NewSource(7262026))
	for i := 0; i < iters; i++ {
		names, rels := seedR(rng)
		live := isql.FromDB(names, rels)
		ref := isql.FromDB(names, rels)
		chunks := 3 + rng.Intn(4)
		for c := 0; c < chunks; c++ {
			stmts := randTxnStmts(rng, c)
			commit := rng.Intn(2) == 0
			if _, err := live.ExecString("begin;"); err != nil {
				t.Fatal(err)
			}
			for _, sql := range stmts {
				if _, err := live.ExecString(sql); err != nil {
					t.Fatalf("iteration %d chunk %d %q: %v", i, c, sql, err)
				}
			}
			end := "rollback;"
			if commit {
				end = "commit;"
			}
			if _, err := live.ExecString(end); err != nil {
				t.Fatal(err)
			}
			if commit {
				for _, sql := range stmts {
					if _, err := ref.ExecString(sql); err != nil {
						t.Fatalf("reference %q: %v", sql, err)
					}
				}
			}
		}
		a, err := normCatalogBytes(live.Catalog().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		b, err := normCatalogBytes(ref.Catalog().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("iteration %d: interleaved transactions diverge from committed-only replay\nlive:\n%s\nref:\n%s", i, a, b)
		}
	}
}

// TestRandomizedTxnRetrySweep sweeps CheckTxnRetry over randomized
// scripts: a transaction losing first-committer-wins to an interloper
// and automatically re-run must equal the serial schedule (interloper
// first, then the transaction) byte for byte. Every script without a
// create-table-as — one whose statements all route — also runs
// CheckTxnDisjoint against an interloper on a table D it never touches:
// at one shard and at four, it must commit first time, rebased, with no
// conflict counted, and equal the same serial schedule.
func TestRandomizedTxnRetrySweep(t *testing.T) {
	defer expectEditAudits(t)()
	iters := 40
	if testing.Short() {
		iters = 8
	}
	d := relation.New(relation.NewSchema("E"))
	for v := int64(0); v < 6; v++ {
		d.InsertValues(value.Int(v))
	}
	rng := rand.New(rand.NewSource(5202672))
	disjoint := 0
	for i := 0; i < iters; i++ {
		names, rels := seedR(rng)
		stmts := randTxnStmts(rng, i)
		interloper := fmt.Sprintf("insert into R values (%d, %d);", 90+rng.Intn(8), 900+rng.Intn(90))
		if rng.Intn(3) == 0 {
			interloper = fmt.Sprintf("delete from R where B < %d;", rng.Intn(15))
		}
		if err := CheckTxnRetry(names, rels, stmts, interloper); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if strings.Contains(strings.Join(stmts, " "), "create table") {
			continue
		}
		other := fmt.Sprintf("insert into D values (%d);", 10+i)
		if i%2 == 1 {
			other = fmt.Sprintf("delete from D where E < %d;", i%6)
		}
		if err := CheckTxnDisjoint(append(names, "D"), append(rels, d), stmts, other); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		disjoint++
	}
	if disjoint == 0 {
		t.Fatal("no script of the sweep ran against a disjoint interloper")
	}
}

// conflictOn runs the interleaving "txn stmts, then other's stmts
// auto-committed, then COMMIT" at one shard and at four over the
// decomposition seed, with conflict retry off, and returns the catalog
// and the commit's error.
func conflictOn(t *testing.T, seed func() *wsd.DecompDB, shards int, txn, other []string) (*store.Catalog, error) {
	t.Helper()
	cat := store.NewSharded(seed(), shards)
	a, b := isql.FromCatalog(cat), isql.FromCatalog(cat)
	for _, sql := range append([]string{"begin;"}, txn...) {
		if _, err := a.ExecString(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, sql := range other {
		if _, err := b.ExecString(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	_, err := a.ExecString("commit;")
	return cat, err
}

// TestTrueConflictsRefused: relation-level validation lets disjoint
// writers through, and still refuses every interleaving that is not
// serializable — at one shard and at four, with the ConflictError
// naming what moved and the conflict counted on its home shard.
func TestTrueConflictsRefused(t *testing.T) {
	rs := func() *wsd.DecompDB {
		r := relation.FromRows(relation.NewSchema("A"), relation.Tuple{value.Int(1)})
		s := relation.FromRows(relation.NewSchema("C"), relation.Tuple{value.Int(2)})
		return wsd.FromComplete([]string{"R", "S"}, []*relation.Relation{r, s})
	}
	// coupled adds a component whose alternatives contribute to both R
	// and S: writing either relation can rewrite it.
	coupled := func() *wsd.DecompDB {
		db := rs()
		alt := func(a, c int64) wsd.DBAlternative {
			return wsd.DBAlternative{Rels: map[int]*relation.Relation{
				0: relation.FromRows(db.Schemas[0], relation.Tuple{value.Int(a)}),
				1: relation.FromRows(db.Schemas[1], relation.Tuple{value.Int(c)}),
			}}
		}
		db.Components = []wsd.DBComponent{{Alternatives: []wsd.DBAlternative{alt(10, 20), alt(11, 21)}}}
		return db
	}
	cases := []struct {
		name      string
		seed      func() *wsd.DecompDB
		txn       []string
		other     []string
		relation  string // "": the schema moved
		component bool   // the moved thing is a component of relation
	}{
		{"write/write one relation", rs,
			[]string{"insert into R values (5);"}, []string{"insert into R values (6);"}, "R", false},
		{"read then overwritten", rs,
			[]string{"select C from S;", "insert into R values (5);"}, []string{"delete from S;"}, "S", false},
		{"component coupling R and S", coupled,
			[]string{"insert into R values (5);"}, []string{"insert into S values (7);"}, "S", false},
		{"coupling component rewritten", coupled,
			[]string{"delete from R where A = 10;"}, []string{"delete from S where C = 21;"}, "R", true},
		{"create table since begin", rs,
			[]string{"insert into R values (5);"}, []string{"create table X (B);"}, "", false},
		{"drop table since begin", rs,
			[]string{"insert into R values (5);"}, []string{"drop table S;"}, "", false},
	}
	for _, shards := range []int{1, 4} {
		for _, tc := range cases {
			cat, err := conflictOn(t, tc.seed, shards, tc.txn, tc.other)
			var ce *store.ConflictError
			if !errors.As(err, &ce) {
				t.Fatalf("%s (%d shards): want *store.ConflictError, got %v", tc.name, shards, err)
			}
			if ce.Relation != tc.relation || (ce.Component != 0) != tc.component {
				t.Fatalf("%s (%d shards): conflict names relation %q component %d, want relation %q (component: %v)",
					tc.name, shards, ce.Relation, ce.Component, tc.relation, tc.component)
			}
			home := 0
			if tc.relation != "" {
				home = cat.ShardOf(tc.relation)
			}
			if got := cat.ShardStats()[home].Conflicts; got != 1 {
				t.Fatalf("%s (%d shards): shard %d counted %d conflicts, want 1", tc.name, shards, home, got)
			}
		}

		// Disjoint writers on one catalog commit, whatever the shard count.
		if cat, err := conflictOn(t, rs, shards, []string{"select A from R;", "insert into R values (5);"},
			[]string{"insert into S values (7);"}); err != nil {
			t.Fatalf("disjoint writers (%d shards): %v", shards, err)
		} else if got := cat.Snapshot().DB.Certain[1].Len(); got != 2 {
			t.Fatalf("disjoint writers (%d shards): S has %d rows, want 2", shards, got)
		}

		// Write skew: T1 reads R and writes S, T2 reads S and writes R,
		// both begun on the same version. Exactly one may commit.
		cat := store.NewSharded(rs(), shards)
		t1, t2 := isql.FromCatalog(cat), isql.FromCatalog(cat)
		for _, step := range []struct {
			s   *isql.Session
			sql string
		}{
			{t1, "begin;"}, {t2, "begin;"},
			{t1, "select A from R;"}, {t2, "select C from S;"},
			{t1, "insert into S values (8);"}, {t2, "insert into R values (9);"},
		} {
			if _, err := step.s.ExecString(step.sql); err != nil {
				t.Fatalf("write skew (%d shards) %s: %v", shards, step.sql, err)
			}
		}
		_, err1 := t1.ExecString("commit;")
		_, err2 := t2.ExecString("commit;")
		var ce *store.ConflictError
		if err1 != nil || !errors.As(err2, &ce) || ce.Relation != "S" {
			t.Fatalf("write skew (%d shards): first commit %v, second %v — want exactly the second refused on S", shards, err1, err2)
		}
	}
}

// TestInsertCollapseFoldsAcrossRelations: an INSERT into R that makes
// a component coupling R and S collapse to one alternative folds the
// component's S tuples into S's certain part. The commit logs both
// relations from the recorded edit (audited against the diff), the
// state equals inserting into every world of the enumeration, and the
// log recovers it byte for byte — at one shard and at four, where R and
// S may live on different shards.
func TestInsertCollapseFoldsAcrossRelations(t *testing.T) {
	defer expectEditAudits(t)()
	schemas := []relation.Schema{relation.NewSchema("A"), relation.NewSchema("C")}
	seed := func() *wsd.DecompDB {
		db := wsd.NewDecompDB([]string{"R", "S"}, schemas)
		alt := func(a int64) wsd.DBAlternative {
			return wsd.DBAlternative{Rels: map[int]*relation.Relation{
				0: relation.FromRows(schemas[0], relation.Tuple{value.Int(a)}),
				1: relation.FromRows(schemas[1], relation.Tuple{value.Int(5)}),
			}}
		}
		db.Components = []wsd.DBComponent{{Alternatives: []wsd.DBAlternative{alt(1), alt(2)}}}
		return db
	}
	before, err := seed().Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	want := worldset.New(before.Names(), before.Schemas())
	before.Each(func(w worldset.World) {
		nw := append(worldset.World{}, w...)
		nw[0] = w[0].Clone()
		nw[0].InsertValues(value.Int(1))
		nw[0].InsertValues(value.Int(2))
		want.Add(nw)
	})
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		cat, wals, err := store.Open(filepath.Join(dir, "checkpoint.wsd"), dir, shards, 0,
			func() (*store.Catalog, error) { return store.New(seed()), nil })
		if err != nil {
			t.Fatal(err)
		}
		s := isql.FromCatalog(cat)
		if _, err := s.ExecString("insert into R values (1), (2);"); err != nil {
			t.Fatal(err)
		}
		snap := cat.Snapshot()
		if len(snap.DB.Components) != 0 || !snap.DB.Certain[1].Contains(relation.Tuple{value.Int(5)}) {
			t.Fatalf("%d shards: the component did not collapse into S:\n%s", shards, snap.DB)
		}
		if got := s.WorldSet(); got == nil || got.String() != want.String() {
			t.Fatalf("%d shards: state differs from inserting in every world\ngot:\n%v\nwant:\n%s", shards, got, want)
		}
		var saved bytes.Buffer
		if err := store.Save(&saved, snap); err != nil {
			t.Fatal(err)
		}
		for _, w := range wals {
			w.Close()
		}
		rec, rwals, err := store.Open(filepath.Join(dir, "checkpoint.wsd"), dir, shards, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := store.Save(&got, rec.Snapshot()); err != nil {
			t.Fatal(err)
		}
		for _, w := range rwals {
			w.Close()
		}
		if !bytes.Equal(got.Bytes(), saved.Bytes()) {
			t.Fatalf("%d shards: recovery differs from the committed state\ngot:\n%s\nwant:\n%s", shards, got.Bytes(), saved.Bytes())
		}
	}
}
