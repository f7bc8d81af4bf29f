package isql

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// censusPipeline is the acceptance pipeline of the store subsystem:
// repair (2^40 worlds) → select (σ/π over the factored catalog) →
// aggregate across all worlds (certain/possible). Every statement must
// run natively on the decomposition — no world enumeration anywhere.
var censusPipeline = []string{
	"create table Clean as select * from Census repair by key SSN;",
	"create table Suspects as select SSN, Name from Clean where POB = 'NYC';",
	"select certain Name from Suspects;",
	"select possible Name from Suspects;",
}

func pipelineCensus() *relation.Relation { return datagen.Census(120, 40, 7) }

// TestGoldenCensusStorePipeline pins the multi-statement census-repair
// pipeline at 2^40 worlds end to end through the store: each statement
// stays factored (plan native, no BudgetError), the catalog keeps the
// exact world count, and the answers are pinned byte-for-byte.
func TestGoldenCensusStorePipeline(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{pipelineCensus()})
	var b strings.Builder
	for _, sql := range censusPipeline {
		res, err := s.ExecString(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Plan == nil || !res.Plan.Native {
			t.Fatalf("%s: not evaluated natively on the decomposition (plan %v)", sql, res.Plan)
		}
		fmt.Fprintf(&b, "isql> %s\n", sql)
		if len(res.Answers) > 0 {
			for _, a := range res.Answers {
				b.WriteString(a.Render("answer"))
			}
		} else {
			fmt.Fprintf(&b, "ok; %s world(s), decomposition size %d\n",
				res.Decomp.Worlds(), res.Decomp.Size())
		}
		b.WriteByte('\n')
	}
	if got, want := s.Worlds().String(), "1099511627776"; got != want { // 2^40
		t.Fatalf("catalog worlds = %s, want %s", got, want)
	}
	// The catalog state is factored: linear size, never expanded.
	snap := s.Catalog().Snapshot()
	if size := snap.DB.Size(); size > 4*pipelineCensus().Len() {
		t.Fatalf("catalog size %d is not linear in the input", size)
	}
	if ws := s.WorldSet(); ws != nil {
		t.Fatal("a 2^40-world catalog must refuse explicit expansion")
	}
	checkGoldenFile(t, "census_store_pipeline", b.String())
}

// TestCensusPipelineLegacyPathRefused: the same script on the explicit
// world-set session path cannot complete within budget — the first
// statement reports the shared *wsd.BudgetError shape instead of
// attempting 2^40-world enumeration.
func TestCensusPipelineLegacyPathRefused(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{pipelineCensus()})
	s.Engine = "legacy"
	_, err := s.ExecString(censusPipeline[0])
	var be *wsd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("legacy path must refuse with *wsd.BudgetError, got %v", err)
	}
	// Enumerating engines hit the same budget wall through the store:
	// build the 2^40 catalog natively, then ask the reference engine for
	// a relation all 40 components contribute to.
	s2 := FromDB([]string{"Census"}, []*relation.Relation{pipelineCensus()})
	for _, sql := range censusPipeline[:2] {
		if _, err := s2.ExecString(sql); err != nil {
			t.Fatal(err)
		}
	}
	s2.Engine = "reference"
	if _, err := s2.ExecString("select certain Name from Clean;"); !errors.As(err, &be) {
		t.Fatalf("reference engine must refuse with *wsd.BudgetError, got %v", err)
	}
}

// TestRepairBudgetErrorShapeShared: the legacy evaluator's repair limit
// reports the same typed budget error as wsd.Expand and the store.
func TestRepairBudgetErrorShapeShared(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{datagen.Census(40, 40, 7)})
	s.Engine = "legacy"
	s.MaxWorlds = 512
	_, err := s.ExecString("select * from Census repair by key SSN;")
	var be *wsd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("legacy repair limit: want *wsd.BudgetError, got %v", err)
	}
	if be.Budget != 512 {
		t.Fatalf("budget in error = %d, want 512", be.Budget)
	}
	// Same statement through the store path: native evaluation succeeds
	// but listing 2^40 distinct answers is refused with the same shape.
	s2 := FromDB([]string{"Census"}, []*relation.Relation{datagen.Census(40, 40, 7)})
	s2.MaxWorlds = 512
	if _, err := s2.ExecString("select * from Census repair by key SSN;"); !errors.As(err, &be) {
		t.Fatalf("store path: want *wsd.BudgetError, got %v", err)
	}
}

// TestConcurrentReadersByteIdentical: N sessions over one catalog
// snapshot answer the same query byte-identically while running
// concurrently (the -race CI run makes this the reader-isolation
// proof).
func TestConcurrentReadersByteIdentical(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{pipelineCensus()})
	for _, sql := range censusPipeline[:2] {
		if _, err := s.ExecString(sql); err != nil {
			t.Fatal(err)
		}
	}
	cat := s.Catalog()
	const readers = 8
	outputs := make([]string, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := FromCatalog(cat)
			var b strings.Builder
			for i := 0; i < 4; i++ {
				res, err := sess.ExecString("select certain Name from Suspects;")
				if err != nil {
					errs[g] = err
					return
				}
				for _, a := range res.Answers {
					b.WriteString(a.Render("answer"))
				}
			}
			outputs[g] = b.String()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", g, err)
		}
	}
	for g := 1; g < readers; g++ {
		if outputs[g] != outputs[0] {
			t.Fatalf("reader %d output differs from reader 0\n--- reader %d ---\n%s\n--- reader 0 ---\n%s",
				g, g, outputs[g], outputs[0])
		}
	}
	if outputs[0] == "" {
		t.Fatal("readers produced no output")
	}
}

// TestConcurrentSessionsSharedCatalog: sessions over one catalog see
// each other's committed writes, and a reader mid-flight is never torn:
// every answer corresponds to some committed version.
func TestConcurrentSessionsSharedCatalog(t *testing.T) {
	writer := NewSession()
	cat := writer.Catalog()
	mustExec(t, writer, "create table T (A);")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := FromCatalog(cat)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.ExecString("select A from T;")
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if len(res.Answers) != 1 {
					t.Errorf("reader saw %d answers", len(res.Answers))
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		mustExec(t, writer, fmt.Sprintf("insert into T values (%d);", i))
	}
	close(stop)
	wg.Wait()
	got := singleAnswer(t, FromCatalog(cat), "select count(*) as N from T;")
	if got.Len() != 1 {
		t.Fatalf("final count rows = %d", got.Len())
	}
}

// TestStoreSessionParityRandomized is the session-level differential:
// scripts covering the fragment and the fallback paths run through both
// the store-backed default path and the legacy explicit world-set path,
// and must produce identical distinct answers and world counts at every
// step.
func TestStoreSessionParityRandomized(t *testing.T) {
	scripts := [][]string{
		{
			"create table U as select * from Company_Emp choice of CID;",
			"select possible CID from U;",
			"select certain EID from U group worlds by CID;",
			"insert into U values ('NEW', 'e9');",
			"select certain CID from U where EID = 'e9';",
			"delete from U where CID = 'ACME';",
			"select possible EID from U;",
		},
		{
			"create table Clean as select * from Census repair by key SSN;",
			"select certain Name from Clean;",
			"update Clean set POW = 'Remote' where POB = 'NYC';",
			"select possible POW from Clean;",
			"select SSN, count(*) as N from Clean group by SSN;",
			"delete from Clean;",
			"select possible SSN from Clean;",
		},
		{
			// Two independent uncertain regions: aggregates and an
			// aggregate CTAS read only U, so the native path enumerates
			// U's components and splices S's back — legacy expands
			// everything; the states must agree exactly.
			"create table U as select * from Company_Emp choice of CID;",
			"create table S as select * from Emp_Skills choice of EID;",
			"select count(*) as N from U;",
			"create table CU as select CID, count(*) as N from U group by CID;",
			"select possible N from CU;",
			"select count(*) as M from S where EID != 'nobody';",
			"select EID from S where EID in (select EID from Emp_Skills);",
		},
		{
			"create view PerDep as select * from HFlights choice of Dep;",
			"select certain Arr from PerDep;",
			"create table X as select Arr from HFlights where Dep != 'PHL' choice of Arr;",
			"select possible Arr from X;",
			"drop table X;",
			"select Dep from HFlights where Arr in (select Arr from HFlights F2 where F2.Dep = 'FRA');",
		},
	}
	dbs := func() [][2]any {
		return [][2]any{
			{[]string{"Company_Emp", "Emp_Skills"}, []*relation.Relation{datagen.PaperCompanyEmp(), datagen.PaperEmpSkills()}},
			{[]string{"Census"}, []*relation.Relation{datagen.PaperCensus()}},
			{[]string{"Company_Emp", "Emp_Skills"}, []*relation.Relation{datagen.PaperCompanyEmp(), datagen.PaperEmpSkills()}},
			{[]string{"HFlights"}, []*relation.Relation{datagen.PaperFlights()}},
		}
	}
	for si, script := range scripts {
		seed := dbs()[si]
		names := seed[0].([]string)
		rels := seed[1].([]*relation.Relation)
		native := FromDB(names, rels)
		legacy := FromDB(names, rels)
		legacy.Engine = "legacy"
		for _, sql := range script {
			nres, nerr := native.ExecString(sql)
			lres, lerr := legacy.ExecString(sql)
			if (nerr == nil) != (lerr == nil) {
				t.Fatalf("script %d %q: native err %v, legacy err %v", si, sql, nerr, lerr)
			}
			if nerr != nil {
				continue
			}
			if len(nres.Answers) != len(lres.Answers) {
				t.Fatalf("script %d %q: %d native answers vs %d legacy", si, sql, len(nres.Answers), len(lres.Answers))
			}
			for i := range nres.Answers {
				if nres.Answers[i].ContentKey() != lres.Answers[i].ContentKey() {
					t.Fatalf("script %d %q: answer %d differs\nnative:\n%s\nlegacy:\n%s",
						si, sql, i, nres.Answers[i], lres.Answers[i])
				}
			}
			if nres.Affected != lres.Affected {
				t.Fatalf("script %d %q: affected %d native vs %d legacy", si, sql, nres.Affected, lres.Affected)
			}
			nws, lws := native.WorldSet(), legacy.WorldSet()
			if nws == nil || lws == nil {
				t.Fatalf("script %d %q: state not expandable", si, sql)
			}
			if nws.String() != lws.String() {
				t.Fatalf("script %d %q: session state differs\nnative:\n%s\nlegacy:\n%s", si, sql, nws, lws)
			}
		}
	}
}

// TestViewTextRoundTrip: views are stored as rendered SQL text, so
// expression rendering must re-parse to the same tree — unary minus
// and nested arithmetic were the regression (X * -2 parses as
// X * (0 - 2); without precedence-aware rendering the stored text
// re-parsed as (X * 0) - 2).
func TestViewTextRoundTrip(t *testing.T) {
	s := NewSession()
	mustExec(t, s, "create table T (X);")
	mustExec(t, s, "insert into T values (5);")
	direct := singleAnswer(t, s, "select X * -2 as Z from T;")
	mustExec(t, s, "create view V as select X * -2 as Z from T;")
	mustExec(t, s, "create view W as select X - (X - 1) as Z from T;")
	viaView := singleAnswer(t, s, "select Z from V;")
	if direct.ContentKey() != viaView.ContentKey() {
		t.Fatalf("view round trip changed the answer: direct %v, via view %v", direct, viaView)
	}
	if got := singleAnswer(t, s, "select Z from W;"); !got.Contains(relation.Tuple{intVal(1)}) {
		t.Fatalf("X - (X - 1) through a view = %v, want 1", got)
	}
	// Boolean-valued comparison operands and in/exists operands must
	// also survive the text round trip (one bad view would poison every
	// later statement of the session and any saved catalog).
	mustExec(t, s, "create view B as select X from T where (X = 1) = (X = 2);")
	if got := singleAnswer(t, s, "select X from B;"); got.Len() != 1 {
		t.Fatalf("(X = 1) = (X = 2) is true for X = 5; view B = %v", got)
	}
	mustExec(t, s, "create view E as select X from T where (X in (select X from T)) = true;")
	if got := singleAnswer(t, s, "select X from E;"); got.Len() != 1 {
		t.Fatalf("in-operand view round trip broke: %v", got)
	}
	// An integral float literal stays a float in the stored text, so the
	// view renders byte for byte what its body does.
	mustExec(t, s, "create table U (A);")
	mustExec(t, s, "insert into U values (1234567);")
	body := singleAnswer(t, s, "select A * 1.0 as B from U;").String()
	mustExec(t, s, "create view F as select A * 1.0 as B from U;")
	if got := singleAnswer(t, s, "select B from F;").String(); got != body || !strings.Contains(body, "1.234567e+06") {
		t.Fatalf("view answers\n%s\nits body answers\n%s", got, body)
	}
}

func intVal(i int64) value.Value { return value.Int(i) }

// TestGenuineCompileErrorsSurfaceDirectly: a typo on a 2^40-world
// catalog must report the real error (unknown column/relation), not a
// BudgetError from a pointless fallback expansion.
func TestGenuineCompileErrorsSurfaceDirectly(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{pipelineCensus()})
	for _, sql := range censusPipeline[:2] {
		mustExec(t, s, sql)
	}
	var be *wsd.BudgetError
	_, err := s.ExecString("select certain Naem from Suspects;")
	if err == nil || errors.As(err, &be) || !strings.Contains(err.Error(), "Naem") {
		t.Fatalf("typo must surface as unknown column, got %v", err)
	}
	_, err = s.ExecString("select * from Suspect;")
	if err == nil || errors.As(err, &be) || !strings.Contains(err.Error(), "Suspect") {
		t.Fatalf("unknown relation must surface directly, got %v", err)
	}
	// Statements merely outside the fragment run on the bounded input —
	// and when the answer genuinely depends on all 40 repair components,
	// the bounded enumeration's budget refusal is the correct report.
	_, err = s.ExecString("select count(*) as N from Clean;")
	if !errors.As(err, &be) {
		t.Fatalf("aggregate over all 40 components should refuse with BudgetError, got %v", err)
	}
}

// pickCatalog builds the 2^40-world census repair plus two fully
// certain one-row tables, Pick(V) and Other(V): statements over them
// touch zero components.
func pickCatalog(t *testing.T) *Session {
	t.Helper()
	s := FromDB([]string{"Census"}, []*relation.Relation{pipelineCensus()})
	s.Stats = NewExecStats()
	mustExec(t, s, censusPipeline[0])
	for _, sql := range []string{
		"create table Pick (V);", "insert into Pick values (1);",
		"create table Other (V);", "insert into Other values (1);",
	} {
		mustExec(t, s, sql)
	}
	return s
}

// TestBoundedDMLWorldCountIndependent: a DELETE or UPDATE whose
// predicate holds a subquery runs through the bounded arm, so on a
// 2^40-world catalog it enumerates only the components its relations
// depend on (none here) instead of refusing with the catalog's world
// count — the whole-catalog expansion this test pins the removal of.
// The catalog keeps its world count and linear size, and the
// world-weighted affected count equals the tuple-local statement's.
func TestBoundedDMLWorldCountIndependent(t *testing.T) {
	const worlds = "1099511627776" // 2^40
	for _, c := range []struct{ bounded, local, probe string }{
		{"delete from Pick where V in (select V from Other);", "delete from Pick where V = 1;", "select count(*) as N from Pick where V = 1;"},
		{"update Pick set V = 7 where exists (select V from Other);", "update Pick set V = 7 where V = 1;", "select count(*) as N from Pick where V = 1;"},
	} {
		s, ref := pickCatalog(t), pickCatalog(t)
		if got := singleAnswer(t, s, "select sum(V) as S from Pick;"); !got.Contains(relation.Tuple{intVal(1)}) {
			t.Fatalf("sum(V) over Pick = %v, want 1", got)
		}
		res, want := mustExec(t, s, c.bounded), mustExec(t, ref, c.local)
		if res.Affected != want.Affected || res.Affected != 1<<40 {
			t.Fatalf("%s affected %d, tuple-local %s affected %d, want 2^40", c.bounded, res.Affected, c.local, want.Affected)
		}
		if res.Plan != nil || res.Decomp == nil {
			t.Fatalf("%s: plan %v, decomp %v; want the bounded arm's factored state", c.bounded, res.Plan, res.Decomp)
		}
		if got := s.Worlds().String(); got != worlds {
			t.Fatalf("%s left %s worlds, want %s", c.bounded, got, worlds)
		}
		if size := s.Catalog().Snapshot().DB.Size(); size > 4*pipelineCensus().Len() {
			t.Fatalf("%s left catalog size %d, not linear in the input", c.bounded, size)
		}
		if got := singleAnswer(t, s, c.probe); !got.Contains(relation.Tuple{intVal(0)}) {
			t.Fatalf("after %s: %s = %v, want 0", c.bounded, c.probe, got)
		}
		// The repair region was spliced back untouched and stays native.
		if r := mustExec(t, s, "select certain Name from Clean;"); r.Plan == nil || !r.Plan.Native {
			t.Fatalf("repair region not native after %s (plan %v)", c.bounded, r.Plan)
		}
		// Accounted like every other bounded statement, and visible in
		// the trace with its component count.
		if snap := s.Stats.Snapshot(); snap.LegacyOps["expression subquery"] != 1 {
			t.Fatalf("%s not accounted as a bounded subquery statement: %+v", c.bounded, snap)
		}
		msg := mustExec(t, s, "explain analyze "+c.bounded).Message
		if !strings.Contains(msg, "exec.bounded") || !strings.Contains(msg, "fragment-op=expression subquery components=0") {
			t.Fatalf("explain analyze %s lacks the bounded span:\n%s", c.bounded, msg)
		}
	}
}

// TestBoundedDMLBudgetIsDependentRegion: when the region a subquery
// DML depends on is itself too large, the refusal reports that
// region's combination count — 2^40 for the repair — not the catalog's
// 3 * 2^40.
func TestBoundedDMLBudgetIsDependentRegion(t *testing.T) {
	s := boundedCatalog(t)
	_, err := s.ExecString("delete from Clean where SSN in (select SSN from Clean);")
	var be *wsd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("subquery delete over Clean: want *wsd.BudgetError, got %v", err)
	}
	if got, want := be.Worlds.String(), "1099511627776"; got != want {
		t.Fatalf("budget error cost = %s, want the dependent-component cost %s", got, want)
	}
	// Pick's 3-alternative component fits, whatever the catalog holds.
	res := mustExec(t, s, "update Pick set V = V + 10 where V in (select V from Tiny where V < 3);")
	if got, want := s.Worlds().String(), "3298534883328"; got != want { // still 3 * 2^40
		t.Fatalf("worlds after bounded update = %s, want %s", got, want)
	}
	// Two of the three Pick worlds change their tuple, each standing for
	// 2^40 full worlds.
	if want := 2 << 40; res.Affected != want {
		t.Fatalf("affected = %d, want %d", res.Affected, want)
	}
}

// TestCatalogPersistenceThroughSession: -load/-save level round trip at
// the session layer (the cmd/isql flags build on this).
func TestCatalogPersistenceThroughSession(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{pipelineCensus()})
	for _, sql := range censusPipeline[:2] {
		mustExec(t, s, sql)
	}
	mustExec(t, s, "create view NYC as select Name from Suspects;")
	path := filepath.Join(t.TempDir(), "census.wsd")
	if err := SaveCatalog(path, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Worlds().String(), s.Worlds().String(); got != want {
		t.Fatalf("worlds after reload = %s, want %s", got, want)
	}
	a := singleAnswer(t, loaded, "select certain Name from NYC;")
	b := singleAnswer(t, s, "select certain Name from NYC;")
	if a.ContentKey() != b.ContentKey() {
		t.Fatal("answers differ after catalog reload")
	}
}

func checkGoldenFile(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run 'go test -update ./internal/isql'): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
