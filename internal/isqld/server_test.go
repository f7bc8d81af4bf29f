package isqld

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func censusServer(t testing.TB, n, dups int) *httptest.Server {
	t.Helper()
	cat := store.FromComplete([]string{"Census"},
		[]*relation.Relation{datagen.Census(n, dups, 7)})
	return serveCat(t, cat)
}

// serveCat builds a Server over cat, wires its background sweeper's
// shutdown into the test, and serves it over httptest.
func serveCat(t testing.TB, cat *store.Catalog, opts ...Option) *httptest.Server {
	t.Helper()
	srv := New(cat, opts...)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t testing.TB, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// TestSmokeScriptGolden runs the CI smoke script — the same file the
// workflow posts at a live server — and pins the full response. The
// paper's census demo: 4 repairs, certain/possible facts.
func TestSmokeScriptGolden(t *testing.T) {
	cat := store.FromComplete([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	ts := serveCat(t, cat)
	defer ts.Close()
	script, err := os.ReadFile(filepath.Join("testdata", "smoke.isql"))
	if err != nil {
		t.Fatal(err)
	}
	code, got := post(t, ts.URL+"/exec", string(script))
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, got)
	}
	golden := filepath.Join("testdata", "smoke.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run 'go test -update ./internal/isqld'): %v", err)
	}
	if got != string(want) {
		t.Fatalf("smoke output differs\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestConcurrentReadersIdentical is the serving-path acceptance check:
// after materializing the 2^40-world census repair, N concurrent
// clients issue certain-answer queries against the shared catalog and
// must receive byte-identical responses (run under -race in CI).
func TestConcurrentReadersIdentical(t *testing.T) {
	ts := censusServer(t, 120, 40)
	code, out := post(t, ts.URL+"/exec",
		"create table Clean as select * from Census repair by key SSN;")
	if code != http.StatusOK {
		t.Fatalf("materializing: %d\n%s", code, out)
	}
	if !strings.Contains(out, "1099511627776 world(s)") {
		t.Fatalf("expected a 2^40-world catalog, got\n%s", out)
	}
	const readers, rounds = 8, 4
	query := "select certain Name from Clean where POB = 'NYC';"
	results := make([]string, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var b strings.Builder
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(ts.URL+"/exec", "text/plain", strings.NewReader(query))
				if err != nil {
					errs[g] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[g] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[g] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				b.Write(body)
			}
			results[g] = b.String()
		}(g)
	}
	wg.Wait()
	for g := 0; g < readers; g++ {
		if errs[g] != nil {
			t.Fatalf("reader %d: %v", g, errs[g])
		}
		if results[g] != results[0] {
			t.Fatalf("reader %d response differs from reader 0", g)
		}
	}
	if !strings.Contains(results[0], "answer") {
		t.Fatalf("readers got no answers:\n%s", results[0])
	}
}

// TestConcurrentWritersSerialize: concurrent DML requests all commit
// (single-writer serialization), and the final state reflects every
// insert exactly once.
func TestConcurrentWritersSerialize(t *testing.T) {
	cat := store.New(nil)
	ts := serveCat(t, cat)
	defer ts.Close()
	if code, out := post(t, ts.URL+"/exec", "create table T (A);"); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, out)
	}
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/exec", "text/plain",
				strings.NewReader(fmt.Sprintf("insert into T values (%d);", g)))
			if err != nil {
				errs[g] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[g] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	code, out := post(t, ts.URL+"/exec", "select count(*) as N from T;")
	if code != http.StatusOK || !strings.Contains(out, fmt.Sprintf("%d", writers)) {
		t.Fatalf("final count missing %d:\n%s", writers, out)
	}
}

// TestStatementErrorReported: a bad statement yields HTTP 422 with the
// error in the body, after the successful prefix.
func TestStatementErrorReported(t *testing.T) {
	ts := censusServer(t, 10, 1)
	code, out := post(t, ts.URL+"/exec", "select certain Name from Census; select * from Missing;")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422\n%s", code, out)
	}
	if !strings.Contains(out, "error:") || !strings.Contains(out, "Missing") {
		t.Fatalf("error not reported:\n%s", out)
	}
}

// TestStatsEndpoint checks /stats and /healthz.
func TestStatsEndpoint(t *testing.T) {
	ts := censusServer(t, 50, 10)
	if code, out := post(t, ts.URL+"/exec",
		"create table Clean as select * from Census repair by key SSN; create view V as select Name from Clean;"); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	// One native select, one aggregate and one DELETE whose predicate
	// holds a subquery (both through the bounded arm) populate the
	// per-path execution accounting.
	if code, out := post(t, ts.URL+"/exec",
		"select certain Name from Clean; select count(*) as N from Clean; "+
			"delete from Census where SSN in (select SSN from Census where SSN < 0);"); code != http.StatusOK {
		t.Fatalf("exec accounting setup: %d %s", code, out)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Worlds != "1024" { // 2^10
		t.Fatalf("stats worlds = %s, want 1024", st.Worlds)
	}
	if len(st.Relations) != 2 || len(st.Views) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Version < 2 {
		t.Fatalf("version %d, want ≥ 2 after two commits", st.Version)
	}
	// The CTAS and the plain select ran natively; the aggregate and the
	// subquery DELETE went through the bounded arm, each attributed to
	// the fragment feature that put it there.
	if st.Exec.Native < 2 {
		t.Fatalf("exec accounting native = %d, want ≥ 2\n%+v", st.Exec.Native, st.Exec)
	}
	if st.Exec.Legacy != 2 || st.Exec.LegacyOps["aggregation"] != 1 || st.Exec.LegacyOps["expression subquery"] != 1 {
		t.Fatalf("exec accounting legacy = %d (ops %v), want 1 aggregation + 1 expression subquery", st.Exec.Legacy, st.Exec.LegacyOps)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hr.StatusCode)
	}
}

// BenchmarkReaderThroughput measures concurrent certain-answer queries
// against a shared 2^40-world catalog — the serving-path headline
// number (compare with enumerating 10^12 worlds per request).
func BenchmarkReaderThroughput(b *testing.B) {
	cat := store.FromComplete([]string{"Census"},
		[]*relation.Relation{datagen.Census(1000, 40, 7)})
	ts := serveCat(b, cat)
	defer ts.Close()
	if code, out := post(b, ts.URL+"/exec",
		"create table Clean as select * from Census repair by key SSN;"); code != http.StatusOK {
		b.Fatalf("materializing: %d %s", code, out)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/exec", "text/plain",
				strings.NewReader("select certain POB from Clean;"))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}

// postSession is post with a sticky-session token header.
func postSession(t testing.TB, url, token, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SessionHeader, token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// TestTxnScriptGolden pins the transactional protocol end to end — the
// same script the CI smoke job posts at a live WAL-backed server: a
// committed BEGIN batch, a rolled-back one, and the resulting answers.
func TestTxnScriptGolden(t *testing.T) {
	cat := store.FromComplete([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	ts := serveCat(t, cat)
	defer ts.Close()
	script, err := os.ReadFile(filepath.Join("testdata", "txn.isql"))
	if err != nil {
		t.Fatal(err)
	}
	code, got := post(t, ts.URL+"/exec", string(script))
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, got)
	}
	golden := filepath.Join("testdata", "txn.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run 'go test -update ./internal/isqld'): %v", err)
	}
	if got != string(want) {
		t.Fatalf("txn output differs\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTransactionAtomicityUnderReaders is the tentpole acceptance
// check: a sticky session stages a BEGIN → N statements → COMMIT batch
// across several requests while concurrent /exec readers poll; every
// reader response must reflect either the pre-transaction or the
// post-commit catalog — never an intermediate statement. Run under
// -race in CI.
func TestTransactionAtomicityUnderReaders(t *testing.T) {
	cat := store.New(nil)
	ts := serveCat(t, cat)
	defer ts.Close()
	if code, out := post(t, ts.URL+"/exec",
		"create table T (A); insert into T values (0);"); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	const staged = 5
	stop := make(chan struct{})
	bad := make(chan string, 1)
	var wg sync.WaitGroup
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
				code, out := post(t, ts.URL+"/exec", "select count(*) as N from T;")
				if code != http.StatusOK {
					select {
					case bad <- fmt.Sprintf("reader status %d: %s", code, out):
					default:
					}
					return
				}
				// The count is either 1 (pre-transaction) or 1+staged
				// (post-commit); anything else is a torn read.
				if !strings.Contains(out, "\n1\n") && !strings.Contains(out, fmt.Sprintf("\n%d\n", 1+staged)) {
					select {
					case bad <- "torn read:\n" + out:
					default:
					}
					return
				}
			}
		}()
	}
	if code, out := postSession(t, ts.URL+"/exec", "writer", "begin;"); code != http.StatusOK {
		t.Fatalf("begin: %d %s", code, out)
	}
	for i := 1; i <= staged; i++ {
		if code, out := postSession(t, ts.URL+"/exec", "writer",
			fmt.Sprintf("insert into T values (%d);", i)); code != http.StatusOK {
			t.Fatalf("staged insert %d: %d %s", i, code, out)
		}
	}
	if code, out := postSession(t, ts.URL+"/exec", "writer", "commit;"); code != http.StatusOK {
		t.Fatalf("commit: %d %s", code, out)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}
	code, out := post(t, ts.URL+"/exec", "select count(*) as N from T;")
	if code != http.StatusOK || !strings.Contains(out, fmt.Sprintf("\n%d\n", 1+staged)) {
		t.Fatalf("final count missing %d:\n%s", 1+staged, out)
	}
}

// TestStatelessRequestRollsBackOpenTxn: a /exec script that BEGINs
// without a session token cannot resume — its open transaction is
// rolled back at end of request and never becomes visible.
func TestStatelessRequestRollsBackOpenTxn(t *testing.T) {
	cat := store.New(nil)
	ts := serveCat(t, cat)
	defer ts.Close()
	if code, out := post(t, ts.URL+"/exec", "create table T (A);"); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	if code, out := post(t, ts.URL+"/exec", "begin; insert into T values (1);"); code != http.StatusOK {
		t.Fatalf("open-txn script: %d %s", code, out)
	}
	code, out := post(t, ts.URL+"/exec", "select count(*) as N from T;")
	if code != http.StatusOK || !strings.Contains(out, "\n0\n") {
		t.Fatalf("abandoned stateless transaction leaked:\n%s", out)
	}
}

// TestStickySessionEviction: an idle sticky session past the TTL is
// evicted and its open transaction rolled back.
func TestStickySessionEviction(t *testing.T) {
	cat := store.New(nil)
	ts := serveCat(t, cat, WithSessionTTL(30*time.Millisecond))
	defer ts.Close()
	if code, out := post(t, ts.URL+"/exec", "create table T (A);"); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	if code, out := postSession(t, ts.URL+"/exec", "tok", "begin; insert into T values (1);"); code != http.StatusOK {
		t.Fatalf("begin: %d %s", code, out)
	}
	time.Sleep(60 * time.Millisecond)
	// Any session acquisition sweeps; this one creates a fresh session
	// under the same token, whose commit has nothing staged.
	code, out := postSession(t, ts.URL+"/exec", "tok", "select count(*) as N from T;")
	if code != http.StatusOK || !strings.Contains(out, "\n0\n") {
		t.Fatalf("evicted transaction leaked:\n%s", out)
	}
	if code, _ := postSession(t, ts.URL+"/exec", "tok", "commit;"); code == http.StatusOK {
		t.Fatal("commit on the evicted session's replacement must fail (no open transaction)")
	}
}

// TestPrepareExecuteEndpoints: /prepare registers into the shared
// cache, /execute runs with and without arguments, errors surface.
func TestPrepareExecuteEndpoints(t *testing.T) {
	cat := store.FromComplete([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	ts := serveCat(t, cat)
	defer ts.Close()
	if code, out := post(t, ts.URL+"/exec",
		"create table Clean as select * from Census repair by key SSN;"); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	code, out := post(t, ts.URL+"/prepare",
		"prepare certnames as select certain Name from Clean; prepare bypob as select Name from Clean where POB = $1;")
	if code != http.StatusOK || !strings.Contains(out, "prepared certnames") || !strings.Contains(out, "prepared bypob") {
		t.Fatalf("prepare: %d\n%s", code, out)
	}
	code, out = post(t, ts.URL+"/execute", "certnames")
	if code != http.StatusOK || !strings.Contains(out, "answer") {
		t.Fatalf("execute certnames: %d\n%s", code, out)
	}
	code, out = post(t, ts.URL+"/execute", "bypob('NYC')")
	if code != http.StatusOK || !strings.Contains(out, "answer") {
		t.Fatalf("execute bypob: %d\n%s", code, out)
	}
	// Errors: unknown name, wrong arity, non-prepare on /prepare.
	if code, _ = post(t, ts.URL+"/execute", "nosuch"); code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown prepared statement: status %d", code)
	}
	if code, _ = post(t, ts.URL+"/execute", "bypob"); code != http.StatusUnprocessableEntity {
		t.Fatalf("missing argument: status %d", code)
	}
	if code, _ = post(t, ts.URL+"/prepare", "select * from Clean;"); code != http.StatusUnprocessableEntity {
		t.Fatalf("non-prepare on /prepare: status %d", code)
	}
	// /stats lists the prepared statements.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Prepared) != 2 {
		t.Fatalf("stats.Prepared = %v, want 2 names", st.Prepared)
	}
}

// BenchmarkPreparedVsExec compares parse-per-request /exec with cached
// /execute for the same analytical query — the prepared path must stay
// well ahead (wsabench TXN pins the ratio).
func BenchmarkPreparedVsExec(b *testing.B) {
	cat := store.FromComplete([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	ts := serveCat(b, cat)
	defer ts.Close()
	if code, out := post(b, ts.URL+"/exec",
		"create table Clean as select * from Census repair by key SSN;"); code != http.StatusOK {
		b.Fatalf("setup: %d %s", code, out)
	}
	query := analyticalQuery()
	if code, out := post(b, ts.URL+"/prepare", "prepare q as "+query); code != http.StatusOK {
		b.Fatalf("prepare: %d %s", code, out)
	}
	b.Run("exec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if code, _ := post(b, ts.URL+"/exec", query); code != http.StatusOK {
				b.Fatal("exec failed")
			}
		}
	})
	b.Run("execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if code, _ := post(b, ts.URL+"/execute", "q"); code != http.StatusOK {
				b.Fatal("execute failed")
			}
		}
	})
}

// analyticalQuery builds a wordy fragment select whose per-request cost
// is dominated by parsing and compilation — the shape /prepare+/execute
// exists to amortize.
func analyticalQuery() string {
	var b strings.Builder
	b.WriteString("select certain Name from Clean where ")
	for i := 0; i < 48; i++ {
		if i > 0 {
			b.WriteString(" or ")
		}
		fmt.Fprintf(&b, "POB = 'C%d'", i)
	}
	b.WriteString(";")
	return b.String()
}

// TestHandlerPanicAnswers500 pins the handler-level recover: a handler
// that panics answers HTTP 500 with an "error: internal" line instead
// of dropping the connection, the panic is counted in
// wsdb_handler_panics_total, and the server keeps serving.
func TestHandlerPanicAnswers500(t *testing.T) {
	srv := New(store.New(nil))
	t.Cleanup(srv.Close)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("POST /boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	ts := httptest.NewServer(srv.guard(mux))
	t.Cleanup(ts.Close)
	log.SetOutput(io.Discard) // the recovered panic's stack
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	for i := 1; i <= 2; i++ {
		resp, err := http.Post(ts.URL+"/boom", "text/plain", nil)
		if err != nil {
			t.Fatalf("panicking handler dropped the request: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || string(body) != "error: internal\n" {
			t.Fatalf("panic answered %d %q, want 500 %q", resp.StatusCode, body, "error: internal\n")
		}
		resp, err = http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("wsdb_handler_panics_total %d\n", i); !strings.Contains(string(body), want) {
			t.Fatalf("/metrics after %d panic(s) lacks %q", i, want)
		}
	}
	resp, err := http.Post(ts.URL+"/exec", "text/plain", strings.NewReader("create table T (A);"))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server stopped serving after a panic: %v %v", resp, err)
	}
	resp.Body.Close()
}
