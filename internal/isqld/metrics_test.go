package isqld

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
)

// shardedWALServer builds a 4-shard, WAL-backed census catalog and
// serves it — the acceptance shape for /metrics: per-shard commit and
// fsync histograms must all be present.
func shardedWALServer(t *testing.T, opts ...Option) (*httptest.Server, *store.Catalog) {
	return walServer(t, 4, opts...)
}

// walServer is shardedWALServer at any shard count.
func walServer(t *testing.T, nshards int, opts ...Option) (*httptest.Server, *store.Catalog) {
	t.Helper()
	dir := t.TempDir()
	cat, wals, err := store.Open(filepath.Join(dir, "checkpoint.wsd"), dir, nshards, 64, func() (*store.Catalog, error) {
		return store.FromComplete([]string{"Census"},
			[]*relation.Relation{datagen.Census(50, 10, 7)}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wals {
		t.Cleanup(func() { w.Close() })
	}
	return serveCat(t, cat, opts...), cat
}

// TestMetricsEndpoint asserts GET /metrics serves valid Prometheus
// text exposition on a WAL-backed catalog — one shard and four alike —
// with every required series present: per-shard commit statistics,
// commit-queue and fsync histograms, per-relation decomposition gauges,
// execution-path and request counters.
func TestMetricsEndpoint(t *testing.T) {
	for _, nshards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", nshards), func(t *testing.T) { testMetricsEndpoint(t, nshards) })
	}
}

func testMetricsEndpoint(t *testing.T, nshards int) {
	ts, _ := walServer(t, nshards)

	// Traffic on several paths: a repair CTAS (native), a select, an
	// aggregate (the bounded arm), and inserts routing to shards.
	if code, out := post(t, ts.URL+"/exec", `
create table Clean as select * from Census repair by key SSN;
select certain Name from Clean;
select count(*) as N from Clean;
create table Audit (Who, What);
insert into Audit values ('a', 1);
insert into Audit values ('b', 2);
`); code != http.StatusOK {
		t.Fatalf("traffic: %d %s", code, out)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if err := obs.LintProm(data); err != nil {
		t.Fatalf("invalid Prometheus exposition: %v\n%s", err, data)
	}
	for _, series := range []string{
		"wsdb_catalog_version",
		"wsdb_catalog_components",
		"wsdb_catalog_max_alternatives",
		"wsdb_catalog_worlds_log2",
		"wsdb_catalog_shards",
		"wsdb_requests_total",
		"wsdb_request_seconds",
		"wsdb_execs_total",
		"wsdb_exec_path_total",
		"wsdb_exec_op_total",
		"wsdb_shard_version",
		"wsdb_shard_commits_total",
		"wsdb_shard_conflicts_total",
		"wsdb_shard_pending",
		"wsdb_shard_wal_fsyncs_total",
		"wsdb_commit_queue_seconds",
		"wsdb_wal_fsync_seconds",
		"wsdb_relation_certain_tuples",
		"wsdb_relation_alternative_tuples",
		"wsdb_relation_components",
		"wsdb_sessions",
		"wsdb_checkpoint_age_seconds",
		"wsdb_checkpoint_disk_bytes",
		"wsdb_wal_tail_records",
		"wsdb_select_index_probes_total",
		"wsdb_select_scans_total",
		"wsdb_handler_panics_total",
	} {
		if !obs.HasSeries(data, series) {
			t.Errorf("missing required series %s", series)
		}
	}
	// Every shard exposes its commit counter, a fsync histogram (count
	// line per shard) and its WAL tail.
	for si := 0; si < nshards; si++ {
		shard := fmt.Sprintf(`{shard="%d"}`, si)
		for _, series := range []string{"wsdb_wal_fsync_seconds_count", "wsdb_shard_commits_total", "wsdb_wal_tail_records"} {
			if !strings.Contains(string(data), series+shard) {
				t.Errorf("missing per-shard series %s%s", series, shard)
			}
		}
	}
	// The repaired relation reports its decomposition split.
	if !strings.Contains(string(data), `wsdb_relation_alternative_tuples{relation="Clean"}`) {
		t.Error("missing decomposition gauge for relation Clean")
	}
}

// TestMetricsMaxAlternatives: wsdb_catalog_max_alternatives reports
// the largest component's alternative count, and shows a choice-of over
// an uncertain answer refining a 2-alternative component into 4.
func TestMetricsMaxAlternatives(t *testing.T) {
	ts := serveCat(t, store.New(nil))
	gauge := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.LintProm(data); err != nil {
			t.Fatalf("invalid Prometheus exposition: %v", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "wsdb_catalog_max_alternatives "); ok {
				return v
			}
		}
		t.Fatal("missing wsdb_catalog_max_alternatives")
		return ""
	}
	if got := gauge(); got != "0" {
		t.Fatalf("empty catalog: max alternatives %s, want 0", got)
	}
	for _, step := range []struct{ sql, want string }{
		{`create table T (A, B);
insert into T values (1, 'x');
insert into T values (1, 'y');
insert into T values (2, 'x');
insert into T values (2, 'y');
create table U as select * from T choice of A;`, "2"},
		{"create table P as select * from U choice of B;", "4"},
	} {
		if code, out := post(t, ts.URL+"/exec", step.sql); code != http.StatusOK {
			t.Fatalf("%s: %d %s", step.sql, code, out)
		}
		if got := gauge(); got != step.want {
			t.Fatalf("after %q: max alternatives %s, want %s", step.sql, got, step.want)
		}
	}
}

// TestMetricsDurabilityGauges asserts the durability series on a
// paged, 4-shard catalog: after a checkpoint, the one checkpoint file
// reports a non-negative age, a non-zero size on disk and the
// checkpoint-bytes histogram, each once and without a shard label, and
// every shard an empty WAL tail — and the exposition stays
// promlint-clean.
func TestMetricsDurabilityGauges(t *testing.T) {
	ts, cat := shardedWALServer(t)
	if code, out := post(t, ts.URL+"/exec", `
create table Audit (Who, What);
insert into Audit values ('a', 1);
insert into Audit values ('b', 2);
`); code != http.StatusOK {
		t.Fatalf("traffic: %d %s", code, out)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if err := obs.LintProm(data); err != nil {
		t.Fatalf("invalid Prometheus exposition: %v\n%s", err, data)
	}
	for _, series := range []string{
		"wsdb_checkpoint_age_seconds",
		"wsdb_checkpoint_disk_bytes",
		"wsdb_wal_tail_records",
		"wsdb_checkpoints_total",
		"wsdb_checkpoint_noop_skips_total",
		"wsdb_checkpoint_pages_written_total",
		"wsdb_bufpool_hits_total",
		"wsdb_bufpool_misses_total",
		"wsdb_bufpool_evictions_total",
		"wsdb_checkpoint_bytes",
	} {
		if !obs.HasSeries(data, series) {
			t.Errorf("missing required series %s", series)
		}
	}
	// Checkpoint series describe one file: one unlabelled sample each.
	// WAL tails stay per shard.
	samples := map[string]int{}
	tails := 0
	for _, line := range strings.Split(string(data), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(name, "wsdb_checkpoint") || strings.HasPrefix(name, "wsdb_bufpool") {
			if strings.Contains(name, "shard=") {
				t.Errorf("checkpoint series carries a shard label: %s", line)
			}
			samples[name]++
		}
		switch {
		case strings.HasPrefix(name, "wsdb_wal_tail_records{"):
			tails++
			if value != "0" {
				t.Errorf("non-empty WAL tail after checkpoint: %s", line)
			}
		case name == "wsdb_checkpoint_age_seconds" && strings.HasPrefix(value, "-"):
			t.Errorf("checkpoint age unset after checkpoint: %s", line)
		case name == "wsdb_checkpoint_disk_bytes" && value == "0":
			t.Errorf("empty base file after checkpoint: %s", line)
		}
	}
	for _, name := range []string{"wsdb_checkpoint_age_seconds", "wsdb_checkpoint_disk_bytes", "wsdb_checkpoints_total", "wsdb_checkpoint_bytes_count", "wsdb_bufpool_hits_total"} {
		if samples[name] != 1 {
			t.Errorf("%s has %d samples, want 1", name, samples[name])
		}
	}
	if tails != 4 {
		t.Errorf("%d wsdb_wal_tail_records samples, want one per shard (4)", tails)
	}
}

// TestHealthzShardEpochs asserts /healthz reports the shard count and
// per-shard durable epochs (the CI recovery smoke greps these).
func TestHealthzShardEpochs(t *testing.T) {
	ts, _ := shardedWALServer(t)
	if code, out := post(t, ts.URL+"/exec", `create table Audit (Who); insert into Audit values ('x');`); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		Status      string   `json:"status"`
		Version     uint64   `json:"version"`
		Shards      int      `json:"shards"`
		ShardEpochs []uint64 `json:"shard_epochs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Shards != 4 || len(h.ShardEpochs) != 4 {
		t.Fatalf("healthz = %+v, want ok/4 shards/4 epochs", h)
	}
	var max uint64
	for _, e := range h.ShardEpochs {
		if e > max {
			max = e
		}
	}
	if max == 0 {
		t.Fatalf("healthz = %+v: no shard published a durable epoch after commits", h)
	}
}

// TestStatsShapeGolden pins the JSON key set of /stats (top-level and
// the nested exec object) so the document stays backward-compatible:
// keys may be added, but a missing or renamed key fails here first.
func TestStatsShapeGolden(t *testing.T) {
	ts := censusServer(t, 50, 10)
	// Populate every optional section: a repair (native exec), an
	// aggregate (legacy op attribution), a prepared statement, a sticky
	// session.
	if code, out := post(t, ts.URL+"/exec",
		`create table Clean as select * from Census repair by key SSN; select count(*) as N from Clean;`); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	if code, out := post(t, ts.URL+"/prepare", `prepare q1 as select certain Name from Clean;`); code != http.StatusOK {
		t.Fatalf("prepare: %d %s", code, out)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/exec", strings.NewReader("begin;"))
	req.Header.Set(SessionHeader, "shape-test")
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, k := range sortedKeySet(doc) {
		lines = append(lines, k)
	}
	var execDoc map[string]json.RawMessage
	if err := json.Unmarshal(doc["exec"], &execDoc); err != nil {
		t.Fatal(err)
	}
	for _, k := range sortedKeySet(execDoc) {
		lines = append(lines, "exec."+k)
	}
	got := strings.Join(lines, "\n") + "\n"

	goldenPath := filepath.Join("testdata", "stats_shape.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	for _, key := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if !contains(lines, key) {
			t.Errorf("/stats lost key %q (shape must stay backward-compatible)", key)
		}
	}
	if got != string(want) {
		t.Logf("note: /stats keys differ from golden (additions are fine):\ngot:\n%swant:\n%s", got, want)
	}
}

func sortedKeySet(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestSlowQueryLog asserts statements over the threshold emit their
// span tree as one JSON line each, and that the trace detaches from
// the session afterwards.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	cat := store.FromComplete([]string{"Census"},
		[]*relation.Relation{datagen.Census(50, 10, 7)})
	ts := serveCat(t, cat, WithSlowQuery(time.Nanosecond, w))
	if code, out := post(t, ts.URL+"/exec",
		`create table Clean as select * from Census repair by key SSN; select certain Name from Clean;`); code != http.StatusOK {
		t.Fatalf("exec: %d %s", code, out)
	}
	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("slow-query log has %d lines, want 2:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for _, line := range lines {
		var span struct {
			Name     string            `json:"name"`
			DurNs    int64             `json:"dur_ns"`
			Attrs    map[string]string `json:"attrs"`
			Children []json.RawMessage `json:"children"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
		}
		if span.Name != "stmt" || span.Attrs["sql"] == "" || len(span.Children) == 0 {
			t.Fatalf("span tree incomplete: %s", line)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestConcurrentMetricsRace hammers the new counters and histograms
// from concurrent writers while /metrics and /stats read them — run
// under -race in CI.
func TestConcurrentMetricsRace(t *testing.T) {
	ts, _ := shardedWALServer(t, WithTxnRetries(32), WithSlowQuery(time.Nanosecond, io.Discard))
	if code, out := post(t, ts.URL+"/exec", `create table Audit (Who, What);`); code != http.StatusOK {
		t.Fatalf("setup: %d %s", code, out)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				stmt := "insert into Audit values ('w" + string(rune('a'+i)) + "', " + string(rune('0'+j)) + ");"
				resp, err := http.Post(ts.URL+"/exec", "text/plain", strings.NewReader(stmt))
				if err != nil {
					t.Error(err)
					return
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d: %d %s", i, resp.StatusCode, out)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if err := obs.LintProm(buf.Bytes()); err != nil {
					t.Errorf("metrics under load: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
