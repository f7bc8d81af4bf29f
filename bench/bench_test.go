package main

import (
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	ten := ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, c := range []struct {
		sorted []time.Duration
		q      float64
		want   int
	}{
		{ten, 0.50, 5},  // ceil(0.5*10) = 5th
		{ten, 0.95, 10}, // ceil(9.5) = 10th
		{ten, 0.90, 9},
		{ten, 0.01, 1},
		{ten, 1, 10},
		{ms(7), 0.5, 7},
		{ms(1, 2, 3), 0.5, 2},
		{ms(1, 2, 3, 4), 0.5, 2}, // nearest rank takes the lower middle
		{nil, 0.5, 0},
	} {
		if got := quantile(c.sorted, c.q); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("quantile(%v, %v) = %v, want %dms", c.sorted, c.q, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

// Two -slow-query lines as isqld writes them: an autocommitted insert
// and an aggregate answered by the bounded evaluator.
const (
	insertLine = `{"name":"stmt","dur_ns":1341547,"attrs":{"sql":"insert into Log0 values (0, 1, 5)"},"children":[{"name":"commit","dur_ns":1337537,"children":[{"name":"wal.delta","dur_ns":34044},{"name":"wal.queue","dur_ns":1231},{"name":"wal.fsync","dur_ns":1009767,"attrs":{"batch":"1"}}]}]}`
	aggLine    = `{"name":"stmt","dur_ns":9098060,"attrs":{"sql":"select sum(V) as S from Pick1"},"children":[{"name":"compile","dur_ns":9391,"attrs":{"plan-cache":"miss"}},{"name":"exec.bounded","dur_ns":1582938,"children":[{"name":"op:rel:Pick1","dur_ns":1000}]}]}`
)

func TestSpanSelfTime(t *testing.T) {
	sum := summarize([][]byte{[]byte(insertLine), []byte(aggLine), []byte("not json\n")})
	if sum.unparsed != 1 {
		t.Errorf("unparsed = %d, want 1", sum.unparsed)
	}
	for name, want := range map[string]spanStat{
		"stmt":         {Count: 2, DurNs: 1341547 + 9098060, SelfNs: (1341547 - 1337537) + (9098060 - 9391 - 1582938)},
		"commit":       {Count: 1, DurNs: 1337537, SelfNs: 1337537 - 34044 - 1231 - 1009767},
		"wal.fsync":    {Count: 1, DurNs: 1009767, SelfNs: 1009767},
		"exec.bounded": {Count: 1, DurNs: 1582938, SelfNs: 1581938},
		"op:rel":       {Count: 1, DurNs: 1000, SelfNs: 1000},
	} {
		if got := sum.byName[name]; got == nil || *got != want {
			t.Errorf("span %s = %+v, want %+v", name, got, want)
		}
	}
	if sum.commits != 1 || sum.commitNs != 1337537 {
		t.Errorf("commits = %d in %dns, want 1 in 1337537ns", sum.commits, sum.commitNs)
	}
	// The bounded evaluator's cost is its span plus the statement's self time.
	if want := int64(1582938 + 9098060 - 9391 - 1582938); sum.boundedStmts != 1 || sum.boundedNs != want {
		t.Errorf("bounded = %d stmts, %dns, want 1, %dns", sum.boundedStmts, sum.boundedNs, want)
	}
	if sum.planSeen != 1 || sum.planHits != 0 {
		t.Errorf("plan cache = %d/%d, want 0/1", sum.planHits, sum.planSeen)
	}
	// A child longer than its parent (clock skew between goroutines)
	// leaves no negative self time.
	if s := (&span{DurNs: 5, Children: []span{{DurNs: 9}}}); s.self() != 0 {
		t.Errorf("self = %d, want 0", s.self())
	}
}

func TestPromDelta(t *testing.T) {
	before := parseProm(`# HELP wsdb_requests_total HTTP requests served per endpoint.
# TYPE wsdb_requests_total counter
wsdb_requests_total{endpoint="exec"} 4
wsdb_requests_total{endpoint="execute"} 2
wsdb_request_seconds_sum{endpoint="exec"} 0.5
wsdb_wal_fsync_seconds_count{shard="0"} 3
wsdb_wal_fsync_seconds_count{shard="1"} 1
wsdb_rewrite_expanded_total 3
`)
	after := parseProm(`wsdb_requests_total{endpoint="exec"} 10
wsdb_requests_total{endpoint="execute"} 2
wsdb_request_seconds_sum{endpoint="exec"} 0.75
wsdb_wal_fsync_seconds_count{shard="0"} 5
wsdb_wal_fsync_seconds_count{shard="1"} 4
wsdb_rewrite_expanded_total 3
wsdb_checkpoints_total{shard="0"} 2
`)
	d := promDelta(before, after)
	for _, c := range []struct {
		got, want float64
	}{
		{d.sum("wsdb_requests_total"), 6},
		{d.sum("wsdb_requests_total", `endpoint="exec"`), 6},
		{d.sum("wsdb_requests_total", `endpoint="execute"`), 0},
		{d.sum("wsdb_request_seconds_sum"), 0.25},
		{d.sum("wsdb_wal_fsync_seconds_count"), 5}, // summed over shards
		{d.sum("wsdb_rewrite_expanded_total"), 0},
		{d.sum("wsdb_checkpoints_total"), 2}, // a series that appeared in the window
		{d.sum("wsdb_requests"), 0},          // a prefix is not the metric
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("delta = %v, want %v", c.got, c.want)
		}
	}
}

// stream is the first n requests of one client's stream.
func stream(w workload, seed int64, client, n int) []string {
	g := newGenerator(w, w.fixedRequests(), seed, client)
	out := make([]string, n)
	for i := range out {
		r, _ := g.next()
		out[i] = r.endpoint + " " + r.body
	}
	return out
}

func TestRequestStreamFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, again, other := stream(w, 1, 0, 500), stream(w, 1, 0, 500), stream(w, 2, 0, 500)
		same := 0
		for i := range a {
			if a[i] != again[i] {
				t.Fatalf("%s: request %d differs between two streams of seed 1", w.name, i)
			}
			if a[i] == other[i] {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
	}
}

func TestMixIsExact(t *testing.T) {
	w := workloads[3] // mixed_sharded: 70 % reads, 15 % aggregates, 15 % writes
	g := newGenerator(w, w.fixedRequests(), 1, 0)
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		r, _ := g.next()
		counts[r.class]++
	}
	if counts[classRead] != 1400 || counts[classAgg] != 300 || counts[classWrite] != 300 {
		t.Errorf("mix over 2000 requests = %v, want 1400/300/300", counts)
	}
	if a, l := auditTable(0, w.shards), logTable(0); a == l {
		t.Errorf("audit table %s is the log table", a)
	}
}

// TestSmoke runs every workload for a second in each trace mode against
// the real binary and holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts isqld processes")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	jan := &janitor{procs: map[*exec.Cmd]bool{}}
	defer jan.sweep()
	h := &harness{jan: jan, root: root, scratch: filepath.Join(root, ".bench_build"), clients: 2}
	h.bin = filepath.Join(h.scratch, "isqld")
	if _, err := buildServer(root, h.bin); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the harness", i, spec.Workloads[i].Name, w.name)
		}
		for _, mode := range []struct {
			specs []metricSpec
			run   func(workload, int64, time.Duration) (*runRecord, error)
		}{{spec.EndToEnd, h.runUntraced}, {spec.PerLayer, h.runTraced}} {
			rec, err := mode.run(w, 1, time.Second)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed: %s", w.name, rec.Trace, rec.Correct, rec.Failed, rec.Attempted, rec.FirstErr)
			}
			line, err := contractLine(rec, mode.specs)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, rec.Trace, err)
			}
			var got resultLine
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatal(err)
			}
			for _, s := range mode.specs {
				if m, ok := got.Metrics[s.Name]; !ok || m.Unit != s.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.name, rec.Trace, s.Name, m, s.Unit)
				}
			}
			for _, s := range spec.EndToEnd {
				if rec.Trace == 0 && rec.Metrics[s.Name] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, s.Name, rec.Metrics[s.Name])
				}
			}
		}
	}
}
