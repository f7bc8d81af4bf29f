package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	s.End()
	s.Set("k", "v").SetInt("n", 1)
	s.Event("e")
	s.ChildSpan("y", time.Now(), time.Second)
	s.Release()
	if got := s.Render(); got != "" {
		t.Fatalf("nil Render = %q", got)
	}
	if b, err := s.MarshalJSON(); err != nil || string(b) != "null" {
		t.Fatalf("nil MarshalJSON = %s, %v", b, err)
	}
}

func TestSpanTreeRender(t *testing.T) {
	root := NewTrace("stmt")
	p := root.Child("parse")
	p.End()
	e := root.Child("exec")
	e.SetInt("components", 3)
	e.Event("merge").Set("op", "product").SetInt("cost", 16)
	e.End()
	root.ChildSpan("wal.fsync", time.Now(), 5*time.Millisecond).SetInt("batch", 2)
	root.End()

	got := NormalizeDurations(root.Render())
	want := strings.Join([]string{
		"stmt t=X",
		"  parse t=X",
		"  exec t=X components=3",
		"    merge t=X op=product cost=16",
		"  wal.fsync t=X batch=2",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("render mismatch:\n%s\nwant:\n%s", got, want)
	}

	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var js struct {
		Name     string `json:"name"`
		DurNs    int64  `json:"dur_ns"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if err := json.Unmarshal(b, &js); err != nil {
		t.Fatal(err)
	}
	if js.Name != "stmt" || len(js.Children) != 3 || js.Children[1].Name != "exec" {
		t.Fatalf("json tree mismatch: %s", b)
	}
	root.Release()
}

// jsonSpan is the reflection-encoded shape AppendJSON must reproduce
// byte for byte: what the slow-query log wrote through encoding/json.
type jsonSpan struct {
	Name     string            `json:"name"`
	DurNs    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []jsonSpan        `json:"children,omitempty"`
}

func toJSONSpan(s *Span) jsonSpan {
	js := jsonSpan{Name: s.Name, DurNs: s.Dur.Nanoseconds()}
	for _, a := range s.attrs {
		if js.Attrs == nil {
			js.Attrs = map[string]string{}
		}
		js.Attrs[a.Key] = a.Val
	}
	for _, c := range s.children {
		js.Children = append(js.Children, toJSONSpan(c))
	}
	return js
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	root := NewTrace("stmt")
	root.Set("sql", `select "x" from T where A < 1 & B > 2; -- \ tab\t nl\n`)
	root.Set("ctl", "\x00\x01\b\f\r\x1f\x7f")
	root.Set("uni", "caf\u00e9 \u2028\u2029 \xff\xfe ok")
	root.Set("dup", "first").SetInt("n", 7).Set("dup", "last")
	c := root.Child("op:rel:Clean")
	c.SetInt("rows", 1040)
	c.Child("leaf").End()
	c.End()
	root.Event("merge")
	root.End()
	want, err := json.Marshal(toJSONSpan(root))
	if err != nil {
		t.Fatal(err)
	}
	if got := root.AppendJSON(nil); string(got) != string(want) {
		t.Fatalf("AppendJSON:\n%s\nencoding/json:\n%s", got, want)
	}
	if got, err := json.Marshal(root); err != nil || string(got) != string(want) {
		t.Fatalf("json.Marshal(span) = %s, %v; want %s", got, err, want)
	}
	root.Release()
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for i := 0; i < 90; i++ {
		h.Observe(500 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(2 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 < 500*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v, want ~512ns bucket bound", p50)
	}
	if p99 < 2*time.Millisecond || p99 > 8*time.Millisecond {
		t.Fatalf("p99 = %v, want ~2-4ms bucket bound", p99)
	}
	if h.Sum() != 90*500*time.Nanosecond+10*2*time.Millisecond {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clamps into bucket 0
	h.Observe(0)
	h.Observe(time.Hour) // clamps into the overflow bucket
	s := h.Snapshot()
	if s.Buckets[0] != 2 || s.Buckets[histBuckets-1] != 1 {
		t.Fatalf("bucket clamp mismatch: %v", s.Buckets)
	}
}

// TestConcurrentMetrics hammers counters, histograms and one shared
// trace from concurrent writers; run with -race this pins the
// instrumentation as data-race-free (the flush-leader cross-goroutine
// span attach is the real-world analogue).
func TestConcurrentMetrics(t *testing.T) {
	var h Histogram
	var c Counter
	root := NewTrace("concurrent")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					sp := root.Child("work")
					sp.SetInt("worker", int64(w))
					sp.End()
				}
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter=%d hist=%d, want 8000", c.Value(), h.Count())
	}
	if n := len(root.Children()); n != 80 {
		t.Fatalf("children = %d, want 80", n)
	}
	var p Prom
	p.Counter("test_total", "test", "", c.Value())
	p.Histogram("test_seconds", "test", "", h.Snapshot())
	if err := LintProm(p.Bytes()); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestPromExposition(t *testing.T) {
	var h Histogram
	h.Observe(300 * time.Nanosecond)
	h.Observe(3 * time.Millisecond)
	var p Prom
	p.Counter("wsdb_commits_total", "Commits.", Label("shard", "0"), 42)
	p.Counter("wsdb_commits_total", "Commits.", Label("shard", "1"), 7)
	p.Gauge("wsdb_components", "Components.", "", 12)
	p.Histogram("wsdb_fsync_seconds", "Fsync latency.", Label("shard", "0"), h.Snapshot())
	out := p.Bytes()

	if err := LintProm(out); err != nil {
		t.Fatalf("lint rejects builder output: %v\n%s", err, out)
	}
	text := string(out)
	if strings.Count(text, "# TYPE wsdb_commits_total counter") != 1 {
		t.Fatalf("TYPE header not emitted exactly once:\n%s", text)
	}
	for _, want := range []string{
		`wsdb_commits_total{shard="0"} 42`,
		`wsdb_commits_total{shard="1"} 7`,
		"wsdb_components 12",
		`wsdb_fsync_seconds_bucket{shard="0",le="+Inf"} 2`,
		`wsdb_fsync_seconds_count{shard="0"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	for _, name := range []string{"wsdb_commits_total", "wsdb_components", "wsdb_fsync_seconds"} {
		if !HasSeries(out, name) {
			t.Fatalf("HasSeries(%s) = false", name)
		}
	}
	if HasSeries(out, "wsdb_missing") {
		t.Fatal("HasSeries reports a series that is not there")
	}
}

func TestLintPromRejects(t *testing.T) {
	bad := []struct{ name, text string }{
		{"sample before TYPE", "foo 1\n"},
		{"garbage line", "# TYPE foo counter\nfoo{ 1\n"},
		{"bad value", "# TYPE foo counter\nfoo eleven\n"},
		{"unknown type", "# TYPE foo widget\nfoo 1\n"},
		{"incomplete histogram", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 0\nh_count 1\n"},
	}
	for _, tc := range bad {
		if err := LintProm([]byte(tc.text)); err == nil {
			t.Errorf("%s: lint accepted:\n%s", tc.name, tc.text)
		}
	}
	if err := LintProm([]byte("# a free comment\n# TYPE ok counter\nok{a=\"b\",c=\"d\"} 5\n")); err != nil {
		t.Errorf("lint rejected valid text: %v", err)
	}
}
