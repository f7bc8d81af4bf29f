package main

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of sorted raw
// samples: the smallest sample with at least q of them at or below it.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// span is one node of an isqld -slow-query line.
type span struct {
	Name     string            `json:"name"`
	DurNs    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs"`
	Children []span            `json:"children"`
}

// self is the span's duration minus what its children cover.
func (s *span) self() int64 {
	d := s.DurNs
	for i := range s.Children {
		d -= s.Children[i].DurNs
	}
	if d < 0 {
		return 0
	}
	return d
}

func (s *span) child(name string) *span {
	for i := range s.Children {
		if s.Children[i].Name == name {
			return &s.Children[i]
		}
	}
	return nil
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count  int   `json:"count"`
	DurNs  int64 `json:"dur_ns"`
	SelfNs int64 `json:"self_ns"`
}

// traceSummary is what the harness keeps of a traced window's span trees.
type traceSummary struct {
	byName map[string]*spanStat
	stmts  []time.Duration // every statement's duration, for its median
	// Statements the bounded evaluator answered: its span plus the
	// statement's self time, which is the answer de-duplication that no
	// span of its own covers.
	boundedNs, boundedStmts int64
	// Commits: autocommitted writes carry a commit span with WAL
	// children; a transaction's commit is the statement "commit".
	commitNs, commits  int64
	planHits, planSeen int64
	unparsed           int
}

// spanKey collapses operator spans to their kind: op:rel:Clean → op:rel.
func spanKey(name string) string {
	if strings.HasPrefix(name, "op:") {
		if i := strings.IndexByte(name[3:], ':'); i >= 0 {
			return name[:3+i]
		}
	}
	return name
}

func (t *traceSummary) walk(s *span) {
	st := t.byName[spanKey(s.Name)]
	if st == nil {
		st = &spanStat{}
		t.byName[spanKey(s.Name)] = st
	}
	st.Count++
	st.DurNs += s.DurNs
	st.SelfNs += s.self()
	switch s.Name {
	case "compile":
		if v, ok := s.Attrs["plan-cache"]; ok {
			t.planSeen++
			if v == "hit" {
				t.planHits++
			}
		}
	case "commit":
		if s.child("wal.fsync") != nil {
			t.commits++
			t.commitNs += s.DurNs
		}
	}
	for i := range s.Children {
		t.walk(&s.Children[i])
	}
}

// summarize parses the raw span lines of a traced window.
func summarize(lines [][]byte) *traceSummary {
	t := &traceSummary{byName: map[string]*spanStat{}}
	for _, line := range lines {
		var root span
		if err := json.Unmarshal(line, &root); err != nil || root.Name != "stmt" {
			t.unparsed++
			continue
		}
		t.stmts = append(t.stmts, time.Duration(root.DurNs))
		if b := root.child("exec.bounded"); b != nil {
			t.boundedStmts++
			t.boundedNs += b.DurNs + root.self()
		}
		if root.Attrs["sql"] == "commit" {
			t.commits++
			t.commitNs += root.DurNs
		}
		t.walk(&root)
	}
	sortDurations(t.stmts)
	return t
}

// perSpanUs is the mean duration in µs of the spans of one name.
func (t *traceSummary) perSpanUs(name string) float64 {
	st := t.byName[name]
	if st == nil {
		return 0
	}
	return ratio(float64(st.DurNs)/1e3, float64(st.Count))
}

// ratio is a/b, and 0 when the layer did no work in the window.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// promSample maps a series (name plus label set, as exposed) to its value.
type promSample map[string]float64

// parseProm reads a Prometheus text exposition body.
func parseProm(body string) promSample {
	out := promSample{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every series of the metric, across its label sets; labels,
// when given, must all appear in the series (`endpoint="exec"`).
func (p promSample) sum(metric string, labels ...string) float64 {
	var total float64
series:
	for k, v := range p {
		name, rest, _ := strings.Cut(k, "{")
		if name != metric {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// promDelta is after − before, series by series.
func promDelta(before, after promSample) promSample {
	out := promSample{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
