// Package obs is the engine's low-overhead observability layer:
// monotonic-clock span traces for per-statement attribution (parse →
// rewrite → per-operator evaluation → commit → fsync), atomic counters
// and fixed-bucket latency histograms for aggregation, and a Prometheus
// text exporter with a lint-grade validator for CI.
//
// Everything is built to cost nothing when disabled: a nil *Span is a
// valid no-op receiver for every method, so instrumented code paths
// carry a single nil pointer and never branch into allocation, and
// Histogram/Counter are zero-value-usable atomics that embed by value
// into existing structs (the WAL, shard states) without constructors.
package obs

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Attr is one key=value annotation on a span.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one timed region of a statement's execution. Spans form a
// tree: the root is the statement, children are stages (parse, compile,
// exec, commit) and operator evaluations. A nil *Span is the disabled
// tracer — every method is a no-op on it — so call sites thread one
// pointer unconditionally.
//
// The mutex guards children and attrs: the group-commit flush leader
// attaches wal.queue/wal.fsync spans to a committer's trace from its
// own goroutine (the done-channel handoff orders the attach before the
// committer reads the tree).
type Span struct {
	Name  string
	Start time.Time
	Dur   time.Duration

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	ended    bool
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}

func newSpan(name string, start time.Time) *Span {
	s := spanPool.Get().(*Span)
	s.Name, s.Start, s.Dur = name, start, 0
	s.attrs, s.children, s.ended = s.attrs[:0], s.children[:0], false
	return s
}

// NewTrace starts a root span. Callers that decide tracing is off pass
// the nil *Span instead and the whole tree never allocates.
func NewTrace(name string) *Span { return newSpan(name, time.Now()) }

// Release returns the span tree to the pool. Call only once the trace
// is fully rendered/serialized and no reference escapes (the EXPLAIN
// ANALYZE and slow-query paths call it after emitting).
func (s *Span) Release() {
	if s == nil {
		return
	}
	for _, c := range s.children {
		c.Release()
	}
	s.children = s.children[:0]
	s.attrs = s.attrs[:0]
	spanPool.Put(s)
}

// Child starts a sub-span now. End it with End.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name, time.Now())
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildSpan attaches an already-measured interval as a completed child
// — the group-commit flush leader uses it to stamp a committer's queue
// wait and fsync share from outside the committer's goroutine.
func (s *Span) ChildSpan(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name, start)
	c.Dur, c.ended = d, true
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Event records an instantaneous annotated child (merge records, plan
// decisions) — rendered like a span with zero duration.
func (s *Span) Event(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name, time.Now())
	c.ended = true
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stops the span's clock. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.Dur = time.Since(s.Start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Set annotates the span.
func (s *Span) Set(key, val string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, val})
	s.mu.Unlock()
	return s
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) *Span {
	return s.Set(key, strconv.FormatInt(v, 10))
}

// Duration returns the span's measured duration (0 while running).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Dur
}

// Render formats the span tree, one span per line, indented by depth:
//
//	stmt t=1.2ms
//	  parse t=80µs
//	  exec t=900µs op=select
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	s.mu.Lock()
	name, dur := s.Name, s.Dur
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(name)
	fmt.Fprintf(b, " t=%s", dur.Round(time.Nanosecond))
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Val)
	}
	b.WriteByte('\n')
	for _, c := range children {
		c.render(b, depth+1)
	}
}

var durRe = regexp.MustCompile(`(^|[ ])t=[^ \n]+`)

// NormalizeDurations replaces every rendered t=<duration> with t=X so
// golden tests pin the tree shape and annotations, not the timings.
func NormalizeDurations(rendered string) string {
	return durRe.ReplaceAllString(rendered, "${1}t=X")
}

// MarshalJSON serializes the span tree (slow-query log lines); see
// AppendJSON.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return s.AppendJSON(nil), nil
}

// AppendJSON appends the span tree's slow-query-log serialization to b:
// {"name":…,"dur_ns":…,"attrs":{…},"children":[…]}, with attributes
// ordered by key (a repeated key keeps its last value), empty attrs and
// children left out, and strings escaped as encoding/json escapes them.
// It is written by hand because the log serializes every traced
// statement: through encoding/json's reflection it cost as much as the
// statement it described.
func (s *Span) AppendJSON(b []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b = append(b, `{"name":`...)
	b = appendJSONString(b, s.Name)
	b = append(b, `,"dur_ns":`...)
	b = strconv.AppendInt(b, s.Dur.Nanoseconds(), 10)
	if len(s.attrs) > 0 {
		var buf [16]Attr
		attrs := append(buf[:0], s.attrs...)
		slices.SortStableFunc(attrs, func(x, y Attr) int { return strings.Compare(x.Key, y.Key) })
		b = append(b, `,"attrs":{`...)
		for i, a := range attrs {
			if i+1 < len(attrs) && attrs[i+1].Key == a.Key {
				continue // a later Set of the key wins
			}
			if b[len(b)-1] != '{' {
				b = append(b, ',')
			}
			b = append(appendJSONString(b, a.Key), ':')
			b = appendJSONString(b, a.Val)
		}
		b = append(b, '}')
	}
	if len(s.children) > 0 {
		b = append(b, `,"children":[`...)
		for i, c := range s.children {
			if i > 0 {
				b = append(b, ',')
			}
			b = c.AppendJSON(b)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendJSONString appends str as a JSON string, escaped byte for byte
// as encoding/json.Marshal escapes it: quote, backslash and control
// characters, the HTML-significant <, > and &, U+2028 and U+2029, and
// invalid UTF-8 as U+FFFD.
func appendJSONString(b []byte, str string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(str); {
		if c := str[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, str[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(str[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, str[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, str[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, str[start:]...), '"')
}

// SortedAttrs returns the span's annotations sorted by key (tests).
func (s *Span) SortedAttrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]Attr(nil), s.attrs...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Children returns the span's direct children (tests, log walkers).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}
