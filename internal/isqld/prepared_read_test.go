package isqld

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/store"
)

// benchPrepares are the three prepared fragment selects of the bench/
// read path (bench/workload.go), over the same catalog.
const benchPrepares = `prepare poss_by_pob_pow as select possible Name from Clean where POB = $1 and POW = $2;
prepare cert_by_pow_pob as select certain Name from Clean where POW = $1 and POB = $2;
prepare by_ssn as select possible Name, POB, POW from Clean where SSN = $1;`

// preparedReadHandler serves CensusRepairDecomp(1000, 40, 1) — 2^40
// worlds — with the bench statements prepared, and returns a function
// posting one request straight at the handler (no network, so the
// allocation count is the server's own).
func preparedReadHandler(t testing.TB) func(path, body string) string {
	t.Helper()
	srv := New(store.New(datagen.CensusRepairDecomp(1000, 40, 1)))
	t.Cleanup(srv.Close)
	h := srv.Handler()
	do := func(path, body string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %q: status %d\n%s", path, body, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	do("/prepare", benchPrepares)
	return do
}

// preparedReadCalls are one call of each statement, with its ceiling on
// allocations per /execute (TestPreparedReadAllocCeiling).
var preparedReadCalls = []struct {
	name, call string
	ceiling    float64
}{
	{"poss", "poss_by_pob_pow('NYC', 'LA')", 285},
	{"cert", "cert_by_pow_pob('LA', 'NYC')", 280},
	{"by-ssn", fmt.Sprintf("by_ssn(%d)", 100000+517), 115},
}

// TestPreparedReadAllocCeiling pins the allocations of one prepared
// /execute over the 2^40-world census, per statement, about 10 % above
// what they cost when a read binds, probes and renders and nothing
// else: 257 (poss, 45 answer rows), 252 (cert, 40) and 103 (by-ssn, 1).
// Building the stored relation's view per request instead of once per
// snapshot — 81 renamed pieces, their part map and piece list — adds
// 343 to each; copying the table before selecting from it costs
// 2.4–2.8k in all.
func TestPreparedReadAllocCeiling(t *testing.T) {
	do := preparedReadHandler(t)
	for _, c := range preparedReadCalls {
		if out := do("/execute", c.call); !strings.Contains(out, "answer") {
			t.Fatalf("%s: no answer:\n%s", c.name, out)
		}
		if got := testing.AllocsPerRun(50, func() { do("/execute", c.call) }); got > c.ceiling {
			t.Errorf("%s: %.0f allocations per /execute, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestPreparedExecuteSkipsCompile: on a 48-way disjunction, whose cost
// is mostly parsing and compilation, a prepared /execute runs the plan
// its first execution compiled — no rewrite search — while /exec of the
// same text parses, compiles and searches on every request; /execute
// allocates at most two thirds of what /exec does.
func TestPreparedExecuteSkipsCompile(t *testing.T) {
	do := preparedReadHandler(t)
	var q strings.Builder
	q.WriteString("select certain Name from Clean where ")
	for i := 0; i < 48; i++ {
		if i > 0 {
			q.WriteString(" or ")
		}
		fmt.Fprintf(&q, "POB = 'C%d'", i)
	}
	q.WriteString(";")
	do("/prepare", "prepare q as "+q.String())
	do("/execute", "q") // the first execution compiles the plan
	for _, r := range []struct {
		path, body string
		search     bool
	}{{"/exec", q.String(), true}, {"/execute", "q", false}} {
		before := rewrite.SearchExpanded.Value()
		do(r.path, r.body)
		if expanded := rewrite.SearchExpanded.Value() - before; (expanded > 0) != r.search {
			t.Errorf("%s expanded %d rewrite candidates; want a search: %v", r.path, expanded, r.search)
		}
	}
	unprepared := testing.AllocsPerRun(20, func() { do("/exec", q.String()) })
	prepared := testing.AllocsPerRun(20, func() { do("/execute", "q") })
	t.Logf("allocations per request: /exec %.0f, /execute %.0f", unprepared, prepared)
	if 3*prepared > 2*unprepared {
		t.Errorf("/execute allocates %.0f per request, over two thirds of /exec's %.0f", prepared, unprepared)
	}
}

func BenchmarkPreparedRead(b *testing.B) {
	do := preparedReadHandler(b)
	for _, c := range preparedReadCalls {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				do("/execute", c.call)
			}
		})
	}
}
