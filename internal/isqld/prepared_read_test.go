package isqld

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/store"
)

// benchPrepares are the three prepared fragment selects of the bench/
// read path (bench/workload.go), over the same catalog.
const benchPrepares = `prepare poss_by_pob_pow as select possible Name from Clean where POB = $1 and POW = $2;
prepare cert_by_pow_pob as select certain Name from Clean where POW = $1 and POB = $2;
prepare by_ssn as select possible Name, POB, POW from Clean where SSN = $1;`

// preparedReadHandler serves CensusRepairDecomp(1000, 40, 1) — 2^40
// worlds — with the bench statements prepared, and returns a function
// posting one /execute straight at the handler (no network, so the
// allocation count is the server's own).
func preparedReadHandler(t testing.TB) func(call string) string {
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
	return func(call string) string { return do("/execute", call) }
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
	execute := preparedReadHandler(t)
	for _, c := range preparedReadCalls {
		if out := execute(c.call); !strings.Contains(out, "answer") {
			t.Fatalf("%s: no answer:\n%s", c.name, out)
		}
		if got := testing.AllocsPerRun(50, func() { execute(c.call) }); got > c.ceiling {
			t.Errorf("%s: %.0f allocations per /execute, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

func BenchmarkPreparedRead(b *testing.B) {
	execute := preparedReadHandler(b)
	for _, c := range preparedReadCalls {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				execute(c.call)
			}
		})
	}
}
