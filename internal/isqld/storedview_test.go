package isqld

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/isql"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// viewCall is one prepared read of the stored-view differential: the
// /execute call, the unprepared select it stands for, and which tuples
// of Clean its predicate matches.
type viewCall struct {
	call, sql string
	match     func(relation.Tuple) bool
}

// viewCalls builds the bench's three prepared reads over twelve POB/POW
// pairs, every duplicated SSN, one unduplicated SSN per ten, and values
// matching nothing. Clean(SSN, Name, POB, POW).
func viewCalls(n, dups int) []viewCall {
	var calls []viewCall
	for _, pob := range []string{"NYC", "LA", "SF", "Nowhere"} {
		for _, pow := range []string{"NYC", "LA", "Austin"} {
			pob, pow := pob, pow
			match := func(t relation.Tuple) bool { return t[2] == value.Str(pob) && t[3] == value.Str(pow) }
			calls = append(calls,
				viewCall{fmt.Sprintf("poss_by_pob_pow('%s', '%s')", pob, pow),
					fmt.Sprintf("select possible Name from Clean where POB = '%s' and POW = '%s';", pob, pow), match},
				viewCall{fmt.Sprintf("cert_by_pow_pob('%s', '%s')", pow, pob),
					fmt.Sprintf("select certain Name from Clean where POW = '%s' and POB = '%s';", pow, pob), match})
		}
	}
	for i := 0; i < n+2; i++ {
		if i >= dups && i%10 != 0 && i < n {
			continue
		}
		ssn := int64(100000 + i)
		calls = append(calls, viewCall{fmt.Sprintf("by_ssn(%d)", ssn),
			fmt.Sprintf("select possible Name, POB, POW from Clean where SSN = %d;", ssn),
			func(t relation.Tuple) bool { return t[0] == value.Int(ssn) }})
	}
	return calls
}

// TestPreparedMatchesUnpreparedAndReference is the differential check of
// the stored views a prepared read probes: on an enumerable census
// repair at one and four shards, every /execute answer must be
// byte-identical to the unprepared /exec of the same select and to the
// reference engine's answer — for arguments matching only certain
// tuples, only alternative pieces, both, and nothing — before any write,
// after an insert into Clean (a new snapshot whose view of Clean is
// rebuilt and holds the row), and after an insert into Census (a new
// snapshot whose view of Clean holds the same pieces as before).
func TestPreparedMatchesUnpreparedAndReference(t *testing.T) {
	const n, dups = 90, 5 // 90 certain tuples ≥ IndexProbeMin, 2^5 worlds
	calls := viewCalls(n, dups)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cat := store.NewSharded(datagen.CensusRepairDecomp(n, dups, 3), shards)
			srv := New(cat)
			t.Cleanup(srv.Close)
			h := srv.Handler()
			post := func(path, body string) string {
				t.Helper()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %q: status %d\n%s", path, body, rec.Code, rec.Body)
				}
				return rec.Body.String()
			}
			ref := isql.FromCatalog(store.NewSharded(datagen.CensusRepairDecomp(n, dups, 3), shards))
			ref.Engine = "reference"
			post("/prepare", benchPrepares)

			// check runs every call three ways and returns the answers;
			// seen records which kinds of matches the data exercised.
			seen := map[string]bool{}
			check := func(phase string) map[string]string {
				t.Helper()
				db := cat.Snapshot().DB
				ci := db.IndexOf("Clean")
				answers := map[string]string{}
				for _, c := range calls {
					prepared := post("/execute", c.call)
					unprepared := stripEcho(t, post("/exec", c.sql))
					reference, err := RunScript(ref, c.sql)
					if err != nil {
						t.Fatalf("%s: reference %s: %v", phase, c.sql, err)
					}
					if unprepared != prepared || stripEcho(t, reference) != prepared {
						t.Fatalf("%s: %s disagrees\nexecute:\n%s\nexec:\n%s\nreference:\n%s",
							phase, c.call, prepared, unprepared, stripEcho(t, reference))
					}
					answers[c.call] = prepared
					seen[matchKind(db, ci, c.match)] = true
				}
				return answers
			}
			check("seed")
			for _, kind := range []string{"certain only", "alternatives only", "both", "nothing"} {
				if !seen[kind] {
					t.Fatalf("no argument matched %s; the seed no longer covers the cases", kind)
				}
			}

			// A write to Clean publishes a snapshot whose view of Clean is
			// built afresh and holds the new row.
			before := cat.Snapshot().DB
			insert := fmt.Sprintf("insert into Clean values (%d, 'Newcomer', 'NYC', 'LA');", 100000+n+1)
			post("/exec", insert)
			if _, err := RunScript(ref, insert); err != nil {
				t.Fatal(err)
			}
			afterClean := check("after insert into Clean")
			if now := cat.Snapshot().DB; now.Certain[now.IndexOf("Clean")] == before.Certain[before.IndexOf("Clean")] {
				t.Fatalf("insert into Clean left its certain part in place")
			}
			for _, call := range []string{"poss_by_pob_pow('NYC', 'LA')", "cert_by_pow_pob('LA', 'NYC')",
				fmt.Sprintf("by_ssn(%d)", 100000+n+1)} {
				if !strings.Contains(afterClean[call], "Newcomer") {
					t.Fatalf("%s after the insert lacks the new row:\n%s", call, afterClean[call])
				}
			}

			// A write elsewhere publishes a new snapshot — a new
			// decomposition, so a new view of Clean — with the same pieces.
			mid := cat.Snapshot().DB
			insert = fmt.Sprintf("insert into Census values (%d, 'Elsewhere', 'SF', 'SF');", 100000+n+2)
			post("/exec", insert)
			if _, err := RunScript(ref, insert); err != nil {
				t.Fatal(err)
			}
			afterCensus := check("after insert into Census")
			now := cat.Snapshot().DB
			if now == mid {
				t.Fatal("insert into Census published no new decomposition")
			}
			if got, want := cleanView(now), cleanView(mid); got != want {
				t.Fatalf("insert into Census changed the view of Clean\nbefore:\n%s\nafter:\n%s", want, got)
			}
			for call, want := range afterClean {
				if afterCensus[call] != want {
					t.Fatalf("%s changed after an insert into Census:\n%s\nwas:\n%s", call, afterCensus[call], want)
				}
			}
		})
	}
}

// stripEcho drops the `isql> <statement>` line /exec and RunScript
// print before a statement's answer.
func stripEcho(t *testing.T, out string) string {
	t.Helper()
	echo, rest, ok := strings.Cut(out, "\n")
	if !ok || !strings.HasPrefix(echo, "isql> ") {
		t.Fatalf("no statement echo in:\n%s", out)
	}
	return rest
}

// matchKind classifies which parts of Clean a predicate matches.
func matchKind(db *wsd.DecompDB, ci int, match func(relation.Tuple) bool) string {
	inCert, inAlt := false, false
	db.Certain[ci].Each(func(t relation.Tuple) { inCert = inCert || match(t) })
	for _, p := range db.Pieces(ci) {
		p.Rel.Each(func(t relation.Tuple) { inAlt = inAlt || match(t) })
	}
	switch {
	case inCert && inAlt:
		return "both"
	case inCert:
		return "certain only"
	case inAlt:
		return "alternatives only"
	}
	return "nothing"
}

// cleanView renders what a reader of Clean visits: its certain part and
// its pieces, keyed by stable component ID.
func cleanView(db *wsd.DecompDB) string {
	ci := db.IndexOf("Clean")
	var b strings.Builder
	b.WriteString(db.Certain[ci].ContentKey())
	for _, p := range db.Pieces(ci) {
		fmt.Fprintf(&b, "\n%d/%d %s", db.Components[p.Comp].ID, p.Alt, p.Rel.ContentKey())
	}
	return b.String()
}
