package isql

import (
	"errors"
	"math/big"
	"strings"
	"testing"
	"time"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// censusRepairSession is a session over datagen.CensusRepairDecomp(200,
// d, 1): Clean, the repair of Census by SSN, with 2^d worlds.
func censusRepairSession(d int, engine string) *Session {
	s := FromCatalog(store.New(datagen.CensusRepairDecomp(200, d, 1)))
	s.Engine = engine
	return s
}

// rendered is a result's answers as the CLI prints them.
func rendered(res *Result) string {
	var b strings.Builder
	for _, a := range res.Answers {
		b.WriteString(a.Render("answer"))
	}
	return b.String()
}

// TestRepairOverRepairMergesNothing: repair-by-key SSN over Clean, itself the
// repair of Census by SSN, conflicts nowhere — every key group holds at
// most one row in every world — so a select and a create-table-as run
// with no merge step at 2^12 and at 2^40 worlds, answer what Clean
// answers, and leave the catalog's world count at 2^d.
func TestRepairOverRepairMergesNothing(t *testing.T) {
	for _, d := range []int{12, 40} {
		s := censusRepairSession(d, "")
		want := new(big.Int).Lsh(big.NewInt(1), uint(d))
		clean := rendered(mustExec(t, s, "select possible SSN, Name from Clean;"))
		for _, sql := range []string{
			"select possible SSN, Name from Clean repair by key SSN;",
			"create table C2 as select * from Clean repair by key SSN;",
		} {
			start := time.Now()
			res := mustExec(t, s, sql)
			t.Logf("d=%d %s %s", d, sql, time.Since(start))
			if res.Plan == nil || !res.Plan.Native || len(res.Plan.Merges) != 0 {
				t.Fatalf("d=%d %s: want a native plan with no merge step, got %v", d, sql, res.Plan)
			}
			if got := s.Worlds(); got.Cmp(want) != 0 {
				t.Fatalf("d=%d %s: catalog holds %s worlds, want 2^%d", d, sql, got, d)
			}
			if len(res.Answers) > 0 && rendered(res) != clean {
				t.Fatalf("d=%d %s: answer differs from Clean's\n%s\nwant\n%s", d, sql, rendered(res), clean)
			}
		}
		if got := rendered(mustExec(t, s, "select possible SSN, Name from C2;")); got != clean {
			t.Fatalf("d=%d: C2 differs from Clean\n%s\nwant\n%s", d, got, clean)
		}
	}
}

// TestChoiceOfRefinesWhatItReads: choice-of over the rows of Clean born
// in LA merges only the components holding such a row, not all 12, and
// answers byte for byte what the reference and legacy engines answer
// over explicit worlds. Over all of Clean at 2^40 worlds the merge is
// refused with the typed budget error.
func TestChoiceOfRefinesWhatItReads(t *testing.T) {
	const sql = "select possible SSN from Clean where POB = 'LA' choice of SSN;"
	db := datagen.CensusRepairDecomp(200, 12, 1)
	clean := db.IndexOf("Clean")
	pob := db.Schemas[clean].Index("POB")
	la := 0 // components with an LA row in some alternative
	for _, c := range db.Components {
		found := false
		for _, a := range c.Alternatives {
			if r := a.Rels[clean]; r != nil {
				r.Each(func(t relation.Tuple) { found = found || t[pob].Equal(value.Str("LA")) })
			}
		}
		if found {
			la++
		}
	}
	s := censusRepairSession(12, "")
	start := time.Now()
	res := mustExec(t, s, sql)
	t.Logf("native: %s", time.Since(start))
	if res.Plan == nil || !res.Plan.Native || len(res.Plan.Merges) != 1 {
		t.Fatalf("want one native refinement, got %v", res.Plan)
	}
	if n := len(res.Plan.Merges[0].Components); n != la || n >= 12 {
		t.Fatalf("refinement merged %d components, want the %d holding an LA row", n, la)
	}
	t.Logf("merged %d of 12 components into %d alternatives", la, res.Plan.Merges[0].Cost)
	want := rendered(res)
	// The engines enumerate 2^12 worlds and branch each: seconds and
	// hundreds of megabytes, several times that under the race detector.
	for _, engine := range []string{"reference", "legacy"} {
		if testing.Short() || raceEnabled {
			t.Logf("engine %q comparison skipped in -short and -race runs", engine)
			continue
		}
		start := time.Now()
		got := rendered(mustExec(t, censusRepairSession(12, engine), sql))
		t.Logf("engine %q: %s", engine, time.Since(start))
		if got != want {
			t.Fatalf("engine %q answers\n%s\nthe native session\n%s", engine, got, want)
		}
	}

	s = censusRepairSession(40, "")
	start = time.Now()
	_, err := s.ExecString("select possible SSN from Clean choice of SSN;")
	t.Logf("refusal at d=40: %s", time.Since(start))
	var be *wsd.BudgetError
	if !errors.As(err, &be) || !strings.Contains(err.Error(), "relations [Clean]") {
		t.Fatalf("choice-of over Clean at 2^40: want a *wsd.BudgetError naming Clean, got %v", err)
	}
}
