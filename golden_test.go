// Golden-file tests for the paper's running examples. Each scenario
// renders its result world-sets deterministically and compares them
// byte-for-byte against a committed file under testdata/, so engine
// refactors (parallel executors, hash-table rewrites, new decoders)
// cannot silently change semantics: any drift shows up as a diff, and an
// intended change has to be re-recorded explicitly with -update.
//
// Regenerate with:
//
//	go test -run TestGolden -update ./...
package worldsetdb_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/isql"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run 'go test -run TestGolden -update ./...'): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenFigure2Pipeline records the Figure 2 world-creation
// pipeline: χ_Dep(Flights) creates one world per departure city, and
// the certain arrivals across those worlds are the trip-planning answer.
func TestGoldenFigure2Pipeline(t *testing.T) {
	ws := worldset.FromDB([]string{"Flights"}, []*relation.Relation{datagen.PaperFlights()})
	chi := &wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "Flights"}}
	chosen := wsa.MustRun(chi, ws, "Chosen")
	cert := wsa.MustRun(wsa.NewCert(&wsa.Project{Columns: []string{"Arr"}, From: chi}), ws, "CertainArr")

	var b strings.Builder
	b.WriteString("== choice-of Dep: one world per departure ==\n")
	b.WriteString(chosen.String())
	b.WriteString("\n== certain arrivals across all worlds ==\n")
	b.WriteString(cert.String())
	checkGolden(t, "figure2_pipeline", b.String())
}

// figure8Query builds q1 (close = cert) / q2 (close = poss) of Figures
// 8 and 9 over the trip-planning schema.
func figure8Query(close wsa.CloseKind) wsa.Expr {
	inner := wsa.NewPossGroup([]string{"Dep"}, nil,
		&wsa.Choice{Attrs: []string{"Dep", "City"},
			From: wsa.NewProduct(&wsa.Rel{Name: "HFlights"}, &wsa.Rel{Name: "Hotels"})})
	return &wsa.Close{Kind: close,
		From: &wsa.Project{Columns: []string{"City"},
			From: &wsa.Select{Pred: ra.Eq("Arr", "City"), From: inner}}}
}

// goldenRewritePair runs a Figure 8/9 query and its optimizer rewrite,
// asserts they agree (the point of §6), and records both the rewritten
// form and the shared answers.
func goldenRewritePair(t *testing.T, name string, close wsa.CloseKind) {
	t.Helper()
	q := figure8Query(close)
	env := wsa.NewEnv(
		[]string{"HFlights", "Hotels"},
		[]relation.Schema{relation.NewSchema("Dep", "Arr"), relation.NewSchema("Name", "City", "Price")})
	opt, _ := rewrite.Optimize(q, env, true)
	ws := worldset.FromDB([]string{"HFlights", "Hotels"},
		[]*relation.Relation{datagen.PaperFlights(), datagen.PaperHotels()})
	orig := wsa.MustRun(q, ws, "Ans")
	rewritten := wsa.MustRun(opt, ws, "Ans")
	if !orig.EqualWorlds(rewritten) {
		t.Fatalf("rewritten query disagrees with original\noriginal: %s\nrewritten: %s", q, opt)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query:     %s\n", q)
	fmt.Fprintf(&b, "rewritten: %s\n\n", opt)
	b.WriteString(orig.String())
	checkGolden(t, name, b.String())
}

// TestGoldenQ1Rewrite is the Figure 8 pair q1/q1′ on the paper's
// trip-planning instance.
func TestGoldenQ1Rewrite(t *testing.T) { goldenRewritePair(t, "q1_rewrite", wsa.CloseCert) }

// TestGoldenQ2Rewrite is the Figure 9 pair q2/q2′.
func TestGoldenQ2Rewrite(t *testing.T) { goldenRewritePair(t, "q2_rewrite", wsa.ClosePoss) }

// TestGoldenCensusRepair records the §2 census repair: two key
// violations, hence 2·2 = 4 repairs, queried for certain and possible
// facts.
func TestGoldenCensusRepair(t *testing.T) {
	s := isql.FromDB([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	if _, err := s.ExecString("create table Clean as select * from Census repair by key SSN;"); err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecString("select certain Name from Clean;")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("== repairs of Census by key SSN ==\n")
	b.WriteString(s.WorldSet().String())
	b.WriteString("\n== certain names across repairs ==\n")
	for _, a := range res.Answers {
		b.WriteString(a.Render("CertainNames"))
	}
	checkGolden(t, "census_repair", b.String())
}

// TestGoldenCensusRepairWSDX pins the factorized engine's answers on
// the census-repair view at a scale no enumerating engine can touch:
// 40 duplicated SSNs mean 2^40 repairs, yet cert and poss come out of
// internal/wsdexec directly on the decomposition — the plans are
// asserted native, so any regression that silently reintroduces
// enumeration fails here before it fails a benchmark. The small-scale
// enumerating golden (TestGoldenCensusRepair) stays alongside.
func TestGoldenCensusRepairWSDX(t *testing.T) {
	census := datagen.Census(50, 40, 7)
	db := wsd.FromComplete([]string{"Census"}, []*relation.Relation{census})
	repair := &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}
	outC, planC, err := wsdexec.Eval(wsa.NewCert(repair), db)
	if err != nil {
		t.Fatal(err)
	}
	outP, planP, err := wsdexec.Eval(wsa.NewPoss(repair), db)
	if err != nil {
		t.Fatal(err)
	}
	if !planC.Native || !planP.Native {
		t.Fatalf("plans must be native: cert=%v poss=%v", planC, planP)
	}
	ansC, ansP := outC.Certain[1], outP.Certain[1]
	var b strings.Builder
	fmt.Fprintf(&b, "== census repair by key SSN: %s worlds (2^40), decomposition size %d ==\n\n",
		outC.Worlds(), outC.Size())
	b.WriteString("== certain persons across all repairs (wsdexec, no enumeration) ==\n")
	b.WriteString(ansC.Render("CertainCensus"))
	b.WriteString("\n== possible persons across all repairs (wsdexec, no enumeration) ==\n")
	b.WriteString(ansP.Render("PossibleCensus"))
	checkGolden(t, "census_repair_wsdx", b.String())
}

// TestGoldenTripPlanning records the §2 I-SQL trip-planning question:
// destinations reachable regardless of the chosen departure.
func TestGoldenTripPlanning(t *testing.T) {
	s := isql.FromDB([]string{"HFlights"}, []*relation.Relation{datagen.PaperFlights()})
	res, err := s.ExecString("select certain Arr from HFlights choice of Dep;")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("== select certain Arr from HFlights choice of Dep ==\n")
	for _, a := range res.Answers {
		b.WriteString(a.Render("CertainArr"))
	}
	checkGolden(t, "trip_planning", b.String())
}
