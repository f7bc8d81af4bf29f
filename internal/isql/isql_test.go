package isql

import (
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
)

func strTuple(vals ...string) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.Str(v)
	}
	return t
}

func flightsSession() *Session {
	return FromDB([]string{"HFlights"}, []*relation.Relation{datagen.PaperFlights()})
}

func mustExec(t testing.TB, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.ExecString(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// singleAnswer asserts the query has exactly one distinct answer across
// worlds and returns it.
func singleAnswer(t *testing.T, s *Session, sql string) *relation.Relation {
	t.Helper()
	res := mustExec(t, s, sql)
	if len(res.Answers) != 1 {
		t.Fatalf("%s: expected one distinct answer, got %d", sql, len(res.Answers))
	}
	return res.Answers[0]
}

// TestTripPlanningCertain runs the §2 trip-planning query through the
// I-SQL front end: `select certain Arr from HFlights choice of Dep`
// returns {ATL}.
func TestTripPlanningCertain(t *testing.T) {
	got := singleAnswer(t, flightsSession(), "select certain Arr from HFlights choice of Dep;")
	want := relation.FromRows(relation.NewSchema("Arr"), strTuple("ATL"))
	if !got.Equal(want) {
		t.Fatalf("certain arrivals = %v, want {ATL}", got)
	}
}

// TestTripPlanningThreeWays checks the §2 claim that the same question
// is expressible (1) in I-SQL with choice-of + certain, (2) in SQL with
// a division operator, and (3) in plain SQL with two not-exists — all
// returning the same answer.
func TestTripPlanningThreeWays(t *testing.T) {
	queries := []string{
		"select certain Arr from HFlights choice of Dep;",

		"select Arr from (select Arr, Dep from HFlights) as F1 " +
			"divide by (select Dep from HFlights) as F2 on F1.Dep = F2.Dep;",

		"select F1.Arr from HFlights F1 where not exists " +
			"(select * from HFlights F2 where not exists " +
			"(select * from HFlights F3 where F3.Dep = F2.Dep and F3.Arr = F1.Arr));",
	}
	want := relation.FromRows(relation.NewSchema("Arr"), strTuple("ATL"))
	for _, q := range queries {
		got := singleAnswer(t, flightsSession(), q)
		if !got.EqualContents(want) {
			t.Errorf("%s\n  returned %v, want {ATL}", q, got)
		}
	}
}

// TestExample32Delete reproduces Example 3.2 / Figure 2(c): deleting the
// ATL rows in the world-set of Figure 2(b).
func TestExample32Delete(t *testing.T) {
	schema := relation.NewSchema("Dep", "Arr")
	ws := worldset.New([]string{"Flights"}, []relation.Schema{schema})
	ws.Add(worldset.World{relation.FromRows(schema,
		strTuple("FRA", "BCN"), strTuple("FRA", "ATL"))})
	ws.Add(worldset.World{relation.FromRows(schema,
		strTuple("PAR", "ATL"), strTuple("PAR", "BCN"))})
	ws.Add(worldset.World{relation.FromRows(schema, strTuple("PHL", "ATL"))})
	s := FromWorldSet(ws)

	res := mustExec(t, s, "delete from Flights where Arr = 'ATL';")
	if res.Affected != 3 {
		t.Errorf("deleted %d tuples, want 3 (one ATL row per world)", res.Affected)
	}
	// Figure 2(c): {FRA→BCN}, {PAR→BCN}, {} — three worlds.
	if s.WorldSet().Len() != 3 {
		t.Fatalf("world count = %d, want 3\n%s", s.WorldSet().Len(), s.WorldSet())
	}
	want := map[string]bool{
		relation.FromRows(schema, strTuple("FRA", "BCN")).ContentKey(): true,
		relation.FromRows(schema, strTuple("PAR", "BCN")).ContentKey(): true,
		relation.New(schema).ContentKey():                              true,
	}
	for _, w := range s.WorldSet().Worlds() {
		if !want[w[0].ContentKey()] {
			t.Errorf("unexpected world contents:\n%s", w[0])
		}
	}
}

// TestAcquisitionScenario executes the full §2 business-decision script:
// choose a company, one employee leaves, certain skills per target,
// possible targets guaranteeing 'Web'. The paper's tables U, V, W and
// Result are checked at each step.
func TestAcquisitionScenario(t *testing.T) {
	s := FromDB([]string{"Company_Emp", "Emp_Skills"},
		[]*relation.Relation{datagen.PaperCompanyEmp(), datagen.PaperEmpSkills()})

	mustExec(t, s, "create table U as select * from Company_Emp choice of CID;")
	if s.WorldSet().Len() != 2 {
		t.Fatalf("after U: %d worlds, want 2", s.WorldSet().Len())
	}

	mustExec(t, s, `create table V as
		select R1.CID, R1.EID
		from Company_Emp R1, (select * from U choice of EID) R2
		where R1.CID = R2.CID and R1.EID != R2.EID;`)
	if s.WorldSet().Len() != 5 {
		t.Fatalf("after V: %d worlds, want 5\n%s", s.WorldSet().Len(), s.WorldSet())
	}

	mustExec(t, s, `create table W as
		select certain CID, Skill
		from V, Emp_Skills
		where V.EID = Emp_Skills.EID
		group worlds by (select CID from V);`)
	// W is (ACME, Web) in the two ACME worlds and (HAL, Java) in the
	// three HAL worlds.
	wIdx := s.WorldSet().IndexOf("W")
	wantACME := relation.FromRows(relation.NewSchema("CID", "Skill"), strTuple("ACME", "Web"))
	wantHAL := relation.FromRows(relation.NewSchema("CID", "Skill"), strTuple("HAL", "Java"))
	acme, hal := 0, 0
	for _, w := range s.WorldSet().Worlds() {
		switch {
		case w[wIdx].EqualContents(wantACME):
			acme++
		case w[wIdx].EqualContents(wantHAL):
			hal++
		default:
			t.Errorf("unexpected W:\n%s", w[wIdx])
		}
	}
	if acme != 2 || hal != 3 {
		t.Errorf("W distribution: %d ACME worlds and %d HAL worlds, want 2 and 3", acme, hal)
	}

	got := singleAnswer(t, s, "select possible CID from W where Skill = 'Web';")
	want := relation.FromRows(relation.NewSchema("CID"), strTuple("ACME"))
	if !got.EqualContents(want) {
		t.Fatalf("possible targets = %v, want {ACME}", got)
	}
}

// tpchLineitem builds a small Lineitem instance where exactly year 2000
// loses more than 1,000,000 when quantity 100 disappears.
func tpchLineitem() *relation.Relation {
	mk := func(p string, q, price, y int64) relation.Tuple {
		return relation.Tuple{value.Str(p), value.Int(q), value.Int(price), value.Int(y)}
	}
	return relation.FromRows(relation.NewSchema("Product", "Quantity", "Price", "Year"),
		mk("P1", 100, 1200000, 2000),
		mk("P2", 200, 700000, 2000),
		mk("P3", 100, 500000, 2001),
		mk("P4", 200, 100000, 2001),
		mk("P5", 100, 900000, 2002),
		mk("P6", 200, 300000, 2002),
	)
}

// TestTPCHWhatIf reproduces the §2 TPC-H Q17-style what-if analysis:
// years losing over 1,000,000 of revenue if some quantity is no longer
// available.
func TestTPCHWhatIf(t *testing.T) {
	s := FromDB([]string{"Lineitem"}, []*relation.Relation{tpchLineitem()})

	mustExec(t, s, `create view YearQuantity as
		select A.Year, sum(A.Price) as Revenue
		from (select * from Lineitem choice of Year) as A
		where Quantity not in (select * from Lineitem choice of Quantity)
		group by A.Year;`)

	got := singleAnswer(t, s, `select possible Year from YearQuantity as Y
		where (select sum(Price) from Lineitem where Lineitem.Year = Y.Year) - Y.Revenue > 1000000;`)
	want := relation.FromRows(relation.NewSchema("Year"), relation.Tuple{value.Int(2000)})
	if !got.EqualContents(want) {
		t.Fatalf("years with >1M loss = %v, want {2000}", got)
	}
}

// TestCensusRepair reproduces the §2 data-cleaning scenario: the
// repair-by-key view of an inconsistent Census relation.
func TestCensusRepair(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	res := mustExec(t, s, "select * from Census repair by key SSN;")
	if got := len(res.Answers); got != 4 {
		t.Fatalf("distinct repairs = %d, want 4", got)
	}
	for _, rep := range res.Answers {
		if rep.Len() != 3 {
			t.Errorf("repair should keep 3 tuples (one per SSN), got %d", rep.Len())
		}
		seen := map[string]bool{}
		rep.Each(func(tup relation.Tuple) {
			k := tup[rep.Schema().Index("SSN")].Key()
			if seen[k] {
				t.Errorf("repair violates the SSN key:\n%s", rep)
			}
			seen[k] = true
		})
	}
}

// TestInsertIntoAllWorlds checks the DML semantics of §3: an insert
// applies in every world.
func TestInsertIntoAllWorlds(t *testing.T) {
	s := flightsSession()
	mustExec(t, s, "create table Chosen as select * from HFlights choice of Dep;")
	if s.WorldSet().Len() != 3 {
		t.Fatalf("want 3 worlds")
	}
	mustExec(t, s, "insert into Chosen values ('ZRH', 'BCN');")
	idx := s.WorldSet().IndexOf("Chosen")
	for _, w := range s.WorldSet().Worlds() {
		if !w[idx].Contains(strTuple("ZRH", "BCN")) {
			t.Fatalf("insert missing from a world:\n%s", w[idx])
		}
	}
}

// TestUpdateInAllWorlds checks updates run per world.
func TestUpdateInAllWorlds(t *testing.T) {
	s := flightsSession()
	res := mustExec(t, s, "update HFlights set Arr = 'BCN' where Arr = 'ATL';")
	if res.Affected != 3 {
		t.Fatalf("updated %d rows, want 3", res.Affected)
	}
	got := singleAnswer(t, s, "select Arr from HFlights;")
	want := relation.FromRows(relation.NewSchema("Arr"), strTuple("BCN"))
	if !got.EqualContents(want) {
		t.Fatalf("arrivals after update = %v, want {BCN}", got)
	}
}

// TestGroupWorldsByAttrShorthand checks the attribute-list form of
// group-worlds-by (§3: a projection query may be abbreviated by its
// attribute list).
func TestGroupWorldsByAttrShorthand(t *testing.T) {
	s := flightsSession()
	// Group the departure worlds by Dep (each its own group): certain
	// arrivals per departure = all of that departure's arrivals.
	res := mustExec(t, s,
		"select certain Arr from HFlights choice of Dep group worlds by Dep;")
	// FRA and PAR share the arrival set {ATL, BCN}; PHL has {ATL} —
	// two distinct per-departure answers.
	if len(res.Answers) != 2 {
		t.Fatalf("expected 2 distinct per-departure answers, got %d", len(res.Answers))
	}
}

// TestAggregates exercises SUM/COUNT/AVG/MIN/MAX.
func TestAggregates(t *testing.T) {
	s := FromDB([]string{"Lineitem"}, []*relation.Relation{tpchLineitem()})
	got := singleAnswer(t, s,
		"select Year, count(*) as N, sum(Price) as Total, min(Price) as Lo, max(Price) as Hi from Lineitem group by Year;")
	if got.Len() != 3 {
		t.Fatalf("expected 3 year groups, got %d:\n%s", got.Len(), got)
	}
	want2000 := relation.Tuple{value.Int(2000), value.Int(2), value.Int(1900000),
		value.Int(700000), value.Int(1200000)}
	if !got.Contains(want2000) {
		t.Fatalf("missing year-2000 aggregate row in\n%s", got)
	}
}

// TestScalarSubqueryAndArithmetic checks correlated scalar subqueries in
// conditions.
func TestScalarSubqueryAndArithmetic(t *testing.T) {
	s := FromDB([]string{"Lineitem"}, []*relation.Relation{tpchLineitem()})
	got := singleAnswer(t, s, `select L.Product from Lineitem L
		where L.Price * 2 > (select sum(Price) from Lineitem where Lineitem.Year = L.Year);`)
	// Products contributing more than half of their year's revenue:
	// P1 (2.4M > 1.9M), P3 (1M > 0.6M), P5 (1.8M > 1.2M).
	want := relation.FromRows(relation.NewSchema("Product"),
		strTuple("P1"), strTuple("P3"), strTuple("P5"))
	if !got.EqualContents(want) {
		t.Fatalf("got %v, want P1, P3, P5", got)
	}
}

// TestViewExpansion checks that views with world-creating bodies expand
// compositionally.
func TestViewExpansion(t *testing.T) {
	s := flightsSession()
	mustExec(t, s, "create view PerDep as select * from HFlights choice of Dep;")
	got := singleAnswer(t, s, "select certain Arr from PerDep;")
	want := relation.FromRows(relation.NewSchema("Arr"), strTuple("ATL"))
	if !got.EqualContents(want) {
		t.Fatalf("certain arrivals through view = %v, want {ATL}", got)
	}
}

// TestParserErrors checks a few malformed statements fail with position
// information rather than panicking.
func TestParserErrors(t *testing.T) {
	bad := []string{
		"select from X;",
		"select * X;",
		"select * from (select * from X);", // missing derived alias
		"insert into X values 1, 2;",
		"select * from X where A = 'unterminated;",
		"select certain A from X group worlds by;",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}

// TestSelectStarDeQualification checks output naming: select * strips
// qualifiers when unambiguous.
func TestSelectStarDeQualification(t *testing.T) {
	s := flightsSession()
	got := singleAnswer(t, s, "select * from HFlights F where F.Arr = 'BCN';")
	if !got.Schema().Equal(relation.NewSchema("Dep", "Arr")) {
		t.Fatalf("schema = %v, want (Dep, Arr)", got.Schema())
	}
	if got.Len() != 2 {
		t.Fatalf("rows = %d, want 2", got.Len())
	}
}

// TestRepairLimit ensures runaway repairs are refused.
func TestRepairLimit(t *testing.T) {
	s := FromDB([]string{"Census"}, []*relation.Relation{datagen.Census(40, 40, 7)})
	s.MaxWorlds = 512
	if _, err := s.ExecString("select * from Census repair by key SSN;"); err == nil {
		t.Fatal("expected a world-limit error")
	}
}
