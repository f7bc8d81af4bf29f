package datagen

import (
	"math/rand"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
)

// TestPaperFixturesShape pins the exact paper instances the test suite
// and examples rely on.
func TestPaperFixturesShape(t *testing.T) {
	if got := PaperFlights(); got.Len() != 5 || !got.Schema().Equal(relation.NewSchema("Dep", "Arr")) {
		t.Errorf("PaperFlights: %d rows, %v", got.Len(), got.Schema())
	}
	if got := PaperCompanyEmp(); got.Len() != 5 {
		t.Errorf("PaperCompanyEmp rows = %d", got.Len())
	}
	if got := PaperEmpSkills(); got.Len() != 6 {
		t.Errorf("PaperEmpSkills rows = %d", got.Len())
	}
	if got := Fig5R(); got.Len() != 4 {
		t.Errorf("Fig5R rows = %d", got.Len())
	}
	if got := Fig5S(); got.Len() != 2 {
		t.Errorf("Fig5S rows = %d", got.Len())
	}
	if got := PaperCensus(); got.Len() != 5 {
		t.Errorf("PaperCensus rows = %d", got.Len())
	}
}

// TestGeneratorsDeterministic: equal seeds give equal data (the
// benchmarks and the committed BENCH_results.json depend on it).
func TestGeneratorsDeterministic(t *testing.T) {
	if !Flights(10, 10, 0.5, 42).Equal(Flights(10, 10, 0.5, 42)) {
		t.Error("Flights not deterministic")
	}
	if !Lineitem(10, 3, 4, 42).Equal(Lineitem(10, 3, 4, 42)) {
		t.Error("Lineitem not deterministic")
	}
	if !Census(50, 5, 42).Equal(Census(50, 5, 42)) {
		t.Error("Census not deterministic")
	}
	if Flights(10, 10, 0.5, 1).Equal(Flights(10, 10, 0.5, 2)) {
		t.Error("different seeds should differ")
	}
}

// TestFlightsHub: every departure reaches the HUB, so cert queries over
// generated data are non-trivial.
func TestFlightsHub(t *testing.T) {
	f := Flights(8, 10, 0.2, 3)
	deps := map[string]bool{}
	hub := map[string]bool{}
	depIdx := f.Schema().Index("Dep")
	arrIdx := f.Schema().Index("Arr")
	f.Each(func(tup relation.Tuple) {
		deps[tup[depIdx].AsString()] = true
		if tup[arrIdx].AsString() == "HUB" {
			hub[tup[depIdx].AsString()] = true
		}
	})
	if len(deps) != 8 {
		t.Fatalf("departures = %d, want 8", len(deps))
	}
	for d := range deps {
		if !hub[d] {
			t.Fatalf("departure %s misses the HUB arrival", d)
		}
	}
}

// TestCensusDuplicateCount: exactly nDup SSNs occur twice.
func TestCensusDuplicateCount(t *testing.T) {
	c := Census(100, 7, 9)
	counts := map[string]int{}
	idx := c.Schema().Index("SSN")
	c.Each(func(tup relation.Tuple) { counts[tup[idx].Key()]++ })
	dups := 0
	for _, n := range counts {
		switch n {
		case 1:
		case 2:
			dups++
		default:
			t.Fatalf("SSN occurs %d times; generator promises at most 2", n)
		}
	}
	if dups != 7 {
		t.Fatalf("duplicated SSNs = %d, want 7", dups)
	}
}

// TestEmpSkillsBaseline: every employee has skill S0 (the certain-skill
// anchor the acquisition benchmark relies on).
func TestEmpSkillsBaseline(t *testing.T) {
	es := EmpSkills(3, 4, 4, 5)
	withS0 := map[string]bool{}
	eIdx := es.Schema().Index("EID")
	sIdx := es.Schema().Index("Skill")
	es.Each(func(tup relation.Tuple) {
		if tup[sIdx].Equal(value.Str("S0")) {
			withS0[tup[eIdx].AsString()] = true
		}
	})
	if len(withS0) != 12 {
		t.Fatalf("employees with S0 = %d, want 12", len(withS0))
	}
}

// TestRandomWorldSetBounds: world and tuple counts respect the limits.
func TestRandomWorldSetBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		ws := RandomWorldSet(rng, []string{"R"},
			[]relation.Schema{relation.NewSchema("A")}, 3, 4, 5)
		if ws.Len() < 1 || ws.Len() > 5 {
			t.Fatalf("world count %d out of [1, 5]", ws.Len())
		}
		for _, w := range ws.Worlds() {
			if w[0].Len() > 4 {
				t.Fatalf("tuple count %d exceeds 4", w[0].Len())
			}
		}
	}
}
