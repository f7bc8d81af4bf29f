package rewrite

import (
	"math/rand"
	"testing"
	"testing/quick"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
)

// The equivalence tests run over the schema R(A, B, C), S(D).
var (
	eqNames   = []string{"R", "S"}
	eqSchemas = []relation.Schema{relation.NewSchema("A", "B", "C"), relation.NewSchema("D")}
)

func rel(name string) wsa.Expr { return &wsa.Rel{Name: name} }
func proj(from wsa.Expr, cols ...string) wsa.Expr {
	return &wsa.Project{Columns: cols, From: from}
}
func sel(from wsa.Expr, pred ra.Pred) wsa.Expr { return &wsa.Select{Pred: pred, From: from} }
func choice(from wsa.Expr, attrs ...string) wsa.Expr {
	return &wsa.Choice{Attrs: attrs, From: from}
}
func ren(from wsa.Expr, a, b string) wsa.Expr {
	return &wsa.Rename{Pairs: []ra.RenamePair{{From: a, To: b}}, From: from}
}

// checkEquivalence property-tests lhs ≡ rhs over random world-sets. If
// singleton is true, inputs are restricted to one world (complete
// databases), the sound setting for the CompleteOnly rules.
func checkEquivalence(t *testing.T, id string, lhs, rhs wsa.Expr, singleton bool) {
	t.Helper()
	maxWorlds := 4
	if singleton {
		maxWorlds = 1
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ws := datagen.RandomWorldSet(rng, eqNames, eqSchemas, 3, 4, maxWorlds)
		l, err := wsa.Eval(lhs, ws)
		if err != nil {
			t.Fatalf("%s lhs %s: %v", id, lhs, err)
		}
		r, err := wsa.Eval(rhs, ws)
		if err != nil {
			t.Fatalf("%s rhs %s: %v", id, rhs, err)
		}
		return l.EqualWorlds(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("equation %s: %s ≢ %s: %v", id, lhs, rhs, err)
	}
}

// TestEquivalencesFigure7 verifies each equation of Figure 7 (in its
// sound form — see the counterexample tests for the printed forms that
// fail) against the Figure 3 reference semantics.
func TestEquivalencesFigure7(t *testing.T) {
	a1 := ra.EqConst("A", value.Int(1))
	cases := []struct {
		id        string
		lhs, rhs  wsa.Expr
		singleton bool // only sound on complete inputs
	}{
		{"(1)", wsa.NewPoss(sel(choice(rel("R"), "B"), a1)), sel(wsa.NewPoss(choice(rel("R"), "B")), a1), false},
		{"(2)", wsa.NewPoss(proj(choice(rel("R"), "B"), "A")), proj(wsa.NewPoss(choice(rel("R"), "B")), "A"), false},
		{"(3)", wsa.NewPoss(wsa.NewUnion(proj(rel("R"), "A"), ren(rel("S"), "D", "A"))),
			wsa.NewUnion(wsa.NewPoss(proj(rel("R"), "A")), wsa.NewPoss(ren(rel("S"), "D", "A"))), false},
		{"(4)", wsa.NewCert(sel(choice(rel("R"), "B"), a1)), sel(wsa.NewCert(choice(rel("R"), "B")), a1), false},
		{"(5)", wsa.NewCert(wsa.NewIntersect(proj(choice(rel("R"), "B"), "A"), ren(rel("S"), "D", "A"))),
			wsa.NewIntersect(wsa.NewCert(proj(choice(rel("R"), "B"), "A")), wsa.NewCert(ren(rel("S"), "D", "A"))), false},
		{"(6)", wsa.NewCert(wsa.NewProduct(proj(choice(rel("R"), "B"), "A"), choice(rel("S"), "D"))),
			wsa.NewProduct(wsa.NewCert(proj(choice(rel("R"), "B"), "A")), wsa.NewCert(choice(rel("S"), "D"))), false},
		{"(7)", proj(choice(rel("R"), "A"), "A", "B"), choice(proj(rel("R"), "A", "B"), "A"), false},
		{"(8)", choice(wsa.NewProduct(proj(rel("R"), "A", "B"), rel("S")), "A"),
			wsa.NewProduct(choice(proj(rel("R"), "A", "B"), "A"), rel("S")), false},
		{"(9) restricted", sel(wsa.NewPossGroup([]string{"A", "B"}, []string{"A"}, choice(rel("R"), "C")), a1),
			wsa.NewPossGroup([]string{"A", "B"}, []string{"A"}, sel(choice(rel("R"), "C"), a1)), false},
		{"(10) restricted", sel(wsa.NewCertGroup([]string{"A", "B"}, []string{"A"}, choice(rel("R"), "C")), a1),
			wsa.NewCertGroup([]string{"A", "B"}, []string{"A"}, sel(choice(rel("R"), "C"), a1)), false},
		{"(11)", wsa.NewPoss(choice(rel("R"), "A")), wsa.NewPoss(rel("R")), false},
		{"(12)p", wsa.NewPossGroup([]string{"A", "B"}, []string{"A"}, choice(rel("R"), "C")),
			proj(choice(rel("R"), "C"), "A"), false},
		{"(12)c", wsa.NewCertGroup([]string{"A", "B"}, []string{"A"}, choice(rel("R"), "C")),
			proj(choice(rel("R"), "C"), "A"), false},
		{"(13)", proj(wsa.NewPossGroup([]string{"A", "C"}, []string{"A", "B"}, choice(rel("R"), "B")), "A"),
			proj(choice(rel("R"), "B"), "A"), false},
		{"(14)", proj(wsa.NewPossGroup([]string{"A"}, []string{"A", "B"}, choice(rel("R"), "C")), "B"),
			wsa.NewPossGroup([]string{"A"}, []string{"B"}, choice(rel("R"), "C")), false},
		{"(15)", wsa.NewPoss(wsa.NewPossGroup([]string{"C"}, []string{"A", "B"}, choice(rel("R"), "A"))),
			wsa.NewPoss(proj(choice(rel("R"), "A"), "A", "B")), false},
		{"(16)", wsa.NewCert(wsa.NewCertGroup([]string{"C"}, []string{"A", "B"}, choice(rel("R"), "A"))),
			wsa.NewCert(proj(choice(rel("R"), "A"), "A", "B")), false},
		{"(17) commute", choice(choice(rel("R"), "B"), "A"), choice(choice(rel("R"), "A"), "B"), false},
		{"(17) merge", choice(choice(rel("R"), "B"), "A"), choice(rel("R"), "A", "B"), false},
		{"(18) restricted p-outer",
			wsa.NewPossGroup([]string{"A", "B"}, []string{"A"},
				wsa.NewPossGroup([]string{"A", "B"}, []string{"A", "B"}, choice(rel("R"), "C"))),
			wsa.NewPossGroup([]string{"A", "B"}, []string{"A"}, choice(rel("R"), "C")), false},
		{"(18) restricted c-outer",
			wsa.NewCertGroup([]string{"A", "B"}, []string{"A"},
				wsa.NewPossGroup([]string{"A", "B"}, []string{"A", "B"}, choice(rel("R"), "C"))),
			wsa.NewPossGroup([]string{"A", "B"}, []string{"A"}, choice(rel("R"), "C")), false},
		{"(20) restricted", wsa.NewPossGroup([]string{"A"}, []string{"A", "B"}, choice(rel("R"), "A", "C")),
			proj(choice(rel("R"), "A"), "A", "B"), true},
		{"(21) restricted", wsa.NewCertGroup([]string{"A"}, []string{"B"}, choice(rel("R"), "A")),
			proj(choice(rel("R"), "A"), "B"), true},
		{"(22) poss∘cert", wsa.NewPoss(wsa.NewCert(choice(rel("R"), "A"))), wsa.NewCert(choice(rel("R"), "A")), false},
		{"(22) cert∘cert", wsa.NewCert(wsa.NewCert(choice(rel("R"), "A"))), wsa.NewCert(choice(rel("R"), "A")), false},
		{"(23) poss∘poss", wsa.NewPoss(wsa.NewPoss(choice(rel("R"), "A"))), wsa.NewPoss(choice(rel("R"), "A")), false},
		{"(23) cert∘poss", wsa.NewCert(wsa.NewPoss(choice(rel("R"), "A"))), wsa.NewPoss(choice(rel("R"), "A")), false},
		{"(24)", wsa.NewCert(wsa.NewDiff(choice(rel("R"), "A"), sel(rel("R"), ra.EqConst("B", value.Int(1))))),
			wsa.NewCert(wsa.NewDiff(wsa.NewCert(choice(rel("R"), "A")), sel(rel("R"), ra.EqConst("B", value.Int(1))))), false},
		{"(25)", wsa.NewCert(choice(rel("R"), "A")),
			wsa.NewDiff(choice(rel("R"), "A"),
				wsa.NewPoss(wsa.NewDiff(wsa.NewPoss(choice(rel("R"), "A")), choice(rel("R"), "A")))), false},
		{"(26)", wsa.NewPoss(proj(choice(rel("R"), "B"), "A")),
			wsa.NewDiff(wsa.NewPoss(proj(rel("R"), "A")),
				wsa.NewCert(wsa.NewDiff(wsa.NewPoss(proj(rel("R"), "A")), proj(choice(rel("R"), "B"), "A")))), false},
		{"(8)+(17) derived", wsa.NewProduct(choice(proj(rel("R"), "A", "B"), "A"), choice(rel("S"), "D")),
			choice(wsa.NewProduct(proj(rel("R"), "A", "B"), rel("S")), "A", "D"), false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			checkEquivalence(t, c.id, c.lhs, c.rhs, c.singleton)
		})
	}
}

// evalOn evaluates q on ws, failing the test on error.
func evalOn(t *testing.T, q wsa.Expr, ws *worldset.WorldSet) *worldset.WorldSet {
	t.Helper()
	out, err := wsa.Eval(q, ws)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return out
}

func mkR(rows ...[3]int64) *relation.Relation {
	r := relation.New(eqSchemas[0])
	for _, row := range rows {
		r.InsertValues(value.Int(row[0]), value.Int(row[1]), value.Int(row[2]))
	}
	return r
}

func twoWorldInput(r1, r2 *relation.Relation) *worldset.WorldSet {
	ws := worldset.New(eqNames, eqSchemas)
	s := relation.New(eqSchemas[1])
	ws.Add(worldset.World{r1, s})
	ws.Add(worldset.World{r2, s.Clone()})
	return ws
}

func singletonInput(r *relation.Relation) *worldset.WorldSet {
	return worldset.FromDB(eqNames, []*relation.Relation{r, relation.New(eqSchemas[1])})
}

// TestPaperFormCounterexamples records concrete counterexamples to the
// Figure 7 equations as printed; the library's rule set uses the sound
// restrictions instead (see Rule.CompleteOnly in rules.go).
func TestPaperFormCounterexamples(t *testing.T) {
	a1 := ra.EqConst("A", value.Int(1))

	t.Run("(9) unrestricted", func(t *testing.T) {
		// Worlds {(1,7,0),(2,0,0)} and {(1,8,0),(3,0,0)}: the selection
		// A=1 merges the groups {1,2} and {1,3} into {1}, so pushing σ
		// below pγ changes the grouping.
		ws := twoWorldInput(mkR([3]int64{1, 7, 0}, [3]int64{2, 0, 0}), mkR([3]int64{1, 8, 0}, [3]int64{3, 0, 0}))
		lhs := sel(wsa.NewPossGroup([]string{"A"}, []string{"A", "B"}, rel("R")), a1)
		rhs := wsa.NewPossGroup([]string{"A"}, []string{"A", "B"}, sel(rel("R"), a1))
		if evalOn(t, lhs, ws).EqualWorlds(evalOn(t, rhs, ws)) {
			t.Fatal("expected the unrestricted equation (9) to fail on this instance")
		}
	})

	t.Run("(18) X subset of inner grouping", func(t *testing.T) {
		// χ_{A,B} creates worlds {(1,1,0)} and {(1,2,0)}; the outer pγ
		// grouped on A ⊊ {A,B} merges them, the right-hand side does not.
		ws := singletonInput(mkR([3]int64{1, 1, 0}, [3]int64{1, 2, 0}))
		inner := wsa.NewPossGroup([]string{"A", "B"}, []string{"A", "B"}, choice(rel("R"), "A", "B"))
		lhs := wsa.NewPossGroup([]string{"A"}, []string{"A", "B"}, inner)
		rhs := wsa.NewPossGroup([]string{"A", "B"}, []string{"A", "B"}, choice(rel("R"), "A", "B"))
		if evalOn(t, lhs, ws).EqualWorlds(evalOn(t, rhs, ws)) {
			t.Fatal("expected the unrestricted equation (18) to fail on this instance")
		}
	})

	t.Run("(19) inner cγ", func(t *testing.T) {
		// Both choice worlds share π_A = {1} but intersect to ∅ under the
		// inner cγ, so the outer pγ sees empty answers while the
		// right-hand side keeps {1}.
		ws := singletonInput(mkR([3]int64{1, 1, 0}, [3]int64{1, 2, 0}))
		inner := wsa.NewCertGroup([]string{"A"}, []string{"A", "B"}, choice(rel("R"), "A", "B"))
		lhs := wsa.NewPossGroup([]string{"A"}, []string{"A"}, inner)
		rhs := wsa.NewCertGroup([]string{"A"}, []string{"A"}, choice(rel("R"), "A", "B"))
		if evalOn(t, lhs, ws).EqualWorlds(evalOn(t, rhs, ws)) {
			t.Fatal("expected equation (19) to fail on this instance")
		}
	})

	t.Run("(21) choice attrs beyond grouping", func(t *testing.T) {
		// Worlds {(1,1,0)} and {(1,2,0)} from χ_{A,B} group together on
		// A and intersect their B-projections to ∅; π_B keeps {1}, {2}.
		ws := singletonInput(mkR([3]int64{1, 1, 0}, [3]int64{1, 2, 0}))
		lhs := wsa.NewCertGroup([]string{"A"}, []string{"B"}, choice(rel("R"), "A", "B"))
		rhs := proj(choice(rel("R"), "A", "B"), "B")
		if evalOn(t, lhs, ws).EqualWorlds(evalOn(t, rhs, ws)) {
			t.Fatal("expected the printed equation (21) to fail on this instance")
		}
	})

	t.Run("(20) multi-world input", func(t *testing.T) {
		// On a two-world input, the pγ side merges choice worlds that
		// descend from different input worlds; the π∘χ side does not.
		ws := twoWorldInput(mkR([3]int64{1, 7, 0}), mkR([3]int64{1, 8, 0}))
		lhs := wsa.NewPossGroup([]string{"A"}, []string{"A", "B"}, choice(rel("R"), "A"))
		rhs := proj(choice(rel("R"), "A"), "A", "B")
		if evalOn(t, lhs, ws).EqualWorlds(evalOn(t, rhs, ws)) {
			t.Fatal("expected equation (20) to fail on multi-world inputs")
		}
	})
}
