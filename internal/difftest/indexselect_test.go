package difftest

import (
	"math/rand"
	"sync"
	"testing"

	"worldsetdb/internal/ra"
	"worldsetdb/internal/randquery"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

// probeDB builds a decomposition whose pieces sit on both sides of
// relation.IndexProbeMin: R(A, B, C) has a large certain part and one
// component with large alternatives (both probed by an indexed
// selection) next to components with a few tuples per alternative and
// the small S(C) (all scanned). 12 worlds, so every engine can afford
// the enumeration.
func probeDB(rng *rand.Rand) *wsd.DecompDB {
	const domain = 6
	rSchema, sSchema := relation.NewSchema("A", "B", "C"), relation.NewSchema("C")
	randRel := func(s relation.Schema, draws int) *relation.Relation {
		r := relation.New(s)
		for i := 0; i < draws; i++ {
			t := make(relation.Tuple, len(s))
			for j := range t {
				switch k := int64(rng.Intn(domain)); rng.Intn(12) {
				case 0:
					t[j] = value.Float(float64(k)) // equal to, and hashed like, Int(k)
				case 1:
					t[j] = value.Str(string(rune('a' + k)))
				case 2:
					t[j] = value.Null()
				default:
					t[j] = value.Int(k)
				}
			}
			r.Insert(t)
		}
		return r
	}
	db := wsd.NewDecompDB([]string{"R", "S"}, []relation.Schema{rSchema, sSchema})
	db.Certain[0] = randRel(rSchema, 4*relation.IndexProbeMin)
	db.Certain[1] = randRel(sSchema, 4)
	alt := func(rDraws, sDraws int) wsd.DBAlternative {
		a := wsd.DBAlternative{Rels: map[int]*relation.Relation{}}
		if r := randRel(rSchema, rDraws); r.Len() > 0 {
			a.Rels[0] = r
		}
		if s := randRel(sSchema, sDraws); s.Len() > 0 {
			a.Rels[1] = s
		}
		return a
	}
	db.Components = []wsd.DBComponent{
		{Alternatives: []wsd.DBAlternative{alt(2, 1), alt(3, 0)}},
		{Alternatives: []wsd.DBAlternative{alt(3*relation.IndexProbeMin, 0), alt(3*relation.IndexProbeMin, 2)}},
		{Alternatives: []wsd.DBAlternative{alt(1, 0), alt(0, 1), alt(2, 2)}},
	}
	return db
}

// probeConst draws a selection constant: mostly domain integers, also
// the equal Float, a string, NULL, the pad value, and numerics whose
// equality is easy to get wrong (zero as a float, a magnitude past
// 2^53, randquery.Numerics).
func probeConst(rng *rand.Rand) value.Value {
	k := int64(rng.Intn(6))
	switch rng.Intn(10) {
	case 6:
		return value.Parse(randquery.Numerics[rng.Intn(len(randquery.Numerics))])
	case 0:
		return value.Float(float64(k))
	case 1:
		return value.Str(string(rune('a' + k)))
	case 2:
		return value.Null()
	case 3:
		return value.Pad()
	case 4:
		return value.Float(0)
	case 5:
		return value.Float(1 << 60)
	}
	return value.Int(k)
}

// probePred draws a conjunction holding at least one column = constant
// conjunct (either operand order, possibly the same column twice) among
// range, column-to-column, disjunctive and negated conjuncts.
func probePred(rng *rand.Rand, cols []string) ra.Pred {
	col := func() ra.Operand { return ra.Col(cols[rng.Intn(len(cols))]) }
	eqConst := func() ra.Pred {
		if rng.Intn(3) == 0 {
			return ra.Cmp{Left: ra.Const(probeConst(rng)), Op: ra.OpEq, Right: col()}
		}
		return ra.Cmp{Left: col(), Op: ra.OpEq, Right: ra.Const(probeConst(rng))}
	}
	ps := []ra.Pred{eqConst()}
	for n := rng.Intn(3); n > 0; n-- {
		switch rng.Intn(5) {
		case 0:
			ps = append(ps, eqConst())
		case 1:
			ps = append(ps, ra.Cmp{Left: col(), Op: ra.OpLe, Right: ra.Const(probeConst(rng))})
		case 2:
			ps = append(ps, ra.Cmp{Left: col(), Op: ra.OpEq, Right: col()})
		case 3:
			ps = append(ps, ra.Or{L: eqConst(), R: eqConst()})
		case 4:
			ps = append(ps, ra.Not{P: eqConst()})
		}
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ra.Conj(ps...)
}

// probeQuery wraps a selection with an equality-on-constant conjunct
// over base (R, or a stand-in for it) in the shapes the prepared read
// path compiles to.
func probeQuery(rng *rand.Rand, base wsa.Expr) wsa.Expr {
	sel := &wsa.Select{Pred: probePred(rng, []string{"A", "B", "C"}), From: base}
	switch rng.Intn(7) {
	case 0:
		return wsa.NewPoss(sel)
	case 1:
		return wsa.NewCert(sel)
	case 2:
		return wsa.NewPoss(&wsa.Project{Columns: []string{"B", "A"}, From: sel})
	case 3:
		renamed := &wsa.Rename{Pairs: []ra.RenamePair{{From: "A", To: "X"}, {From: "C", To: "Z"}}, From: base}
		return wsa.NewCert(&wsa.Select{Pred: probePred(rng, []string{"X", "B", "Z"}), From: renamed})
	case 4:
		// The join's right operand is S, all of it below the constant.
		return &wsa.Project{Columns: []string{"A", "B"}, From: &wsa.Join{L: sel,
			R:    &wsa.Rename{Pairs: []ra.RenamePair{{From: "C", To: "D"}}, From: &wsa.Rel{Name: "S"}},
			Pred: ra.Eq("C", "D")}}
	case 5:
		return &wsa.Select{Pred: probePred(rng, []string{"C"}), From: &wsa.Rel{Name: "S"}}
	}
	return sel
}

// TestIndexedSelectAgreement is the differential sweep of the selection
// access paths: random selects with equality-on-constant conjuncts over
// pieces on both sides of relation.IndexProbeMin must render
// byte-identically to the reference (CheckDecomp, all three engines) and
// to the scan path — the same query over R ∪ R, whose pieces are
// computed, not stored, so nothing is probed. Every input is first
// evaluated from several goroutines at once: the first probes of one
// relation race to build its index (run under -race).
func TestIndexedSelectAgreement(t *testing.T) {
	inputs, queries := 12, 10
	if testing.Short() {
		inputs = 4
	}
	rng := rand.New(rand.NewSource(20260927))
	probes0, scans0 := wsdexec.SelectIndexProbes.Value(), wsdexec.SelectScans.Value()
	render := func(q wsa.Expr, db *wsd.DecompDB) string {
		out, _, err := wsdexec.EvalOpts(q, db, &wsdexec.Options{NoRewrite: true})
		if err != nil {
			t.Errorf("wsdexec failed for %s: %v", q, err)
			return ""
		}
		ws, err := out.Expand(0)
		if err != nil {
			t.Errorf("result of %s not expandable: %v", q, err)
			return ""
		}
		return ws.String()
	}
	r := &wsa.Rel{Name: "R"}
	for di := 0; di < inputs; di++ {
		db := probeDB(rng)
		for qi := 0; qi < queries; qi++ {
			seed := rng.Int63()
			q := probeQuery(rand.New(rand.NewSource(seed)), r)
			scan := probeQuery(rand.New(rand.NewSource(seed)), wsa.NewUnion(r, r))
			var concurrent [4]string
			if qi == 0 {
				var wg sync.WaitGroup
				for g := range concurrent {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						concurrent[g] = render(q, db)
					}(g)
				}
				wg.Wait()
			}
			if _, err := CheckDecomp(q, db); err != nil {
				t.Fatalf("input %d query %d: %v", di, qi, err)
			}
			want := render(scan, db)
			if got := render(q, db); got != want {
				t.Fatalf("input %d: probe and scan disagree for %s\nprobe:\n%s\nscan:\n%s", di, q, got, want)
			}
			for g, got := range concurrent {
				if qi == 0 && got != want {
					t.Fatalf("input %d: concurrent evaluation %d of %s differs\ngot:\n%s\nwant:\n%s", di, g, q, got, want)
				}
			}
		}
	}
	if wsdexec.SelectIndexProbes.Value() == probes0 || wsdexec.SelectScans.Value() == scans0 {
		t.Fatalf("sweep must take both access paths: %d index selections, %d scans",
			wsdexec.SelectIndexProbes.Value()-probes0, wsdexec.SelectScans.Value()-scans0)
	}
}
