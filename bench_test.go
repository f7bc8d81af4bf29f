// Benchmarks regenerating the performance-relevant artifacts of the
// paper, one benchmark family per experiment. They assert nothing
// about time: cmd/wsabench gates the engine's hot paths against a
// committed baseline, and bench/ measures a real server end to end.
// Absolute numbers depend on the machine; the shapes
// the paper implies — the translated relational plans beating naive
// world-set evaluation, the §5.3 optimized translation beating the
// general one, the Figure 8/9 rewrites beating the originals, and the
// exponential repair-by-key blowup — must hold everywhere.
package worldsetdb_test

import (
	"fmt"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/isql"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/translate"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

// tripQuery is cert(π_Arr(χ_Dep(HFlights))) — Examples 5.6/5.8.
func tripQuery() wsa.Expr {
	return wsa.NewCert(&wsa.Project{Columns: []string{"Arr"},
		From: &wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "HFlights"}}})
}

// BenchmarkEvalStrategies compares the three evaluation strategies for
// the same 1↦1 query (EXP-PERF1) — the Figure 2 pipeline, χ_Dep
// followed by certain arrivals: the Figure 3 reference evaluator over
// explicit world-sets, the Figure 6 general translation, and the §5.3
// optimized translation, across database sizes.
func BenchmarkEvalStrategies(b *testing.B) {
	for _, nDep := range []int{10, 40, 160} {
		flights := datagen.Flights(nDep, 20, 0.3, 5)
		db := ra.DB{"HFlights": flights}
		ws := worldset.FromDB([]string{"HFlights"}, []*relation.Relation{flights})
		q := tripQuery()

		b.Run(fmt.Sprintf("naiveWorldSet/deps=%d", nDep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wsa.Eval(q, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
		gen, err := translate.ToRelational(q, []string{"HFlights"}, db)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("generalRA/deps=%d", nDep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gen.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
		opt, err := translate.ToRelationalOptimized(q, []string{"HFlights"}, db)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("optimizedRA/deps=%d", nDep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := opt.Eval(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// figure8Queries builds q1/q2 of Figures 8 and 9 and their optimizer
// outputs.
func figure8Queries(b *testing.B, close wsa.CloseKind) (orig, opt wsa.Expr) {
	b.Helper()
	inner := wsa.NewPossGroup([]string{"Dep"}, nil,
		&wsa.Choice{Attrs: []string{"Dep", "City"},
			From: wsa.NewProduct(&wsa.Rel{Name: "HFlights"}, &wsa.Rel{Name: "Hotels"})})
	orig = &wsa.Close{Kind: close,
		From: &wsa.Project{Columns: []string{"City"},
			From: &wsa.Select{Pred: ra.Eq("Arr", "City"), From: inner}}}
	env := wsa.NewEnv(
		[]string{"HFlights", "Hotels"},
		[]relation.Schema{relation.NewSchema("Dep", "Arr"), relation.NewSchema("Name", "City", "Price")})
	opt, _ = rewrite.Optimize(orig, env, true)
	return orig, opt
}

// BenchmarkQ1VsQ1Prime is the Figure 8 rewriting ablation (EXP-F8).
func BenchmarkQ1VsQ1Prime(b *testing.B) {
	q1, q1p := figure8Queries(b, wsa.CloseCert)
	benchRewritePair(b, q1, q1p)
}

// BenchmarkQ2VsQ2Prime is the Figure 9 rewriting ablation (EXP-F9).
func BenchmarkQ2VsQ2Prime(b *testing.B) {
	q2, q2p := figure8Queries(b, wsa.ClosePoss)
	benchRewritePair(b, q2, q2p)
}

func benchRewritePair(b *testing.B, orig, opt wsa.Expr) {
	for _, nDep := range []int{4, 12} {
		flights := datagen.Flights(nDep, 10, 0.4, 3)
		hotels := datagen.Hotels(10, 2, 4)
		ws := worldset.FromDB([]string{"HFlights", "Hotels"},
			[]*relation.Relation{flights, hotels})
		b.Run(fmt.Sprintf("original/deps=%d", nDep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wsa.Eval(orig, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rewritten/deps=%d", nDep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wsa.Eval(opt, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAcquisition runs the §2 acquisition script end to end
// (EXP-S2-ACQ).
func BenchmarkAcquisition(b *testing.B) {
	for _, n := range []int{2, 8} {
		ce := datagen.CompanyEmp(n, 4)
		es := datagen.EmpSkills(n, 4, 4, 11)
		b.Run(fmt.Sprintf("companies=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := isql.FromDB([]string{"Company_Emp", "Emp_Skills"},
					[]*relation.Relation{ce.Clone(), es.Clone()})
				_, err := s.ExecScript(`
					create table U as select * from Company_Emp choice of CID;
					create table V as
					  select R1.CID, R1.EID
					  from Company_Emp R1, (select * from U choice of EID) R2
					  where R1.CID = R2.CID and R1.EID != R2.EID;
					create table W as
					  select certain CID, Skill from V, Emp_Skills
					  where V.EID = Emp_Skills.EID
					  group worlds by (select CID from V);
					select possible CID from W where Skill = 'S0';`)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTPCHWhatIf runs the §2 what-if revenue analysis
// (EXP-S2-TPCH).
func BenchmarkTPCHWhatIf(b *testing.B) {
	for _, n := range []int{20, 60} {
		li := datagen.Lineitem(n, 3, 4, 42)
		b.Run(fmt.Sprintf("products=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := isql.FromDB([]string{"Lineitem"}, []*relation.Relation{li.Clone()})
				_, err := s.ExecScript(`create table YearQuantity as
					select A.Year, sum(A.Price) as Revenue
					from (select * from Lineitem choice of Year) as A
					where Quantity not in (select * from Lineitem choice of Quantity)
					group by A.Year;
					select possible Year from YearQuantity as Y
					where (select sum(Price) from Lineitem where Lineitem.Year = Y.Year) - Y.Revenue > 100000;`)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDivisionVsNotExists compares the three formulations of the
// trip-planning question (EXP-S2-SQL); the workload is small because the
// double-not-exists variant is cubic with correlated subqueries.
func BenchmarkDivisionVsNotExists(b *testing.B) {
	flights := datagen.Flights(6, 8, 0.5, 9)
	queries := map[string]string{
		"choiceCertain": "select certain Arr from HFlights choice of Dep;",
		"divideBy": "select Arr from (select Arr, Dep from HFlights) as F1 " +
			"divide by (select Dep from HFlights) as F2 on F1.Dep = F2.Dep;",
		"doubleNotExists": "select F1.Arr from HFlights F1 where not exists " +
			"(select * from HFlights F2 where not exists " +
			"(select * from HFlights F3 where F3.Dep = F2.Dep and F3.Arr = F1.Arr));",
	}
	for name, sql := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := isql.FromDB([]string{"HFlights"}, []*relation.Relation{flights})
				if _, err := s.ExecString(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTranslation measures plan generation itself: the Figure 6
// general translation vs the §5.3 optimized translation (EXP-E56/E58).
func BenchmarkTranslation(b *testing.B) {
	cat := ra.SchemaCatalog{"HFlights": relation.NewSchema("Dep", "Arr")}
	q := tripQuery()
	b.Run("general", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := translate.ToRelational(q, []string{"HFlights"}, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := translate.ToRelationalOptimized(q, []string{"HFlights"}, cat); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRewriteOptimizer measures the Figure 7 rewrite search on the
// Figure 8 query (EXP-PERF2).
func BenchmarkRewriteOptimizer(b *testing.B) {
	q, _ := figure8Queries(b, wsa.CloseCert)
	env := wsa.NewEnv(
		[]string{"HFlights", "Hotels"},
		[]relation.Schema{relation.NewSchema("Dep", "Arr"), relation.NewSchema("Name", "City", "Price")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewrite.Optimize(q, env, true)
	}
}

// BenchmarkFactorizedOperators is the EXP-PHYS ablation: the same
// group-worlds-by query evaluated by the naive Figure 3 evaluator, the
// generated Figure 6 relational plan over the inlined representation,
// and the factorized engine — the dedicated physical operators of the
// paper's conclusion — natively on the decomposition. The largest size
// (~10k base tuples, 400 worlds) exercises wsdexec's parallel fan-out;
// the quadratic Figure 6 plan is skipped there.
func BenchmarkFactorizedOperators(b *testing.B) {
	q := wsa.NewPossGroup([]string{"Arr"}, []string{"Dep", "Arr"},
		&wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "Flights"}})
	for _, size := range []struct{ nDep, nArr int }{
		{5, 15}, {20, 15}, {80, 15}, {400, 90},
	} {
		flights := datagen.Flights(size.nDep, size.nArr, 0.3, 7)
		ws := worldset.FromDB([]string{"Flights"}, []*relation.Relation{flights})
		b.Run(fmt.Sprintf("naive/deps=%d", size.nDep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wsa.Eval(q, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
		if size.nDep <= 80 {
			b.Run(fmt.Sprintf("figure6RA/deps=%d", size.nDep), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := translate.EvalWorldSet(q, ws); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		db := wsd.FromComplete([]string{"Flights"}, []*relation.Relation{flights})
		b.Run(fmt.Sprintf("wsdexec/deps=%d", size.nDep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, plan, err := wsdexec.Eval(q, db)
				if err != nil {
					b.Fatal(err)
				}
				if !plan.Native {
					b.Fatalf("plan not native: %v", plan)
				}
			}
		})
	}
}

// BenchmarkWSDRepair is the EXP-WSD ablation: the repair view as an
// explicit enumeration of 2^dups worlds (EXP-S2-CENSUS's exponential
// blowup) vs as a world-set decomposition with direct certain-answer
// computation.
func BenchmarkWSDRepair(b *testing.B) {
	repair := &wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}
	cert := wsa.NewCert(&wsa.Rel{Name: "Census"})
	for _, dups := range []int{2, 6, 10, 12} {
		census := datagen.Census(200, dups, 3)
		if dups <= 10 {
			ws := worldset.FromDB([]string{"Census"}, []*relation.Relation{census})
			b.Run(fmt.Sprintf("enumeration/dups=%d", dups), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out, err := wsa.Eval(repair, ws)
					if err != nil {
						b.Fatal(err)
					}
					if out.Len() != 1<<dups {
						b.Fatalf("%d repairs, want 2^%d", out.Len(), dups)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("decomposition/dups=%d", dups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := wsd.RepairByKey("Census", census, []string{"SSN"})
				if err != nil {
					b.Fatal(err)
				}
				out, _, err := wsdexec.Eval(cert, d)
				if err != nil {
					b.Fatal(err)
				}
				if out.Certain[len(out.Names)-1].Empty() {
					b.Fatal("unexpected empty certain answer")
				}
			}
		})
	}
}

// BenchmarkWSDX is the PR 2 tentpole ablation: certain answers over the
// census-repair view, evaluated by the factorized engine directly on
// the decomposition (cost linear in the input, independent of the world
// count — the dups=40 case covers 2^40 worlds), plus a small census at
// dups=12 whose 4096 worlds the enumerating engines can still expand.
func BenchmarkWSDX(b *testing.B) {
	certQ := wsa.NewCert(&wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}})
	for _, dups := range []int{12, 40} {
		census := datagen.Census(200, dups, 3)
		db := wsd.FromComplete([]string{"Census"}, []*relation.Relation{census})
		b.Run(fmt.Sprintf("wsdexec/dups=%d", dups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, plan, err := wsdexec.Eval(certQ, db)
				if err != nil {
					b.Fatal(err)
				}
				if !plan.Native {
					b.Fatalf("plan not native: %v", plan)
				}
			}
		})
	}
	smallDB := wsd.FromComplete([]string{"Census"}, []*relation.Relation{datagen.Census(50, 12, 3)})
	b.Run("wsdexecSmall/dups=12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := wsdexec.Eval(certQ, smallDB); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInlineRoundTrip measures encode/decode of the inlined
// representation (EXP-F4) via the m↦m evaluation path.
func BenchmarkInlineRoundTrip(b *testing.B) {
	flights := datagen.Flights(40, 20, 0.3, 5)
	ws := worldset.FromDB([]string{"HFlights"}, []*relation.Relation{flights})
	q := &wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "HFlights"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.EvalWorldSet(q, ws); err != nil {
			b.Fatal(err)
		}
	}
}
