// Command wsabench regenerates every experiment of the reproduction: for
// each table, figure and worked example of the paper it runs the
// corresponding workload and prints the measured rows (world counts,
// answers, plan sizes, wall-clock times). The committed
// BENCH_results.json is a captured run; every later run is diffed
// against it.
//
// Usage:
//
//	wsabench [-exp all|F2|ACQ|TPCH|CENSUS|WSD|WSDX|STORE|TXN|AGG|SHARD|PLAN|CKPT|SQL3|E56|F8F9|PHYS|F7|R46|P42] [-scale 1]
//
// -exp also accepts a comma-separated list (e.g. -exp TXN,AGG) so one
// CI step can gate several families in a single run.
//
// After a run, the fresh measurements are diffed against the committed
// baseline (-prev, by default the same BENCH_results.json this run
// overwrites, read before writing): per-op ns/op deltas are printed and
// any op slower than -regress times its baseline is flagged with a
// WARNING line. CI runs this non-blocking and uploads the fresh file as
// an artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/isql"
	"worldsetdb/internal/isqld"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/store"
	"worldsetdb/internal/translate"
	"worldsetdb/internal/uldb"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

var (
	scale    = flag.Int("scale", 1, "multiply workload sizes")
	jsonPath = flag.String("json", "BENCH_results.json",
		"write measured rows as JSON to this file ('' disables); future PRs diff these for perf regressions")
	prevPath = flag.String("prev", "BENCH_results.json",
		"baseline JSON to diff the fresh measurements against ('' disables the diff)")
	regress = flag.Float64("regress", 2.0,
		"flag ops whose ns/op exceeds this multiple of the baseline")
	gate = flag.String("gate", "",
		"comma-separated op prefixes whose regressions are blocking: any flagged op matching one makes wsabench exit nonzero (e.g. -gate TXN/)")
	heapProfile = flag.String("heapprofile", "",
		"write a pprof heap profile to this file after the experiments (CI uploads it as an artifact)")
)

// benchRow is one measured operation in the JSON report. The quantile
// fields appear only on the per-family latency-quantiles rows; the
// regression diff reads op and ns_per_op only, so they are additive.
type benchRow struct {
	Op          string `json:"op"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	Worlds      int    `json:"worlds"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	P50Ns       int64  `json:"p50_ns,omitempty"`
	P95Ns       int64  `json:"p95_ns,omitempty"`
	P99Ns       int64  `json:"p99_ns,omitempty"`
	Samples     uint64 `json:"samples,omitempty"`
}

var benchRows []benchRow

// famHists accumulates every measured iteration of every op in a
// family (the op-name prefix before "/") into one latency histogram,
// so the report carries per-family p50/p95/p99 across iterations —
// min-of-5 ns/op alone hides tail latency.
var famHists = map[string]*obs.Histogram{}

func famHist(op string) *obs.Histogram {
	fam := op
	if i := strings.IndexByte(op, '/'); i >= 0 {
		fam = op[:i]
	}
	h := famHists[fam]
	if h == nil {
		h = &obs.Histogram{}
		famHists[fam] = h
	}
	return h
}

// quantileRows appends one latency-quantiles row per family. NsPerOp
// stays 0 so the regression diff skips these rows (quantiles across
// heterogeneous ops are a profile, not a regression signal).
func quantileRows() {
	fams := make([]string, 0, len(famHists))
	for f := range famHists {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		h := famHists[f]
		if h.Count() == 0 {
			continue
		}
		benchRows = append(benchRows, benchRow{
			Op:         f + "/latency-quantiles",
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			P50Ns:      h.Quantile(0.50).Nanoseconds(),
			P95Ns:      h.Quantile(0.95).Nanoseconds(),
			P99Ns:      h.Quantile(0.99).Nanoseconds(),
			Samples:    h.Count(),
		})
	}
}

// acceptanceFailures collects violated intra-run acceptance floors
// (ratios between ops of the same run, immune to machine speed); any
// entry makes the run exit nonzero.
var acceptanceFailures []string

// acceptZero asserts an intra-run count that must be zero.
func acceptZero(name string, got uint64) {
	if got != 0 {
		acceptanceFailures = append(acceptanceFailures, fmt.Sprintf("%s: %d, want 0", name, got))
	}
}

// acceptRatio asserts an intra-run speedup floor.
func acceptRatio(name string, got, floor float64) {
	if got < floor {
		acceptanceFailures = append(acceptanceFailures,
			fmt.Sprintf("%s: %.2fx, floor %.1fx", name, got, floor))
	}
}

// warnRatio is acceptRatio for a floor the machine's noise crosses on
// an unchanged tree: a miss prints a WARNING line and never fails the
// run, gated or not.
func warnRatio(name string, got, floor float64) {
	if got < floor {
		fmt.Printf("WARNING: warn-only floor missed: %s: %.2fx, floor %.1fx\n", name, got, floor)
	}
}

// bench measures f like timed and records a row for the JSON report.
// worlds may point at a counter the closure fills in (the world count
// the operation handled); nil means not applicable.
func bench(op string, worlds *int, f func()) time.Duration {
	d, allocs := timedAllocsInto(famHist(op), f)
	w := 0
	if worlds != nil {
		w = *worlds
	}
	benchRows = append(benchRows, benchRow{
		Op:          op,
		NsPerOp:     d.Nanoseconds(),
		AllocsPerOp: allocs,
		Worlds:      w,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	})
	return d
}

// writeJSON dumps the recorded rows so future PRs have a perf
// trajectory to compare against.
func writeJSON(path string) {
	if path == "" || len(benchRows) == 0 {
		return
	}
	data, err := json.MarshalIndent(benchRows, "", "  ")
	must(err)
	must(os.WriteFile(path, append(data, '\n'), 0o644))
	fmt.Printf("wrote %d measured rows to %s\n", len(benchRows), path)
}

// loadBaseline reads a previous BENCH_results.json; a missing or
// unreadable baseline just disables the diff (first run, renamed ops).
func loadBaseline(path string) map[string]benchRow {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "no baseline to diff against (%v); the regression check is skipped\n", err)
		return nil
	}
	var rows []benchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		fmt.Fprintf(os.Stderr, "ignoring unparsable baseline %s: %v\n", path, err)
		return nil
	}
	out := make(map[string]benchRow, len(rows))
	for _, r := range rows {
		out[r.Op] = r
	}
	return out
}

// diffBaseline prints per-op ns/op deltas between the fresh rows and
// the baseline, flagging ops slower than factor× their baseline with
// WARNING lines (the CI step surfaces those as annotations). Returns
// the names of the flagged ops.
func diffBaseline(baseline map[string]benchRow, factor float64) []string {
	if len(baseline) == 0 || len(benchRows) == 0 {
		return nil
	}
	type delta struct {
		op         string
		prev, cur  int64
		ratio      float64
		regression bool
	}
	var ds []delta
	for _, r := range benchRows {
		p, ok := baseline[r.Op]
		if !ok || p.NsPerOp <= 0 {
			continue
		}
		ratio := float64(r.NsPerOp) / float64(p.NsPerOp)
		ds = append(ds, delta{r.Op, p.NsPerOp, r.NsPerOp, ratio, ratio > factor})
	}
	if len(ds) == 0 {
		return nil
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].ratio > ds[j].ratio })
	fmt.Printf("\n==================== baseline diff (%d ops, sorted by ratio) ====================\n", len(ds))
	fmt.Printf("%-40s %14s %14s %8s\n", "op", "prev ns/op", "ns/op", "ratio")
	var regressed []string
	for _, d := range ds {
		fmt.Printf("%-40s %14d %14d %7.2fx\n", d.op, d.prev, d.cur, d.ratio)
		if d.regression {
			regressed = append(regressed, d.op)
		}
	}
	for _, d := range ds {
		if d.regression {
			fmt.Printf("WARNING: %s regressed %.2fx (%d -> %d ns/op, threshold %.1fx)\n",
				d.op, d.ratio, d.prev, d.cur, factor)
		}
	}
	if len(regressed) == 0 {
		fmt.Printf("no op regressed beyond %.1fx of the baseline\n", factor)
	}
	return regressed
}

// gatedRegressions filters the flagged ops to those matching a -gate
// prefix; a non-empty result makes the run fail (the blocking families,
// e.g. TXN/, versus the warn-only rest).
func gatedRegressions(regressed []string, gates string) []string {
	if gates == "" {
		return nil
	}
	var out []string
	for _, op := range regressed {
		for _, g := range strings.Split(gates, ",") {
			if g = strings.TrimSpace(g); g != "" && strings.HasPrefix(op, g) {
				out = append(out, op)
				break
			}
		}
	}
	return out
}

func main() {
	exp := flag.String("exp", "all", "experiment id or comma-separated list of ids (the usage comment atop main.go names them), or 'all'")
	flag.Parse()

	experiments := []struct {
		id   string
		name string
		run  func()
	}{
		{"F2", "Figure 2: choice-of / delete / certain on Flights", expF2},
		{"ACQ", "§2 acquisition scenario (EXP-S2-ACQ)", expAcquisition},
		{"TPCH", "§2 TPC-H what-if (EXP-S2-TPCH)", expTPCH},
		{"CENSUS", "§2 repair-by-key blowup (EXP-S2-CENSUS)", expCensus},
		{"WSD", "world-set decompositions: repair without enumeration (conclusion/future work)", expWSD},
		{"WSDX", "factorized WSD-native query engine: world-set algebra without enumerating worlds (PR 2 tentpole)", expWSDX},
		{"STORE", "decomposition-native catalog: factored pipelines, re-factorization, snapshot readers (PR 3 tentpole)", expStore},
		{"TXN", "transactional write path: WAL commit latency, prepared-statement throughput, recovery replay (PR 4 tentpole)", expTxn},
		{"AGG", "bounded component merging + world-count-independent aggregation (PR 6 tentpole)", expAgg},
		{"SHARD", "component-sharded catalog: parallel commits, per-shard WAL group commit, scatter reads (PR 7 tentpole)", expShard},
		{"PLAN", "cost-based planning over decomposition statistics: pruned rewrite search, ordered product chains (PR 9 tentpole)", expPlan},
		{"CKPT", "paged checkpoints: full vs incremental write volume, delta recovery, cold start under a small buffer pool (PR 10 tentpole)", expCkpt},
		{"SQL3", "§2 I-SQL vs division vs double-not-exists (EXP-S2-SQL)", expThreeWays},
		{"E56", "Examples 5.6/5.8: naive vs general vs optimized evaluation", expTranslations},
		{"F8F9", "Figures 8/9: rewriting ablation q1→q1′, q2→q2′", expRewriting},
		{"PHYS", "dedicated physical operators vs translated plans (conclusion/future work)", expPhysical},
		{"F7", "Figure 7: equivalence verification table", expEquivalenceTable},
		{"R46", "Remark 4.6: TriQL non-genericity", expTriQL},
		{"P42", "Proposition 4.2: 3-colorability via repair-by-key", expThreeColor},
	}
	wanted := func(id string) bool {
		if *exp == "all" {
			return true
		}
		for _, part := range strings.Split(*exp, ",") {
			if strings.EqualFold(strings.TrimSpace(part), id) {
				return true
			}
		}
		return false
	}
	ran := false
	for _, e := range experiments {
		if !wanted(e.id) {
			continue
		}
		ran = true
		fmt.Printf("==================== EXP-%s: %s ====================\n", e.id, e.name)
		e.run()
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *heapProfile != "" {
		f, err := os.Create(*heapProfile)
		must(err)
		runtime.GC() // fold transient experiment garbage out of the profile
		must(pprof.WriteHeapProfile(f))
		must(f.Close())
		fmt.Printf("wrote heap profile to %s\n", *heapProfile)
	}
	// Read the baseline before writeJSON possibly overwrites it.
	baseline := loadBaseline(*prevPath)
	quantileRows()
	writeJSON(*jsonPath)
	regressed := diffBaseline(baseline, *regress)
	failed := false
	if blocking := gatedRegressions(regressed, *gate); len(blocking) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d regression(s) in gated families (%s): %s\n",
			len(blocking), *gate, strings.Join(blocking, ", "))
		failed = true
	}
	for _, f := range acceptanceFailures {
		// Blocking only in gated runs (-gate, the dedicated CI step); the
		// warn-only sweep and ad-hoc local runs stay nonfatal.
		if *gate != "" {
			fmt.Fprintf(os.Stderr, "FAIL: acceptance floor violated: %s\n", f)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "WARNING: acceptance floor violated: %s\n", f)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// timed reports the wall-clock time of f, repeated until 50ms or 5 runs
// for stability, returning the minimum.
func timed(f func()) time.Duration {
	d, _ := timedAllocs(f)
	return d
}

// timedAllocs is timed plus the mean heap allocations per run.
func timedAllocs(f func()) (time.Duration, uint64) {
	return timedAllocsInto(nil, f)
}

// timedAllocsInto is timedAllocs with every iteration's duration
// additionally recorded into h (nil skips recording) — the feed for
// the per-family latency quantiles in the JSON report.
func timedAllocsInto(h *obs.Histogram, f func()) (time.Duration, uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	best := time.Duration(0)
	total := time.Duration(0)
	runs := 0
	for i := 0; i < 5; i++ {
		start := time.Now()
		f()
		d := time.Since(start)
		h.Observe(d)
		runs++
		if best == 0 || d < best {
			best = d
		}
		total += d
		if total > 50*time.Millisecond && i >= 1 {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	return best, (ms.Mallocs - m0) / uint64(runs)
}

// alternateMedians times the arms in alternating rounds — every arm
// once, then every arm again — so drift on a shared machine hits all
// arms alike, and returns each arm's median round. An arm times its own
// round, so it can do per-round set-up outside the measurement.
func alternateMedians(rounds int, arms ...func(round int) time.Duration) []time.Duration {
	samples := make([][]time.Duration, len(arms))
	for r := 0; r < rounds; r++ {
		for i, arm := range arms {
			runtime.GC() // no arm pays for the garbage of the one before
			samples[i] = append(samples[i], arm(r))
		}
	}
	medians := make([]time.Duration, len(arms))
	for i, s := range samples {
		slices.Sort(s)
		medians[i] = s[len(s)/2]
	}
	return medians
}

// benchRecord records an externally timed row for the JSON report.
func benchRecord(op string, d time.Duration) {
	benchRows = append(benchRows, benchRow{Op: op, NsPerOp: d.Nanoseconds(), GOMAXPROCS: runtime.GOMAXPROCS(0)})
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// sessionWorlds reads the session's world count off the decomposition
// (never expanding), saturating to int for the report columns — at
// -scale settings where the count exceeds the expansion budget,
// Session.WorldSet would return nil.
func sessionWorlds(s *isql.Session) int {
	w := s.Worlds()
	if w.IsInt64() && w.Int64() < int64(^uint(0)>>1) {
		return int(w.Int64())
	}
	return int(^uint(0) >> 1)
}

// expF2 scales the Figure 2 pipeline: χ_Dep world creation and certain
// arrivals.
func expF2() {
	fmt.Printf("%-10s %-10s %-10s %-14s %-14s\n", "flights", "deps", "worlds", "choice time", "certain time")
	for _, nDep := range []int{5, 20, 80, 320} {
		nDep := nDep * *scale
		flights := datagen.Flights(nDep, 20, 0.3, 7)
		ws := worldset.FromDB([]string{"Flights"}, []*relation.Relation{flights})
		chi := &wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "Flights"}}
		var worlds int
		dChoice := bench(fmt.Sprintf("F2/choice/deps=%d", nDep), &worlds, func() {
			out, err := wsa.Eval(chi, ws)
			must(err)
			worlds = out.Len()
		})
		certQ := wsa.NewCert(&wsa.Project{Columns: []string{"Arr"}, From: chi})
		dCert := bench(fmt.Sprintf("F2/certain/deps=%d", nDep), &worlds, func() {
			_, err := wsa.Eval(certQ, ws)
			must(err)
		})
		fmt.Printf("%-10d %-10d %-10d %-14s %-14s\n", flights.Len(), nDep, worlds, dChoice, dCert)
	}
}

func expAcquisition() {
	fmt.Printf("%-10s %-10s %-10s %-12s %-14s %-10s\n",
		"companies", "emps/co", "worlds", "targets", "time", "answer")
	for _, n := range []int{2, 4, 8, 16} {
		n := n * *scale
		ce := datagen.CompanyEmp(n, 4)
		es := datagen.EmpSkills(n, 4, 4, 11)
		var worlds, targets int
		d := bench(fmt.Sprintf("ACQ/script/companies=%d", n), &worlds, func() {
			s := isql.FromDB([]string{"Company_Emp", "Emp_Skills"},
				[]*relation.Relation{ce, es})
			_, err := s.ExecScript(`
				create table U as select * from Company_Emp choice of CID;
				create table V as
				  select R1.CID, R1.EID
				  from Company_Emp R1, (select * from U choice of EID) R2
				  where R1.CID = R2.CID and R1.EID != R2.EID;
				create table W as
				  select certain CID, Skill from V, Emp_Skills
				  where V.EID = Emp_Skills.EID
				  group worlds by (select CID from V);`)
			must(err)
			worlds = sessionWorlds(s)
			res, err := s.ExecString("select possible CID from W where Skill = 'S0';")
			must(err)
			targets = res.Answers[0].Len()
		})
		fmt.Printf("%-10d %-10d %-10d %-12d %-14s %s\n", n, 4, worlds, targets, d,
			"every company guarantees S0")
	}
}

func expTPCH() {
	fmt.Printf("%-10s %-10s %-10s %-12s %-14s\n", "products", "rows", "worlds", "loss-years", "time")
	for _, n := range []int{20, 60, 180} {
		n := n * *scale
		li := datagen.Lineitem(n, 3, 4, 42)
		var worlds, years int
		d := bench(fmt.Sprintf("TPCH/script/products=%d", n), &worlds, func() {
			s := isql.FromDB([]string{"Lineitem"}, []*relation.Relation{li})
			_, err := s.ExecString(`create table YearQuantity as
				select A.Year, sum(A.Price) as Revenue
				from (select * from Lineitem choice of Year) as A
				where Quantity not in (select * from Lineitem choice of Quantity)
				group by A.Year;`)
			must(err)
			worlds = sessionWorlds(s)
			res, err := s.ExecString(`select possible Year from YearQuantity as Y
				where (select sum(Price) from Lineitem where Lineitem.Year = Y.Year) - Y.Revenue > 100000;`)
			must(err)
			years = res.Answers[0].Len()
		})
		fmt.Printf("%-10d %-10d %-10d %-12d %-14s\n", n, li.Len(), worlds, years, d)
	}
}

func expCensus() {
	fmt.Printf("%-10s %-10s %-12s %-14s\n", "dup SSNs", "rows", "repairs", "time")
	for _, d := range []int{2, 4, 8, 12} {
		census := datagen.Census(200, d, 3)
		var repairs int
		dt := bench(fmt.Sprintf("CENSUS/repair/dups=%d", d), &repairs, func() {
			s := isql.FromDB([]string{"Census"}, []*relation.Relation{census})
			_, err := s.ExecString("create table Clean as select * from Census repair by key SSN;")
			must(err)
			repairs = sessionWorlds(s)
		})
		fmt.Printf("%-10d %-10d %-12d %-14s  (expected 2^%d = %d)\n",
			d, census.Len(), repairs, dt, d, 1<<d)
	}
}

// expWSD compares the explicit repair enumeration of EXP-CENSUS with
// the world-set decomposition of the same view: the decomposition stays
// linear in the input while representing 2^d worlds, and answers
// possible/certain queries directly.
func expWSD() {
	fmt.Printf("%-10s %-14s %-14s %-16s %-14s %-14s\n",
		"dup SSNs", "worlds", "enumeration", "decomposition", "wsd size", "cert via wsd")
	for _, dups := range []int{4, 8, 12, 40} {
		census := datagen.Census(200, dups, 3)
		enumTime := "(skipped: too many worlds)"
		if dups <= 12 {
			d := bench(fmt.Sprintf("WSD/enumeration/dups=%d", dups), nil, func() {
				s := isql.FromDB([]string{"Census"}, []*relation.Relation{census})
				_, err := s.ExecString("create table Clean as select * from Census repair by key SSN;")
				must(err)
			})
			enumTime = d.String()
		}
		var dec *wsd.WSD
		dDecomp := bench(fmt.Sprintf("WSD/decomposition/dups=%d", dups), nil, func() {
			var err error
			dec, err = wsd.RepairByKey("Census", census, []string{"SSN"})
			must(err)
		})
		var certLen int
		dCert := bench(fmt.Sprintf("WSD/cert/dups=%d", dups), nil, func() { certLen = dec.Cert().Len() })
		worlds := fmt.Sprintf("%d", dec.NumWorlds())
		if dups == 40 {
			worlds = "2^40"
		}
		fmt.Printf("%-10d %-14s %-14s %-16s %-14d %-14s (%d certain tuples)\n",
			dups, worlds, enumTime, dDecomp, dec.Size(), dCert, certLen)
	}
}

// expWSDX is the tentpole ablation for the factorized engine: the
// census-repair view queried for certain/possible answers, swept from
// 2^10 to 2^40 worlds. wsdexec evaluates cert(repair(Census)) and
// poss(repair(Census)) natively on the decomposition — cost linear in
// the input, independent of the world count — while every other engine
// must enumerate. At world counts the reference engine can still
// enumerate, the same certain-answer question is timed over the
// materialized repair so the speedup is measured head to head.
// In between, the selects of the serving read path: a point lookup and
// an equality select against reading the whole table.
func expWSDX() {
	certQ := wsa.NewCert(&wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}})
	possQ := wsa.NewPoss(&wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}})

	fmt.Printf("%-10s %-10s %-14s %-14s %-14s %-10s\n",
		"dup SSNs", "rows", "worlds", "wsdx cert", "wsdx poss", "certain")
	for _, dups := range []int{10, 20, 30, 40} {
		census := datagen.Census(1000**scale, dups, 3)
		db := wsd.FromComplete([]string{"Census"}, []*relation.Relation{census})
		var certLen int
		dCert := bench(fmt.Sprintf("WSDX/cert-wsdx/dups=%d", dups), nil, func() {
			out, plan, err := wsdexec.EvalOpts(certQ, db, &wsdexec.Options{NoFallback: true})
			must(err)
			if !plan.Native {
				must(fmt.Errorf("WSDX cert plan not native: %v", plan))
			}
			certLen = out.Certain[1].Len()
		})
		dPoss := bench(fmt.Sprintf("WSDX/poss-wsdx/dups=%d", dups), nil, func() {
			_, _, err := wsdexec.EvalOpts(possQ, db, &wsdexec.Options{NoFallback: true})
			must(err)
		})
		fmt.Printf("%-10d %-10d 2^%-12d %-14s %-14s %-10d\n",
			dups, census.Len(), dups, dCert, dPoss, certLen)
	}

	// A read costs what it selects: over the stored repair view (2^40
	// worlds), one statement each of a point lookup by key, an
	// equality select on two columns and poss of the whole table, all
	// prelowered once like a prepared plan. The selects probe the cached
	// index of the certain part; the floor holds the point lookup at
	// least 3x under reading the table.
	{
		db := datagen.CensusRepairDecomp(1000**scale, 40, 3)
		env := wsa.NewEnv(db.Names, db.Schemas)
		clean := &wsa.Rel{Name: "Clean"}
		stmt := func(op string, q wsa.Expr) time.Duration {
			q = rewrite.Prelower(q, env)
			return bench("WSDX/"+op+"/dups=40", nil, func() {
				_, plan, err := wsdexec.EvalOpts(q, db, &wsdexec.Options{NoRewrite: true, NoFallback: true})
				must(err)
				if !plan.Native {
					must(fmt.Errorf("WSDX %s plan not native: %v", op, plan))
				}
			})
		}
		dPoint := stmt("point-select", wsa.NewPoss(&wsa.Select{
			Pred: ra.EqConst("SSN", value.Int(100517)), From: clean}))
		dEq := stmt("eq-select", wsa.NewPoss(&wsa.Project{Columns: []string{"Name"}, From: &wsa.Select{
			Pred: ra.And{L: ra.EqConst("POB", value.Str("NYC")), R: ra.EqConst("POW", value.Str("LA"))}, From: clean}}))
		dTable := stmt("poss-table", wsa.NewPoss(clean))
		fmt.Printf("\n%-14s %-14s %-14s %-10s\n", "point select", "eq select", "poss(table)", "table/point")
		fmt.Printf("%-14s %-14s %-14s %.1fx\n", dPoint, dEq, dTable, float64(dTable)/float64(dPoint))
		acceptRatio("WSDX point select vs poss of the same table", float64(dTable)/float64(dPoint), 3)
	}

	// Head-to-head against the reference engine at enumerable scale: the
	// repaired world-set is materialized once, outside the timer, so the
	// reference engine is charged only for its certain-answer pass.
	fmt.Printf("\n%-10s %-10s %-16s %-14s %-10s\n",
		"dup SSNs", "worlds", "reference cert", "wsdx cert", "speedup")
	certClean := wsa.NewCert(&wsa.Rel{Name: "Clean"})
	for _, dups := range []int{8, 10, 12} {
		census := datagen.Census(50**scale, dups, 3)
		ws := worldset.FromDB([]string{"Census"}, []*relation.Relation{census})
		clean, err := wsa.Run(&wsa.RepairKey{Attrs: []string{"SSN"}, From: &wsa.Rel{Name: "Census"}}, ws, "Clean")
		must(err)
		worlds := clean.Len()
		dRef := bench(fmt.Sprintf("WSDX/cert-reference/dups=%d", dups), &worlds, func() {
			_, err := wsa.Eval(certClean, clean)
			must(err)
		})
		db := wsd.FromComplete([]string{"Census"}, []*relation.Relation{census})
		dWsdx := bench(fmt.Sprintf("WSDX/cert-wsdx-vs-reference/dups=%d", dups), &worlds, func() {
			_, _, err := wsdexec.EvalOpts(certQ, db, &wsdexec.Options{NoFallback: true})
			must(err)
		})
		fmt.Printf("%-10d %-10d %-16s %-14s %.0fx\n",
			dups, worlds, dRef, dWsdx, float64(dRef)/float64(dWsdx))
	}
}

// expStore is the tentpole ablation for the decomposition-native
// catalog: the census-repair pipeline (repair → select → aggregate)
// executes statement by statement through the store-backed I-SQL
// session, staying factored end to end — wall-clock stays in
// milliseconds as the world count sweeps 2^10 → 2^40, where the
// explicit world-set session path stops being able to finish at all.
// Alongside: wsd.Refactor compressing enumerated world-sets back into
// components, catalog persistence, and the concurrent snapshot-reader
// fan-out that cmd/isqld serves from.
func expStore() {
	pipeline := `
		create table Clean as select * from Census repair by key SSN;
		create table Suspects as select SSN, Name from Clean where POB = 'NYC';
		select certain Name from Suspects;
		select possible Name from Suspects;`

	fmt.Printf("%-10s %-10s %-14s %-16s %-16s\n",
		"dup SSNs", "rows", "worlds", "store pipeline", "legacy pipeline")
	for _, dups := range []int{10, 20, 40} {
		census := datagen.Census(1000**scale, dups, 7)
		var worlds string
		dStore := bench(fmt.Sprintf("STORE/pipeline/dups=%d", dups), nil, func() {
			s := isql.FromDB([]string{"Census"}, []*relation.Relation{census})
			res, err := s.ExecScript(pipeline)
			must(err)
			if res.Plan == nil || !res.Plan.Native {
				must(fmt.Errorf("STORE pipeline left the decomposition (plan %v)", res.Plan))
			}
			worlds = s.Worlds().String()
		})
		legacy := "(refused: BudgetError)"
		if dups <= 10 {
			d := bench(fmt.Sprintf("STORE/pipeline-legacy/dups=%d", dups), nil, func() {
				s := isql.FromDB([]string{"Census"}, []*relation.Relation{census})
				s.Engine = "legacy"
				_, err := s.ExecScript(pipeline)
				must(err)
			})
			legacy = d.String()
		}
		fmt.Printf("%-10d %-10d %-14s %-16s %-16s\n", dups, census.Len(), worlds, dStore, legacy)
	}

	// Re-factorization: enumerated world-sets of 2^d worlds compress
	// back into d binary components (verified), the operation that keeps
	// pipelines factored after an entangled fallback.
	fmt.Printf("\n%-10s %-10s %-14s %-14s\n", "worlds", "size in", "size out", "refactor")
	for _, dups := range []int{4, 8, 12} {
		db := datagen.CensusRepairDecomp(60**scale, dups, 7)
		ws, err := db.Expand(0)
		must(err)
		var out *wsd.DecompDB
		d := bench(fmt.Sprintf("STORE/refactor/worlds=%d", 1<<dups), nil, func() {
			out, err = wsd.Refactor(ws)
			must(err)
		})
		if len(out.Components) != dups {
			must(fmt.Errorf("refactor found %d components, want %d", len(out.Components), dups))
		}
		sizeIn := 0
		for _, w := range ws.Worlds() {
			for _, r := range w {
				sizeIn += r.Len()
			}
		}
		fmt.Printf("%-10d %-10d %-14d %-14s\n", ws.Len(), sizeIn, out.Size(), d)
	}

	// Snapshot-reader fan-out over a shared 2^40-world catalog: 16
	// concurrent sessions, 4 certain-answer queries each — the isqld
	// serving path without the HTTP layer.
	seedSession := isql.FromDB([]string{"Census"}, []*relation.Relation{datagen.Census(1000**scale, 40, 7)})
	_, err := seedSession.ExecScript(pipeline)
	must(err)
	shared := seedSession.Catalog()
	const readers, queriesPer = 16, 4
	dReaders := bench("STORE/readers16x4/dups=40", nil, func() {
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess := isql.FromCatalog(shared)
				for i := 0; i < queriesPer; i++ {
					res, err := sess.ExecString("select certain Name from Suspects;")
					must(err)
					if len(res.Answers) != 1 {
						must(fmt.Errorf("reader got %d answers", len(res.Answers)))
					}
				}
			}()
		}
		wg.Wait()
	})
	fmt.Printf("\n%d readers x %d certain-queries over one 2^40 catalog: %s (%.0f queries/s)\n",
		readers, queriesPer, dReaders, float64(readers*queriesPer)/dReaders.Seconds())

	// Persistence round trip of the factored 2^40 catalog.
	path := filepath.Join(os.TempDir(), "wsabench_store.wsd")
	defer os.Remove(path)
	dSave := bench("STORE/save/dups=40", nil, func() { must(isql.SaveCatalog(path, seedSession)) })
	var loaded *isql.Session
	dLoad := bench("STORE/load/dups=40", nil, func() {
		var err error
		loaded, err = isql.LoadCatalog(path)
		must(err)
	})
	if loaded.Worlds().Cmp(seedSession.Worlds()) != 0 {
		must(fmt.Errorf("persistence changed the world count"))
	}
	info, err := os.Stat(path)
	must(err)
	fmt.Printf("catalog persistence: save %s, load %s, %d bytes for %s worlds\n",
		dSave, dLoad, info.Size(), seedSession.Worlds())
}

// expTxn is the tentpole ablation for the transactional write path:
// (1) commit latency of BEGIN → k statements → COMMIT batches, with and
// without the statement-level WAL (the WAL run pays one fsynced append
// per commit, however many statements the batch holds); (2) request
// throughput of the isqld wire protocol, parse-per-request /exec versus
// the shared-plan-cache /execute — the prepared path must stay ≥2×
// ahead; (3) parameterized EXECUTE through plan-level binding versus
// the rebind-and-recompile path it replaced (≥2× floor); (4) WAL group
// commit: concurrent auto-commit writers sharing fsyncs versus a lone
// writer; (5) crash-recovery replay time of a statement log.
func expTxn() {
	// Commit latency vs statements per transaction.
	fmt.Printf("%-12s %-14s %-14s %-14s\n", "stmts/txn", "commit (mem)", "commit (wal)", "wal amortized/stmt")
	for _, k := range []int{1, 8, 64} {
		k := k * *scale
		mem := txnCommitLatency(fmt.Sprintf("TXN/commit-mem/stmts=%d", k), k, false)
		wal := txnCommitLatency(fmt.Sprintf("TXN/commit-wal/stmts=%d", k), k, true)
		fmt.Printf("%-12d %-14s %-14s %-14s\n", k, mem, wal, wal/time.Duration(k))
	}

	txnParamBinding()
	txnGroupCommit()

	// Prepared vs parse-per-request throughput over the live wire
	// protocol (httptest server, the real isqld handler stack).
	cat := store.FromComplete([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	srv := httptest.NewServer(isqld.New(cat).Handler())
	defer srv.Close()
	mustPost(srv.URL+"/exec", "create table Clean as select * from Census repair by key SSN;")
	var q strings.Builder
	q.WriteString("select certain Name from Clean where ")
	for i := 0; i < 48; i++ {
		if i > 0 {
			q.WriteString(" or ")
		}
		fmt.Fprintf(&q, "POB = 'C%d'", i)
	}
	q.WriteString(";")
	mustPost(srv.URL+"/prepare", "prepare q as "+strings.TrimSuffix(q.String(), ";")+";")
	const requests = 40
	dExec := bench("TXN/exec-unprepared", nil, func() {
		for i := 0; i < requests; i++ {
			mustPost(srv.URL+"/exec", q.String())
		}
	})
	dPrep := bench("TXN/execute-prepared", nil, func() {
		for i := 0; i < requests; i++ {
			mustPost(srv.URL+"/execute", "q")
		}
	})
	fmt.Printf("\nwire protocol, %d requests of one analytical query:\n", requests)
	fmt.Printf("%-24s %-14s %12.0f req/s\n", "/exec (parse each)", dExec, float64(requests)/dExec.Seconds())
	fmt.Printf("%-24s %-14s %12.0f req/s\n", "/execute (plan cache)", dPrep, float64(requests)/dPrep.Seconds())
	prepSpeedup := float64(dExec) / float64(dPrep)
	fmt.Printf("prepared speedup: %.1fx (target 2x; blocking floor 1.5x)\n", prepSpeedup)
	acceptRatio("prepared /execute vs /exec", prepSpeedup, 1.5)

	// Crash-recovery replay: reopen a store whose WAL tail holds N
	// single-statement commits past the last checkpoint.
	for _, records := range []int{50, 200} {
		records := records * *scale
		dir, err := os.MkdirTemp("", "wsabench_txn")
		must(err)
		cat, wal := openStore(dir, 0)
		sess := isql.FromCatalog(cat)
		_, err = sess.ExecString("create table T (A, B);")
		must(err)
		for i := 0; i < records; i++ {
			_, err = sess.ExecString(fmt.Sprintf("insert into T values (%d, %d);", i, i*7))
			must(err)
		}
		must(wal.Close()) // crash: no checkpoint
		var recovered *store.Catalog
		d := bench(fmt.Sprintf("TXN/recovery/records=%d", records), nil, func() {
			var w2 *store.WAL
			recovered, w2 = openStore(dir, 0)
			must(w2.Close())
		})
		if recovered.Snapshot().Version != cat.Snapshot().Version {
			must(fmt.Errorf("recovery ended at v%d, want v%d", recovered.Snapshot().Version, cat.Snapshot().Version))
		}
		info, err := os.Stat(wal.Path())
		must(err)
		fmt.Printf("recovery replay of %d logged commits: %s (%d-byte log)\n", records+1, d, info.Size())
		os.RemoveAll(dir)
	}
}

// txnParamBinding measures the parameterized prepared-statement path:
// EXECUTE q($1-bound) through plan-level binding (compile + prelower
// once, bind constants per call) against the PR-4 behavior it replaces
// — re-running compilation and the rewrite search per call on an
// already-parsed tree, compared on median rounds against a warn-only
// 1.5× floor.
func txnParamBinding() {
	cat := store.FromComplete([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()})
	sess := isql.FromCatalog(cat)
	runStmt := func(sql string) {
		_, err := sess.ExecString(sql)
		must(err)
	}
	runStmt("create table Clean as select * from Census repair by key SSN;")
	var q strings.Builder
	q.WriteString("select certain Name from Clean where POW = $1")
	for i := 0; i < 47; i++ {
		fmt.Fprintf(&q, " or POB = 'C%d'", i)
	}
	runStmt("prepare qp as " + q.String() + ";")
	call, err := isql.Parse("execute qp('Office');")
	must(err)
	// The old path: the same statement with the argument substituted, as
	// an already-parsed tree — executing it re-runs analysis, compilation
	// and the rewrite search every call, exactly what PR 4's EXECUTE did
	// for any statement with a $n parameter.
	rebound, err := isql.Parse(strings.Replace(q.String(), "$1", "'Office'", 1) + ";")
	must(err)
	const requests = 40 // matches the wire-protocol ops above
	round := func(st isql.Statement) func(int) time.Duration {
		return func(int) time.Duration {
			start := time.Now()
			for i := 0; i < requests; i++ {
				_, err := sess.Exec(st)
				must(err)
			}
			return time.Since(start)
		}
	}
	med := alternateMedians(15, round(call), round(rebound))
	dBound, dRecompile := med[0], med[1]
	benchRecord("TXN/execute-param-bound", dBound)
	benchRecord("TXN/execute-param-recompile", dRecompile)
	fmt.Printf("\nparameterized EXECUTE, %d calls of one 48-way disjunction:\n", requests)
	fmt.Printf("%-30s %-14s\n", "plan-level binding", dBound)
	fmt.Printf("%-30s %-14s\n", "rebind + recompile (old path)", dRecompile)
	speedup := float64(dRecompile) / float64(dBound)
	fmt.Printf("binding speedup: %.1fx (target 2x; warn-only floor 1.5x)\n", speedup)
	// If parameterized EXECUTE recompiles again, this collapses to ~1x.
	// Even on medians of alternating rounds the ratio of an unchanged
	// tree spans 1.3-1.9x on a shared 2-core container, so the floor
	// warns instead of failing; TXN/execute-param-bound is still gated
	// as an absolute against the baseline.
	warnRatio("parameterized-EXECUTE binding vs recompile", speedup, 1.5)
}

// txnGroupCommit measures WAL group commit: total wall-clock and fsync
// count for W concurrent auto-commit writers (each insert is one logged
// commit) versus a lone writer issuing the same number of commits. The
// commit queue's leader coalesces every waiting committer's record into
// one write + one fsync, so the 8-writer run must need far fewer fsyncs
// than commits.
func txnGroupCommit() {
	const commitsPerWriter = 24
	fmt.Printf("\ngroup commit, %d logged single-insert commits per writer:\n", commitsPerWriter)
	fmt.Printf("%-10s %-10s %-8s %-14s %-14s\n", "writers", "commits", "fsyncs", "total", "per commit")
	for _, writers := range []int{1, 8} {
		dir, err := os.MkdirTemp("", "wsabench_gc")
		must(err)
		cat, wal := openStore(dir, 0)
		seed := isql.FromCatalog(cat)
		_, err = seed.ExecString("create table T (A, B);")
		must(err)
		baseSyncs := wal.Syncs()
		baseVersion := cat.Snapshot().Version
		round := 0
		d := bench(fmt.Sprintf("TXN/group-commit/writers=%d", writers), nil, func() {
			round++
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w, round int) {
					defer wg.Done()
					sess := isql.FromCatalog(cat)
					for i := 0; i < commitsPerWriter; i++ {
						if _, err := sess.ExecString(fmt.Sprintf("insert into T values (%d, %d);", (round*10+w)*1000+i, i)); err != nil {
							panic(err)
						}
					}
				}(w, round)
			}
			wg.Wait()
		})
		// bench may repeat the closure for timing stability; derive the
		// true totals from the version and sync counters.
		commits := uint64(cat.Snapshot().Version - baseVersion)
		syncs := wal.Syncs() - baseSyncs
		perRound := writers * commitsPerWriter
		fmt.Printf("%-10d %-10d %-8d %-14s %-14s\n", writers, commits, syncs, d, d/time.Duration(perRound))
		if writers > 1 && syncs > 0 {
			amort := float64(commits) / float64(syncs)
			fmt.Printf("fsync amortization at %d writers: %.1fx (%d commits / %d fsyncs)\n",
				writers, amort, commits, syncs)
			// Record the fsync count itself so the baseline diff tracks
			// amortization over time (more fsyncs = slower = flagged), per
			// two rounds of commits: bench repeats the closure as often as
			// timing stability asks, so a raw count would move with the
			// repetitions — cheaper commits mean more of them.
			benchRows = append(benchRows, benchRow{
				Op:         fmt.Sprintf("TXN/group-commit-fsyncs/writers=%d", writers),
				NsPerOp:    int64(syncs) * int64(2*perRound) / int64(commits),
				Worlds:     2 * perRound,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
			})
			// Intra-run floor: without group commit every commit fsyncs
			// itself and this is exactly 1x. Enforced only with real
			// scheduling parallelism — with a single P the runtime may
			// never hand the processor off during the leader's fsync,
			// legitimately serializing the committers.
			if runtime.GOMAXPROCS(0) > 1 {
				acceptRatio("group-commit fsync amortization at 8 writers", amort, 1.3)
			}
		}
		must(wal.Close())
		os.RemoveAll(dir)
	}
}

// txnCommitLatency times one BEGIN → k inserts → COMMIT batch, with the
// catalog optionally WAL-backed (fsync on commit).
func txnCommitLatency(op string, k int, withWAL bool) time.Duration {
	var cat *store.Catalog
	var wal *store.WAL
	if withWAL {
		dir, err := os.MkdirTemp("", "wsabench_txn")
		must(err)
		defer os.RemoveAll(dir)
		cat, wal = openStore(dir, 0)
		defer wal.Close()
	} else {
		cat = store.New(nil)
	}
	sess := isql.FromCatalog(cat)
	_, err := sess.ExecString("create table T (A, B);")
	must(err)
	n := 0
	return bench(op, nil, func() {
		must(sess.Begin())
		for i := 0; i < k; i++ {
			n++
			_, err := sess.ExecString(fmt.Sprintf("insert into T values (%d, %d);", n, n*3))
			must(err)
		}
		must(sess.Commit())
	})
}

// expCkpt is the tentpole ablation for the paged storage engine: (1)
// checkpoint write volume — a full checkpoint of a wide catalog versus
// an incremental one after dirtying a single relation (the incremental
// write must be a small fraction of the full one) and a no-op
// checkpoint (which must write zero bytes); (2) cold start with a
// buffer pool far smaller than the catalog — the pool pages chains in
// and out, recovery still completes; (3) crash-recovery replay of WAL
// page deltas whose statements would each re-run an analytic CTAS.
func expCkpt() {
	const pool = 256
	rels := 16 * *scale
	rows := 25

	dir, err := os.MkdirTemp("", "wsabench_ckpt")
	must(err)
	defer os.RemoveAll(dir)
	wsdPath := filepath.Join(dir, "checkpoint.wsd")
	cat, wal := openStore(dir, pool)
	sess := isql.FromCatalog(cat)
	for i := 0; i < rels; i++ {
		_, err := sess.ExecString(fmt.Sprintf("create table T%02d (A, B);", i))
		must(err)
		var ins strings.Builder
		fmt.Fprintf(&ins, "insert into T%02d values", i)
		for v := 0; v < rows; v++ {
			if v > 0 {
				ins.WriteString(",")
			}
			fmt.Fprintf(&ins, " (%d, %d)", i*1000+v, v*7)
		}
		ins.WriteString(";")
		_, err = sess.ExecString(ins.String())
		must(err)
	}

	// Full checkpoints: every iteration seeds a fresh directory with the
	// whole catalog — store.Open writes it as the seed checkpoint.
	iter := 0
	var fullBytes uint64
	dFull := bench(fmt.Sprintf("CKPT/checkpoint-full/rels=%d", rels), nil, func() {
		fdir := filepath.Join(dir, fmt.Sprintf("full-%d", iter))
		iter++
		fcat, fwals, err := store.Open(filepath.Join(fdir, "checkpoint.wsd"), fdir, 1, pool,
			func() (*store.Catalog, error) { return store.New(cat.Snapshot().DB), nil })
		must(err)
		fullBytes = fcat.Pager().Stats().BytesWritten
		must(fcat.Pager().Close())
		must(fwals[0].Close())
	})

	// Incremental: establish the base on the main path, then each
	// iteration dirties one relation and checkpoints only its pages.
	must(cat.Checkpoint())
	ps := cat.Pager()
	incrBase := ps.Stats()
	v := 0
	dIncr := bench("CKPT/checkpoint-incremental", nil, func() {
		_, err := sess.ExecString(fmt.Sprintf("insert into T00 values (%d, %d);", 900000+v, v))
		must(err)
		v++
		must(cat.Checkpoint())
	})
	incrStats := ps.Stats()
	incrBytes := (incrStats.BytesWritten - incrBase.BytesWritten) /
		(incrStats.Checkpoints - incrBase.Checkpoints)
	noopBase := ps.Stats()
	dNoop := bench("CKPT/checkpoint-noop", nil, func() {
		must(cat.Checkpoint())
	})
	noopStats := ps.Stats()
	fmt.Printf("%-28s %-14s %12s\n", "checkpoint", "time", "bytes")
	fmt.Printf("%-28s %-14s %12d\n", fmt.Sprintf("full (%d relations)", rels), dFull, fullBytes)
	fmt.Printf("%-28s %-14s %12d\n", "incremental (1 dirty rel)", dIncr, incrBytes)
	fmt.Printf("%-28s %-14s %12d\n", "no-op (nothing committed)", dNoop, noopStats.BytesWritten-noopBase.BytesWritten)
	if noopStats.BytesWritten != noopBase.BytesWritten || noopStats.NoopSkips == noopBase.NoopSkips {
		must(fmt.Errorf("no-op checkpoint wrote %d bytes (skips %d -> %d)",
			noopStats.BytesWritten-noopBase.BytesWritten, noopBase.NoopSkips, noopStats.NoopSkips))
	}
	byteRatio := float64(fullBytes) / float64(incrBytes)
	fmt.Printf("incremental byte reduction: %.1fx fewer bytes than full (floor 4x)\n", byteRatio)
	acceptRatio("incremental vs full checkpoint bytes", byteRatio, 4)

	// Cold start: reopen the checkpointed catalog with a pool a fraction
	// of the file size, versus a pool that holds it entirely.
	wantVersion := cat.Snapshot().Version
	must(wal.Close())
	coldstart := func(op string, poolPages int) time.Duration {
		return bench(op, nil, func() {
			c2, w2 := openStore(dir, poolPages)
			if got := c2.Snapshot().Version; got != wantVersion {
				must(fmt.Errorf("cold start recovered v%d, want v%d", got, wantVersion))
			}
			must(c2.Pager().Close())
			must(w2.Close())
		})
	}
	dTiny := coldstart("CKPT/coldstart/pool=8", 8)
	dBig := coldstart(fmt.Sprintf("CKPT/coldstart/pool=%d", pool), pool)
	fi, err := os.Stat(wsdPath)
	must(err)
	fmt.Printf("\ncold start of a %d-page catalog: pool=8 %s, pool=%d %s\n",
		fi.Size()/8192, dTiny, pool, dBig)

	// Recovery replay: the checkpointed base is a raw Lineitem table;
	// every committed record past the checkpoint drops and rebuilds the
	// §2 what-if analysis with an analytic CTAS (choice-of worlds, a
	// not-in subquery, grouped aggregation). Replaying its WAL page
	// delta just patches the resulting relations back into the catalog;
	// the analysis itself is never re-run.
	li := datagen.Lineitem(20, 3, 4, 42)
	var seed strings.Builder
	seed.WriteString("insert into Lineitem values")
	wroteRow := false
	li.Each(func(t relation.Tuple) {
		if wroteRow {
			seed.WriteString(",")
		}
		wroteRow = true
		fmt.Fprintf(&seed, " ('%s', %d, %d, %d)",
			t[0].AsString(), t[1].AsInt(), t[2].AsInt(), t[3].AsInt())
	})
	seed.WriteString(";")
	const whatIf = `create table YearQuantity as
		select A.Year, sum(A.Price) as Revenue
		from (select * from Lineitem choice of Year) as A
		where Quantity not in (select * from Lineitem choice of Quantity)
		group by A.Year;`
	records := 10 * *scale
	rdir, err := os.MkdirTemp("", "wsabench_ckpt_rec")
	must(err)
	defer os.RemoveAll(rdir)
	c2, w2 := openStore(rdir, pool)
	s2 := isql.FromCatalog(c2)
	_, err = s2.ExecString("create table Lineitem (Product, Quantity, Price, Year);")
	must(err)
	_, err = s2.ExecString(seed.String())
	must(err)
	must(c2.Checkpoint()) // the WAL tail holds only the analyses
	for i := 0; i < records; i++ {
		if i > 0 {
			_, err := s2.ExecString("drop table YearQuantity;")
			must(err)
		}
		_, err := s2.ExecString(whatIf)
		must(err)
	}
	must(w2.Close()) // crash: the analyses live only in the log
	dRec := bench(fmt.Sprintf("CKPT/recovery-delta/records=%d", records), nil, func() {
		c3, w3 := openStore(rdir, pool)
		if got := c3.Snapshot().Version; got != c2.Snapshot().Version {
			must(fmt.Errorf("recovery ended at v%d, want v%d", got, c2.Snapshot().Version))
		}
		must(c3.Pager().Close())
		must(w3.Close())
	})
	fmt.Printf("recovery of %d analytic commits by delta: %s\n", records, dRec)
}

// expAgg is the tentpole ablation for the bounded evaluator: (1) the
// fragment+aggregate sweep — a catalog holding 2^10 → 2^40 repair
// worlds plus a small independent choice region, where aggregates and
// aggregate CTAS enumerate only the dependent components (latency must
// stay flat as the world count grows thirty orders of magnitude, and a
// fragment join of two choice tables must resolve its entanglement by
// a native merge, never a full expansion); (2) the merge and the
// engine's enumeration fallback (merging disabled) on a decomposition
// whose only entanglement couples two 4-alternative components among d
// independent spectators — both pay for the 16 combinations of the
// coupled components whatever d is, so both must answer at 2^42 worlds
// as they do at 2^12.
func expAgg() {
	fmt.Printf("%-10s %-16s %-14s %-14s %-14s\n",
		"dup SSNs", "worlds", "bounded agg", "agg ctas", "merge join")
	var aggTimes []time.Duration
	for _, dups := range []int{10, 20, 30, 40} {
		census := datagen.Census(1000**scale, dups, 7)
		s := isql.FromDB([]string{"Census"}, []*relation.Relation{census})
		stats := isql.NewExecStats()
		s.Stats = stats
		_, err := s.ExecScript(`
			create table Clean as select * from Census repair by key SSN;
			create table Tiny (V);
			insert into Tiny values (1);
			insert into Tiny values (2);
			insert into Tiny values (3);
			create table Pick1 as select * from Tiny choice of V;
			create table Pick2 as select * from Tiny choice of V;`)
		must(err)
		worlds := s.Worlds().String()
		// Aggregate over the 1-component choice region: 3 dependent
		// worlds enumerated, however many the catalog represents.
		dAgg := bench(fmt.Sprintf("AGG/bounded-agg/dups=%d", dups), nil, func() {
			res, err := s.ExecString("select sum(V) as S from Pick1;")
			must(err)
			if len(res.Answers) != 3 {
				must(fmt.Errorf("AGG bounded aggregate: %d answers, want 3", len(res.Answers)))
			}
		})
		aggTimes = append(aggTimes, dAgg)
		// Aggregate CTAS: the grouped result is refactored and the
		// independent repair components spliced back unchanged.
		n := 0
		dCTAS := bench(fmt.Sprintf("AGG/agg-ctas/dups=%d", dups), nil, func() {
			n++
			_, err := s.ExecString(fmt.Sprintf(
				"create table PickStats%d as select V, count(*) as N from Pick1 group by V;", n))
			must(err)
		})
		// Fragment join entangling the two choice components: resolved by
		// one native merge (cost 9), never a fallback.
		dJoin := bench(fmt.Sprintf("AGG/merge-join/dups=%d", dups), nil, func() {
			res, err := s.ExecString("select certain X.V from Pick1 X, Pick2 Y where X.V = Y.V;")
			must(err)
			if res.Plan == nil || !res.Plan.Native || len(res.Plan.Merges) == 0 {
				must(fmt.Errorf("AGG merge join did not merge natively: %v", res.Plan))
			}
		})
		snap := stats.Snapshot()
		if snap.Fallbacks != 0 {
			must(fmt.Errorf("AGG sweep hit %d full-expansion fallbacks", snap.Fallbacks))
		}
		if snap.LegacyOps["aggregation"] == 0 {
			must(fmt.Errorf("AGG sweep recorded no bounded aggregation (stats %+v)", snap))
		}
		fmt.Printf("%-10d %-16s %-14s %-14s %-14s\n", dups, worlds, dAgg, dCTAS, dJoin)
	}
	// Intra-run floor for world-count independence: the bounded
	// aggregate at 2^40 may not be more than 5x the 2^10 run — the
	// dependent region is identical, only the spliced-back catalog grew.
	independence := float64(aggTimes[0]) / float64(aggTimes[len(aggTimes)-1])
	fmt.Printf("bounded aggregate 2^10 vs 2^40: %.2fx (floor 0.2x, i.e. at most 5x slower)\n", independence)
	acceptRatio("bounded aggregate world-count independence (2^10 vs 2^40)", independence, 0.2)

	// Merge and fallback over the coupled components only: neither may
	// depend on the spectator count.
	fmt.Printf("\n%-12s %-10s %-14s %-14s\n", "spectators", "worlds", "merge path", "fallback path")
	var fbTimes []time.Duration
	for _, d := range []int{8, 12, 38} {
		db, q := aggTornDB(4, d)
		dMerge := bench(fmt.Sprintf("AGG/merge/spect=%d", d), nil, func() {
			_, plan, err := wsdexec.EvalOpts(q, db, &wsdexec.Options{NoFallback: true})
			must(err)
			if !plan.Native || len(plan.Merges) != 1 || plan.MergeCost != 16 {
				must(fmt.Errorf("AGG merge plan not one native cost-16 merge: %v", plan))
			}
		})
		dFallback := bench(fmt.Sprintf("AGG/fallback/spect=%d", d), nil, func() {
			_, plan, err := wsdexec.EvalOpts(q, db, &wsdexec.Options{NoMerge: true, ExpandBudget: 1 << 20})
			must(err)
			if plan.Native {
				must(fmt.Errorf("AGG NoMerge run evaluated natively: %v", plan))
			}
		})
		fbTimes = append(fbTimes, dFallback)
		fmt.Printf("%-12d %-10s %-14s %-14s\n", d, fmt.Sprintf("2^%d", 4+d), dMerge, dFallback)
	}
	// The fallback enumerates the same 16 region worlds at both sizes;
	// only the spliced-back spectator list grew.
	fbIndependence := float64(fbTimes[0]) / float64(fbTimes[len(fbTimes)-1])
	fmt.Printf("fallback 2^12 vs 2^42: %.2fx (floor 0.2x, i.e. at most 5x slower)\n", fbIndependence)
	acceptRatio("engine fallback world-count independence (2^12 vs 2^42)", fbIndependence, 0.2)
}

// aggTornDB builds a decomposition whose only entanglement couples two
// k-alternative components (relations R and S) while d independent
// binary spectator components vary relation T: k²·2^d worlds, merge
// cost k² for the product R × S.
func aggTornDB(k, d int) (*wsd.DecompDB, wsa.Expr) {
	names := []string{"R", "S", "T"}
	schemas := []relation.Schema{
		relation.NewSchema("A"), relation.NewSchema("B"), relation.NewSchema("C")}
	db := wsd.NewDecompDB(names, schemas)
	comp := func(ri, n int) wsd.DBComponent {
		c := wsd.DBComponent{}
		for a := 0; a < n; a++ {
			r := relation.New(schemas[ri])
			r.Insert(relation.Tuple{value.Int(int64(a))})
			c.Alternatives = append(c.Alternatives, wsd.DBAlternative{Rels: map[int]*relation.Relation{ri: r}})
		}
		return c
	}
	db.Components = append(db.Components, comp(0, k), comp(1, k))
	for i := 0; i < d; i++ {
		db.Components = append(db.Components, comp(2, 2))
	}
	return db, wsa.NewProduct(&wsa.Rel{Name: "R"}, &wsa.Rel{Name: "S"})
}

// expShard is the tentpole ablation for the component-sharded catalog:
// (1) transactional commit throughput — concurrent writers each looping
// BEGIN → inserts into their own table → COMMIT, swept over shard counts
// {1,2,4,8} × writers {1,8}, every commit WAL-logged. Validation is per
// relation, so writers on disjoint tables never conflict at any shard
// count — on one shard they rebase onto each other's commits and share
// its group-commit fsyncs. Floor: 0 conflicts at 8 writers on every
// shard count. A contended row puts the 8 writers on one table: there
// first-committer-wins still refuses, the sessions retry, and every
// commit must land. (2) routed single-statement latency — a lone
// writer's auto-commit inserts take one shard's write path and must stay
// within 10% of the one-shard catalog's. (3) scattered reads — selects
// over choice tables spread across the shards plus a cross-shard merge
// join, where the sharded snapshot hands the engine its
// component-to-shard map: scatter ordering may change scan chunking,
// never latency class or answers.
func expShard() {
	const (
		commitsPerWriter = 6
		stmtsPerTxn      = 4
		seedRows         = 8000
	)
	// The sweep needs writers that actually interleave: on a box with few
	// cores, GOMAXPROCS=1 would serialize the writers at their commit
	// points and no conflict could develop on ANY catalog. Pin GOMAXPROCS
	// to the writer count for the sweep (the JSON rows record it) and
	// restore for the latency parts below.
	prevProcs := runtime.GOMAXPROCS(8)
	fmt.Printf("%-8s %-8s %-9s %-10s %-8s %-14s %-14s\n",
		"shards", "writers", "commits", "conflicts", "fsyncs", "total", "per commit")
	// sweep runs the writers' loop on a fresh durable catalog, writer w
	// inserting into tables[w], and returns the commits published and the
	// conflicts counted.
	sweep := func(op string, shards int, tables []string) (commits, conflicts uint64) {
		writers := len(tables)
		dir, err := os.MkdirTemp("", "wsabench_shard")
		must(err)
		cat, wals := openShards(dir, shards, 0)
		seed := isql.FromCatalog(cat)
		created := map[string]bool{}
		for _, tbl := range tables {
			if created[tbl] {
				continue
			}
			created[tbl] = true
			_, err := seed.ExecString(fmt.Sprintf("create table %s (A, B);", tbl))
			must(err)
			// Seed rows so statement execution costs real work (every
			// insert copies the table): what a retry re-executes is what
			// the contended row measures.
			for base := 0; base < seedRows; base += 250 {
				var ins strings.Builder
				fmt.Fprintf(&ins, "insert into %s values", tbl)
				for v := base; v < base+250; v++ {
					if v > base {
						ins.WriteString(",")
					}
					fmt.Fprintf(&ins, " (%d, %d)", 10000000+v, v)
				}
				ins.WriteString(";")
				_, err := seed.ExecString(ins.String())
				must(err)
			}
		}
		baseVersion := cat.Snapshot().Version
		round := 0
		d := bench(op, nil, func() {
			round++
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w, round int) {
					defer wg.Done()
					sess := isql.FromCatalog(cat)
					sess.RetryConflicts = 1 << 20
					for i := 0; i < commitsPerWriter; i++ {
						if err := sess.Begin(); err != nil {
							panic(err)
						}
						for j := 0; j < stmtsPerTxn; j++ {
							v := ((round*10+w)*100+i)*10 + j
							if _, err := sess.ExecString(fmt.Sprintf("insert into %s values (%d, %d);", tables[w], v, v*3)); err != nil {
								panic(err)
							}
						}
						if err := sess.Commit(); err != nil {
							panic(err)
						}
					}
				}(w, round)
			}
			wg.Wait()
		})
		commits = cat.Snapshot().Version - baseVersion
		var syncs uint64
		for _, st := range cat.ShardStats() {
			conflicts += st.Conflicts
			syncs += st.Syncs
		}
		perRound := writers * commitsPerWriter
		fmt.Printf("%-8d %-8d %-9d %-10d %-8d %-14s %-14s\n",
			shards, writers, commits, conflicts, syncs, d, d/time.Duration(perRound))
		if want := uint64(round * perRound); commits != want {
			must(fmt.Errorf("%s: %d commits published, want %d", op, commits, want))
		}
		for _, w := range wals {
			must(w.Close())
		}
		os.RemoveAll(dir)
		return commits, conflicts
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, writers := range []int{1, 8} {
			cat := store.NewSharded(nil, shards)
			_, conflicts := sweep(fmt.Sprintf("SHARD/txn-commit/shards=%d,writers=%d", shards, writers),
				shards, shardSpreadNames(cat, writers))
			// Intra-run floor: writers on disjoint tables never conflict,
			// one shard included — a count, immune to machine speed.
			acceptZero(fmt.Sprintf("conflicts of %d writers on disjoint tables at %d shards", writers, shards), conflicts)
		}
	}
	contended := make([]string, 8)
	for w := range contended {
		contended[w] = "B0"
	}
	commits, conflicts := sweep("SHARD/txn-commit-contended/writers=8", 1, contended)
	fmt.Printf("8 writers on one table: %d commits landed, %d conflicts retried\n", commits, conflicts)
	runtime.GOMAXPROCS(prevProcs)

	// Routed single-statement latency: one writer, auto-commit inserts,
	// in-memory catalogs so the comparison isolates the routing and
	// merged-publish overhead of the sharded write path (the durable
	// sweep above already covers the per-shard WAL, whose append+fsync
	// per commit is the same work on both sides). The two paths are
	// sampled in alternation so drift hits both equally, every round
	// fills a fresh table (each insert copies its table, so on one
	// growing table the rounds would not be alike), and the floor
	// compares median rounds: a round is a few milliseconds, and the
	// best of a few such rounds per side swings ±15% run to run.
	const insertsPerRound = 256
	inserts := func(shards int) func(int) time.Duration {
		sess := isql.FromCatalog(store.NewSharded(nil, shards))
		n := 0
		return func(rep int) time.Duration {
			_, err := sess.ExecString(fmt.Sprintf("create table T%d (A, B);", rep))
			must(err)
			start := time.Now()
			for j := 0; j < insertsPerRound; j++ {
				n++
				_, err := sess.ExecString(fmt.Sprintf("insert into T%d values (%d, %d);", rep, n, n*3))
				must(err)
			}
			return time.Since(start)
		}
	}
	median := alternateMedians(15, inserts(1), inserts(4))
	benchRecord("SHARD/insert-routed/shards=1", median[0])
	benchRecord("SHARD/insert-routed/shards=4", median[1])
	single := float64(median[0]) / float64(median[1])
	fmt.Printf("\nrouted single-writer insert, 4 shards vs 1 shard: %.2fx (blocking floor 0.9x, i.e. within ~10%%)\n", single)
	acceptRatio("routed single-shard insert latency, 4 shards vs 1 shard", single, 0.9)

	// Scattered reads over a sharded snapshot (in-memory): 8 choice
	// tables spread round-robin over the shards, read one select per
	// table plus one cross-shard merge join per pass.
	var scanNs [2]time.Duration
	for i, shards := range []int{1, 4} {
		cat := store.NewSharded(nil, shards)
		sess := isql.FromCatalog(cat)
		tables := shardSpreadNames(cat, 8)
		choices := make([]string, len(tables))
		for ti, tbl := range tables {
			mustPost2 := func(sql string) {
				_, err := sess.ExecString(sql)
				must(err)
			}
			mustPost2(fmt.Sprintf("create table %s (A);", tbl))
			for v := 0; v < 6; v++ {
				mustPost2(fmt.Sprintf("insert into %s values (%d);", tbl, v+10*ti))
			}
			choices[ti] = "P" + tbl
			mustPost2(fmt.Sprintf("create table %s as select * from %s choice of A;", choices[ti], tbl))
		}
		crossJoin := fmt.Sprintf("select certain X.A from %s X, %s Y where X.A = Y.A;", choices[0], choices[1])
		scanNs[i] = bench(fmt.Sprintf("SHARD/scatter-select/shards=%d", shards), nil, func() {
			for _, p := range choices {
				if _, err := sess.ExecString(fmt.Sprintf("select possible A from %s;", p)); err != nil {
					panic(err)
				}
			}
			if _, err := sess.ExecString(crossJoin); err != nil {
				panic(err)
			}
		})
	}
	scatter := float64(scanNs[0]) / float64(scanNs[1])
	fmt.Printf("scattered selects + cross-shard join, 4 shards vs 1 shard: %.2fx (blocking floor 0.7x)\n", scatter)
	acceptRatio("scattered read latency, 4 shards vs 1 shard", scatter, 0.7)
}

// openShards opens the WAL-backed catalog in dir (checkpoint.wsd +
// wal-<i>.log) sharded n ways, recovering whatever the directory holds,
// with a buffer pool of poolPages frames per shard (0 = default).
func openShards(dir string, shards, poolPages int) (*store.Catalog, []*store.WAL) {
	cat, wals, err := store.Open(filepath.Join(dir, "checkpoint.wsd"), dir, shards, poolPages, nil)
	must(err)
	return cat, wals
}

// openStore is openShards at one shard.
func openStore(dir string, poolPages int) (*store.Catalog, *store.WAL) {
	cat, wals := openShards(dir, 1, poolPages)
	return cat, wals[0]
}

// shardSpreadNames picks n distinct table names whose home shards cycle
// round-robin over the catalog's shards, so each writer (or scattered
// reader) of the sweep lands where intended: writers % shards per
// shard, exactly.
func shardSpreadNames(cat *store.Catalog, n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		name := fmt.Sprintf("B%d", i)
		if cat.ShardOf(name) == len(out)%cat.Shards() {
			out = append(out, name)
		}
	}
	return out
}

// mustPost posts a body and requires HTTP 200.
func mustPost(url, body string) {
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	must(err)
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	must(err)
	if resp.StatusCode != http.StatusOK {
		must(fmt.Errorf("POST %s: status %d\n%s", url, resp.StatusCode, out))
	}
}

// expPlan is the cost-based-planning ablation (PR 9 tentpole): the two
// planner decisions that read decomposition statistics, each measured
// against its pre-stats arm.
//
//  1. cold compile — the Figure 8 analytical queries through the served
//     prelower search (PushSelections + bounded best-first rewrite)
//     with the branch-and-bound bound on versus off. The bound must cut
//     cold-compile latency by ≥1.3x while still picking a plan at least
//     as cheap as the exhaustive search's.
//  2. ordered product — a six-way product chain written largest-first.
//     Stats-ordered execution rebuilds it smallest-first so every
//     prefix intermediate stays tiny (the written order re-materializes
//     the full cross product once per trailing single-tuple piece), and
//     the restoring projection must keep the answer identical.
func expPlan() {
	// (1) Cold-compile latency: pruned vs exhaustive rewrite search over
	// the served prelower rule set, seeded with plausible statistics.
	env := wsa.NewEnv(
		[]string{"HFlights", "Hotels"},
		[]relation.Schema{relation.NewSchema("Dep", "Arr"), relation.NewSchema("Name", "City", "Price")})
	st := rewrite.Stats{
		"HFlights": {Certain: 500, Alternative: 140, Components: 40},
		"Hotels":   {Certain: 20},
	}
	build := func(close wsa.CloseKind) wsa.Expr {
		inner := wsa.NewPossGroup([]string{"Dep"}, nil,
			&wsa.Choice{Attrs: []string{"Dep", "City"},
				From: wsa.NewProduct(&wsa.Rel{Name: "HFlights"}, &wsa.Rel{Name: "Hotels"})})
		return &wsa.Close{Kind: close,
			From: &wsa.Project{Columns: []string{"City"},
				From: &wsa.Select{Pred: ra.Eq("Arr", "City"), From: inner}}}
	}
	queries := []wsa.Expr{build(wsa.CloseCert), build(wsa.ClosePoss)}
	compile := func(op string, noPrune bool) (time.Duration, rewrite.SearchStats, float64) {
		var total rewrite.SearchStats
		var cost float64
		d := bench(op, nil, func() {
			total, cost = rewrite.SearchStats{}, 0
			for _, q := range queries {
				var ss rewrite.SearchStats
				best, _ := rewrite.OptimizeOpts(rewrite.PushSelections(q, env), env, false,
					&rewrite.Options{MaxExpansions: 200, MaxSize: 60, Stats: st,
						NoPrune: noPrune, Search: &ss})
				total.Expanded += ss.Expanded
				total.Pruned += ss.Pruned
				cost += rewrite.CostOn(best, st)
			}
		})
		return d, total, cost
	}
	fmt.Printf("%-18s %-14s %-10s %-10s %-12s\n", "search", "compile", "expanded", "pruned", "best cost")
	dPruned, sPruned, cPruned := compile("PLAN/cold-compile/pruned", false)
	dExh, sExh, cExh := compile("PLAN/cold-compile/exhaustive", true)
	fmt.Printf("%-18s %-14s %-10d %-10d %-12.0f\n", "branch-and-bound", dPruned, sPruned.Expanded, sPruned.Pruned, cPruned)
	fmt.Printf("%-18s %-14s %-10d %-10d %-12.0f\n", "exhaustive", dExh, sExh.Expanded, sExh.Pruned, cExh)
	if cPruned > cExh {
		must(fmt.Errorf("PLAN pruning changed the chosen plans: total cost %.1f pruned vs %.1f exhaustive", cPruned, cExh))
	}
	prRatio := float64(dExh) / float64(dPruned)
	fmt.Printf("cold-compile speedup from pruning: %.2fx (floor 1.3x)\n\n", prRatio)
	acceptRatio("cold-compile pruned vs exhaustive rewrite search", prRatio, 1.3)

	// (2) Stats-ordered product chains: Big (wide) × Mid × four
	// single-tuple pieces, written largest-first. The written order pays
	// |Big×Mid| again for every trailing piece; smallest-first pays the
	// final product once.
	names := []string{"Big", "Mid", "T1", "T2", "T3", "T4"}
	schemas := []relation.Schema{
		relation.NewSchema("A1", "A2", "A3", "A4", "A5", "A6"),
		relation.NewSchema("B1", "B2"),
		relation.NewSchema("C1"), relation.NewSchema("C2"),
		relation.NewSchema("C3"), relation.NewSchema("C4"),
	}
	pdb := wsd.NewDecompDB(names, schemas)
	for i := 0; i < 300**scale; i++ {
		pdb.Certain[0].Insert(relation.Tuple{
			value.Int(int64(i)), value.Int(int64(i % 7)), value.Int(int64(i % 11)),
			value.Int(int64(i % 13)), value.Int(int64(i % 17)), value.Int(int64(i % 19))})
	}
	for i := 0; i < 30; i++ {
		pdb.Certain[1].Insert(relation.Tuple{value.Int(int64(i)), value.Int(int64(i % 5))})
	}
	for t := 2; t < len(names); t++ {
		pdb.Certain[t].Insert(relation.Tuple{value.Int(int64(t))})
	}
	chain := wsa.Expr(&wsa.Rel{Name: names[0]})
	for _, n := range names[1:] {
		chain = wsa.NewProduct(chain, &wsa.Rel{Name: n})
	}
	// Answers must be identical tuple for tuple: the reorder's restoring
	// projection undoes the column shuffle, and Tuples() is canonical.
	ordOut, ordPlan, err := wsdexec.EvalOpts(chain, pdb, nil)
	must(err)
	naiveOut, naivePlan, err := wsdexec.EvalOpts(chain, pdb, &wsdexec.Options{NoReorder: true})
	must(err)
	if !ordPlan.Reordered || naivePlan.Reordered {
		must(fmt.Errorf("PLAN ordered-product: reordered flags ordered=%v naive=%v, want true/false",
			ordPlan.Reordered, naivePlan.Reordered))
	}
	a, b := ordOut.Certain[0].Tuples(), naiveOut.Certain[0].Tuples()
	if len(a) != len(b) {
		must(fmt.Errorf("PLAN ordered-product: %d tuples ordered vs %d naive", len(a), len(b)))
	}
	for i := range a {
		if a[i].Less(b[i]) || b[i].Less(a[i]) {
			must(fmt.Errorf("PLAN ordered-product: answers diverge at tuple %d: %v vs %v", i, a[i], b[i]))
		}
	}
	dOrdered := bench("PLAN/ordered-product/stats-ordered", nil, func() {
		_, plan, err := wsdexec.EvalOpts(chain, pdb, nil)
		must(err)
		if !plan.Reordered {
			must(fmt.Errorf("PLAN ordered-product run was not reordered: %v", plan))
		}
	})
	dWritten := bench("PLAN/ordered-product/written-order", nil, func() {
		_, _, err := wsdexec.EvalOpts(chain, pdb, &wsdexec.Options{NoReorder: true})
		must(err)
	})
	opRatio := float64(dWritten) / float64(dOrdered)
	fmt.Printf("%-18s %-14s\n%-18s %-14s\n", "stats-ordered", dOrdered, "written order", dWritten)
	fmt.Printf("ordered product chain speedup: %.2fx (floor 1.2x)\n", opRatio)
	acceptRatio("stats-ordered product chain vs written order", opRatio, 1.2)
}

func expThreeWays() {
	fmt.Printf("%-44s %-10s %-14s\n", "formulation", "answer", "time")
	queries := []struct {
		name string
		sql  string
	}{
		{"I-SQL: choice of + certain",
			"select certain Arr from HFlights choice of Dep;"},
		{"SQL + division operator",
			"select Arr from (select Arr, Dep from HFlights) as F1 divide by (select Dep from HFlights) as F2 on F1.Dep = F2.Dep;"},
		{"plain SQL: double not-exists",
			"select F1.Arr from HFlights F1 where not exists (select * from HFlights F2 where not exists (select * from HFlights F3 where F3.Dep = F2.Dep and F3.Arr = F1.Arr));"},
	}
	// The double-not-exists formulation is cubic with correlated
	// subqueries, so the workload is kept small; even here I-SQL's
	// choice-of + certain wins by orders of magnitude.
	flights := datagen.Flights(8**scale, 12, 0.4, 9)
	for qi, q := range queries {
		var rows int
		d := bench(fmt.Sprintf("SQL3/form%d", qi), nil, func() {
			s := isql.FromDB([]string{"HFlights"}, []*relation.Relation{flights})
			res, err := s.ExecString(q.sql)
			must(err)
			rows = res.Answers[0].Len()
		})
		fmt.Printf("%-44s %-10d %-14s\n", q.name, rows, d)
	}
}

func expTranslations() {
	fmt.Printf("%-10s %-14s %-14s %-14s %-12s %-12s\n",
		"flights", "naive ws", "general RA", "optimized RA", "gen nodes", "opt nodes")
	q := wsa.NewCert(&wsa.Project{Columns: []string{"Arr"},
		From: &wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "HFlights"}}})
	for _, nDep := range []int{10, 40, 160, 640} {
		nDep := nDep * *scale
		flights := datagen.Flights(nDep, 20, 0.3, 5)
		db := ra.DB{"HFlights": flights}
		ws := worldset.FromDB([]string{"HFlights"}, []*relation.Relation{flights})

		dNaive := bench(fmt.Sprintf("E56/naive/deps=%d", nDep), nil, func() { _, err := wsa.Eval(q, ws); must(err) })
		gen, err := translate.ToRelational(q, []string{"HFlights"}, db)
		must(err)
		dGen := bench(fmt.Sprintf("E56/generalRA/deps=%d", nDep), nil, func() { _, err := gen.Eval(db); must(err) })
		opt, err := translate.ToRelationalOptimized(q, []string{"HFlights"}, db)
		must(err)
		dOpt := bench(fmt.Sprintf("E56/optimizedRA/deps=%d", nDep), nil, func() { _, err := opt.Eval(db); must(err) })
		fmt.Printf("%-10d %-14s %-14s %-14s %-12d %-12d\n",
			flights.Len(), dNaive, dGen, dOpt, ra.Size(gen), ra.Size(opt))
	}
}

func expRewriting() {
	build := func(close wsa.CloseKind) wsa.Expr {
		inner := wsa.NewPossGroup([]string{"Dep"}, nil,
			&wsa.Choice{Attrs: []string{"Dep", "City"},
				From: wsa.NewProduct(&wsa.Rel{Name: "HFlights"}, &wsa.Rel{Name: "Hotels"})})
		return &wsa.Close{Kind: close,
			From: &wsa.Project{Columns: []string{"City"},
				From: &wsa.Select{Pred: ra.Eq("Arr", "City"), From: inner}}}
	}
	env := wsa.NewEnv(
		[]string{"HFlights", "Hotels"},
		[]relation.Schema{relation.NewSchema("Dep", "Arr"), relation.NewSchema("Name", "City", "Price")})

	// Estimated cost is reported as the before/after ratio, not two
	// absolute columns: a ratio stays meaningful across estimator
	// retunings, absolute cost units do not.
	fmt.Printf("%-8s %-10s %-12s %-14s %-14s %-8s\n",
		"query", "flights", "est ratio", "original", "optimized", "speedup")
	for _, tc := range []struct {
		name  string
		close wsa.CloseKind
	}{{"q1", wsa.CloseCert}, {"q2", wsa.ClosePoss}} {
		q := build(tc.close)
		opt, _ := rewrite.Optimize(q, env, true)
		for _, nDep := range []int{4, 8, 16} {
			nDep := nDep * *scale
			flights := datagen.Flights(nDep, 10, 0.4, 3)
			hotels := datagen.Hotels(10, 2, 4)
			ws := worldset.FromDB([]string{"HFlights", "Hotels"},
				[]*relation.Relation{flights, hotels})
			dOrig := bench(fmt.Sprintf("F8F9/%s-original/deps=%d", tc.name, nDep), nil,
				func() { _, err := wsa.Eval(q, ws); must(err) })
			dOpt := bench(fmt.Sprintf("F8F9/%s-rewritten/deps=%d", tc.name, nDep), nil,
				func() { _, err := wsa.Eval(opt, ws); must(err) })
			fmt.Printf("%-8s %-10d %-12s %-14s %-14s %.1fx\n",
				tc.name, flights.Len(), fmt.Sprintf("%.1fx", rewrite.Cost(q)/rewrite.Cost(opt)),
				dOrig, dOpt, float64(dOrig)/float64(dOpt))
		}
	}
}

// expPhysical compares, on a group-worlds-by query where the Figure 6
// construction pairs worlds quadratically, three execution paths: the
// naive Figure 3 evaluator, the generated relational plan over the
// inlined representation, and the factorized engine — the dedicated
// physical operators the paper's conclusion proposes, run natively on
// the decomposition of the same database.
func expPhysical() {
	fmt.Printf("%-10s %-10s %-14s %-16s %-16s\n",
		"flights", "worlds", "naive ws", "Fig. 6 RA plan", "wsdexec")
	q := wsa.NewPossGroup([]string{"Arr"}, []string{"Dep", "Arr"},
		&wsa.Choice{Attrs: []string{"Dep"}, From: &wsa.Rel{Name: "Flights"}})
	for _, nDep := range []int{5, 20, 80} {
		nDep := nDep * *scale
		flights := datagen.Flights(nDep, 15, 0.3, 7)
		ws := worldset.FromDB([]string{"Flights"}, []*relation.Relation{flights})
		var worlds int
		var naive *worldset.WorldSet
		dNaive := bench(fmt.Sprintf("PHYS/naive/deps=%d", nDep), &worlds, func() {
			out, err := wsa.Eval(q, ws)
			must(err)
			naive, worlds = out, out.Len()
		})
		dRA := bench(fmt.Sprintf("PHYS/figure6RA/deps=%d", nDep), &worlds, func() {
			_, err := translate.EvalWorldSet(q, ws)
			must(err)
		})
		db := wsd.FromComplete([]string{"Flights"}, []*relation.Relation{flights})
		var fact *wsd.DecompDB
		dWsdx := bench(fmt.Sprintf("PHYS/wsdexec/deps=%d", nDep), &worlds, func() {
			out, plan, err := wsdexec.Eval(q, db)
			must(err)
			if !plan.Native {
				must(fmt.Errorf("PHYS wsdexec plan not native: %v", plan))
			}
			fact = out
		})
		got, err := fact.Expand(0)
		must(err)
		if !got.EqualWorlds(naive) {
			must(fmt.Errorf("PHYS/wsdexec/deps=%d disagrees with the naive evaluator", nDep))
		}
		fmt.Printf("%-10d %-10d %-14s %-16s %-16s\n", flights.Len(), worlds, dNaive, dRA, dWsdx)
	}
}

func expEquivalenceTable() {
	rows := []struct{ eq, status string }{
		{"(1)–(6) commute poss/cert with σ, π, ∪, ∩, ×", "verified on arbitrary world-sets"},
		{"(7) π/χ commute, (8) χ/product commute", "verified on arbitrary world-sets"},
		{"(9),(10) σ/γ commute", "needs extra side condition Y ⊆ X (counterexample for printed form)"},
		{"(11) poss absorbs χ", "verified on arbitrary world-sets"},
		{"(12)–(14) γ to projection reductions", "verified on arbitrary world-sets"},
		{"(15),(16) poss/pγ and cert/cγ fusions", "verified on arbitrary world-sets"},
		{"(17) nested χ merge", "verified on arbitrary world-sets"},
		{"(18) nested γ collapse", "sound only for equal grouping attrs (X = G); counterexample otherwise"},
		{"(19) nested γ collapse (inner cγ)", "counterexampled; omitted from the optimizer"},
		{"(20) pγ absorbs wider χ", "sound on singleton inputs only; multi-world counterexample"},
		{"(21) cγ absorbs wider χ", "sound only for χ attrs = grouping attrs, singleton inputs"},
		{"(22),(23) idempotent closes", "verified on arbitrary world-sets"},
		{"(24) cert/difference", "verified on arbitrary world-sets"},
		{"(25),(26) Prop. 6.3 poss/cert duality", "verified on arbitrary world-sets"},
	}
	fmt.Printf("%-50s %s\n", "equivalence", "status (see internal/rewrite/equivalences_test.go)")
	for _, r := range rows {
		fmt.Printf("%-50s %s\n", r.eq, r.status)
	}
}

func expTriQL() {
	u1 := &uldb.ULDB{Relations: []*uldb.XRelation{{
		Name: "R", Schema: relation.NewSchema("A"),
		Tuples: []*uldb.XTuple{{
			ID:           "t1",
			Alternatives: []relation.Tuple{uldb.IntTuple(1), uldb.IntTuple(2)},
			Maybe:        true,
		}},
	}}}
	u2 := &uldb.ULDB{
		External: map[string]int{"s1": 2},
		Relations: []*uldb.XRelation{{
			Name: "R", Schema: relation.NewSchema("A"),
			Tuples: []*uldb.XTuple{
				{ID: "t1", Alternatives: []relation.Tuple{uldb.IntTuple(1)}, Maybe: true,
					Lineage: [][]uldb.AltRef{{{Tuple: "s1", Alt: 1}}}},
				{ID: "t2", Alternatives: []relation.Tuple{uldb.IntTuple(2)}, Maybe: true,
					Lineage: [][]uldb.AltRef{{{Tuple: "s1", Alt: 2}}}},
			},
		}},
	}
	fmt.Print("U1:\n", u1.Relations[0], "U2:\n", u2.Relations[0])
	w1, err := u1.Worlds()
	must(err)
	w2, err := u2.Worlds()
	must(err)
	fmt.Printf("rep(U1) = rep(U2): %v (both are the 3 worlds {1}, {2}, {})\n",
		w1.Equal(w2))
	q1 := uldb.HorizontalSelect(u1.Relations[0])
	q2 := uldb.HorizontalSelect(u2.Relations[0])
	fmt.Printf("TriQL horizontal selection q: |q(U1)| = %d x-tuple(s), |q(U2)| = %d x-tuple(s)\n",
		len(q1.Tuples), len(q2.Tuples))
	fmt.Println("→ same input world-sets, different answers: TriQL is not generic (Remark 4.6)")
}

func expThreeColor() {
	graphs := []struct {
		name     string
		vertices int
		edges    [][2]int
		want     bool
	}{
		{"triangle", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, true},
		{"K4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, false},
		{"C5", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, true},
	}
	fmt.Printf("%-10s %-10s %-10s %-12s %-14s\n", "graph", "vertices", "worlds", "3-colorable", "time")
	for _, g := range graphs {
		vert := relation.New(relation.NewSchema("V"))
		for i := 0; i < g.vertices; i++ {
			vert.InsertValues(strVal(fmt.Sprintf("v%d", i)))
		}
		edge := relation.New(relation.NewSchema("U", "W"))
		for _, e := range g.edges {
			edge.InsertValues(strVal(fmt.Sprintf("v%d", e[0])), strVal(fmt.Sprintf("v%d", e[1])))
		}
		palette := relation.New(relation.NewSchema("Col"))
		for _, c := range []string{"r", "g", "b"} {
			palette.InsertValues(strVal(c))
		}
		var worlds int
		var colorable bool
		d := timed(func() {
			s := isql.FromDB([]string{"Vert", "Edge", "Palette"},
				[]*relation.Relation{vert, edge, palette})
			_, err := s.ExecString("create table Coloring as select V, Col from Vert, Palette repair by key V;")
			must(err)
			worlds = sessionWorlds(s)
			res, err := s.ExecString(`select C1.V from Edge, Coloring C1, Coloring C2
				where Edge.U = C1.V and Edge.W = C2.V and C1.Col = C2.Col;`)
			must(err)
			colorable = false
			for _, a := range res.Answers {
				if a.Empty() {
					colorable = true
				}
			}
		})
		status := fmt.Sprintf("%v", colorable)
		if colorable != g.want {
			status += " (UNEXPECTED)"
		}
		fmt.Printf("%-10s %-10d %-10d %-12s %-14s\n", g.name, g.vertices, worlds, status, d)
	}
}

func strVal(s string) value.Value { return value.Str(s) }
