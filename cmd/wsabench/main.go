// Command wsabench is the timed regression gate for the engine's hot
// paths. It times the ops of six families — WSDX (an indexed point
// select), TXN (WAL commit, group commit, prepared and parameterized
// execution, recovery), AGG (the bounded aggregate and the region
// enumeration of an engine override), SHARD (routed inserts, scattered reads), PLAN (the rewrite
// search, product chains) and CKPT (incremental and no-op checkpoints,
// recovery by delta) — and diffs each against the committed
// BENCH_results.json baseline.
//
// Usage:
//
//	wsabench [-exp all|WSDX|TXN|AGG|SHARD|PLAN|CKPT[,...]] [-regress 3] [-prev BENCH_results.json] [-json '']
//
// wsabench exits nonzero when an op is slower than -regress times its
// baseline, or when one of the two intra-run latency floors fails: a
// routed insert on a 4-shard catalog within ~10% of one shard's, and
// scattered reads at 4 shards at least 0.7x as fast as at one. The
// other cost shapes these families stand for — a point select touches
// what it selects, a prepared plan skips compilation, bounded work
// costs its region, disjoint writers never conflict, group commit
// batches fsyncs, checkpoints write what changed, pruning and ordering
// save work — are counts, asserted by go test beside the code they
// measure. After an intended perf change, re-record the baseline with
// -json BENCH_results.json.
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
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/isql"
	"worldsetdb/internal/isqld"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

var (
	jsonPath = flag.String("json", "",
		"write the measured rows as JSON to this file ('' disables); BENCH_results.json re-records the baseline")
	prevPath = flag.String("prev", "BENCH_results.json",
		"baseline JSON to diff the fresh measurements against ('' disables the diff)")
	regress = flag.Float64("regress", 3.0,
		"fail on ops whose ns/op exceeds this multiple of the baseline")
)

// benchRow is one measured operation in the JSON report.
type benchRow struct {
	Op          string `json:"op"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	Worlds      int    `json:"worlds"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

var benchRows []benchRow

// acceptanceFailures collects violated intra-run latency floors; any
// entry makes the run exit nonzero.
var acceptanceFailures []string

// acceptRatio asserts an intra-run speedup floor.
func acceptRatio(name string, got, floor float64) {
	if got < floor {
		acceptanceFailures = append(acceptanceFailures,
			fmt.Sprintf("%s: %.2fx, floor %.1fx", name, got, floor))
	}
}

// bench times f (repeated until 50ms or 5 runs, keeping the minimum) and
// records a row for the report.
func bench(op string, f func()) time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	best, total, runs := time.Duration(0), time.Duration(0), 0
	for i := 0; i < 5; i++ {
		start := time.Now()
		f()
		d := time.Since(start)
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
	benchRows = append(benchRows, benchRow{
		Op:          op,
		NsPerOp:     best.Nanoseconds(),
		AllocsPerOp: (ms.Mallocs - m0) / uint64(runs),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	})
	return best
}

// benchRecord records an externally timed row for the report.
func benchRecord(op string, d time.Duration) {
	benchRows = append(benchRows, benchRow{Op: op, NsPerOp: d.Nanoseconds(), GOMAXPROCS: runtime.GOMAXPROCS(0)})
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

// loadBaseline reads a previous BENCH_results.json; a missing baseline
// disables the diff.
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
	must(json.Unmarshal(data, &rows))
	out := make(map[string]benchRow, len(rows))
	for _, r := range rows {
		out[r.Op] = r
	}
	return out
}

// diffBaseline prints per-op ns/op ratios against the baseline, sorted
// worst first, and returns the ops slower than factor× their baseline.
func diffBaseline(baseline map[string]benchRow, factor float64) []string {
	type delta struct {
		op        string
		prev, cur int64
		ratio     float64
	}
	var ds []delta
	for _, r := range benchRows {
		if p, ok := baseline[r.Op]; ok && p.NsPerOp > 0 {
			ds = append(ds, delta{r.Op, p.NsPerOp, r.NsPerOp, float64(r.NsPerOp) / float64(p.NsPerOp)})
		}
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
		if d.ratio > factor {
			regressed = append(regressed, fmt.Sprintf("%s %.2fx (%d -> %d ns/op)", d.op, d.ratio, d.prev, d.cur))
		}
	}
	return regressed
}

func main() {
	exp := flag.String("exp", "all", "family or comma-separated families (WSDX, TXN, AGG, SHARD, PLAN, CKPT), or 'all'")
	flag.Parse()

	families := []struct {
		id   string
		name string
		run  func()
	}{
		{"WSDX", "indexed point select over the stored 2^40-world repair", expWSDX},
		{"TXN", "WAL commit, group commit, prepared and parameterized execution, recovery replay", expTxn},
		{"AGG", "bounded aggregate and engine-override region enumeration, 2^10 → 2^42 worlds", expAgg},
		{"SHARD", "routed inserts and scattered reads, 1 vs 4 shards", expShard},
		{"PLAN", "pruned vs exhaustive rewrite search, ordered vs written product chains", expPlan},
		{"CKPT", "incremental and no-op checkpoints, recovery by delta", expCkpt},
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
	for _, f := range families {
		if !wanted(f.id) {
			continue
		}
		ran = true
		fmt.Printf("==================== %s: %s ====================\n", f.id, f.name)
		f.run()
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown family %q\n", *exp)
		os.Exit(2)
	}
	// Read the baseline before -json possibly overwrites it.
	baseline := loadBaseline(*prevPath)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(benchRows, "", "  ")
		must(err)
		must(os.WriteFile(*jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("wrote %d measured rows to %s\n", len(benchRows), *jsonPath)
	}
	failed := false
	for _, r := range diffBaseline(baseline, *regress) {
		fmt.Fprintf(os.Stderr, "FAIL: regressed beyond %.1fx of the baseline: %s\n", *regress, r)
		failed = true
	}
	for _, f := range acceptanceFailures {
		fmt.Fprintf(os.Stderr, "FAIL: latency floor violated: %s\n", f)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// expWSDX times a point lookup by key over the stored census repair
// (2^40 worlds), prelowered once like a prepared plan: the select probes
// the certain part's cached index.
func expWSDX() {
	db := datagen.CensusRepairDecomp(1000, 40, 3)
	q := rewrite.Prelower(wsa.NewPoss(&wsa.Select{
		Pred: ra.EqConst("SSN", value.Int(100517)), From: &wsa.Rel{Name: "Clean"}}), wsa.NewEnv(db.Names, db.Schemas))
	d := bench("WSDX/point-select/dups=40", func() {
		_, plan, err := wsdexec.EvalOpts(q, db, &wsdexec.Options{NoRewrite: true})
		must(err)
		if !plan.Native {
			must(fmt.Errorf("WSDX point-select plan not native: %v", plan))
		}
	})
	fmt.Printf("point select: %s\n", d)
}

// expTxn times the transactional write path: (1) BEGIN → k inserts →
// COMMIT on a WAL-backed catalog (one fsynced append per commit);
// (2) parameterized EXECUTE through plan-level binding versus the
// rebind-and-recompile path it replaced; (3) WAL group commit of
// concurrent auto-commit writers versus a lone writer; (4) the isqld wire
// protocol, parse-per-request /exec versus the plan-cache /execute;
// (5) crash-recovery replay of a statement log.
func expTxn() {
	fmt.Printf("%-12s %-14s %-14s\n", "stmts/txn", "commit (wal)", "per stmt")
	for _, k := range []int{1, 8, 64} {
		wal := txnCommitLatency(fmt.Sprintf("TXN/commit-wal/stmts=%d", k), k)
		fmt.Printf("%-12d %-14s %-14s\n", k, wal, wal/time.Duration(k))
	}

	txnParamBinding()
	txnGroupCommit()

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
	mustPost(srv.URL+"/prepare", "prepare q as "+q.String())
	const requests = 40
	dExec := bench("TXN/exec-unprepared", func() {
		for i := 0; i < requests; i++ {
			mustPost(srv.URL+"/exec", q.String())
		}
	})
	dPrep := bench("TXN/execute-prepared", func() {
		for i := 0; i < requests; i++ {
			mustPost(srv.URL+"/execute", "q")
		}
	})
	fmt.Printf("\nwire protocol, %d requests of one analytical query: /exec %s, /execute %s\n", requests, dExec, dPrep)

	// Crash-recovery replay: reopen a store whose WAL tail holds N
	// single-statement commits past the last checkpoint.
	for _, records := range []int{50, 200} {
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
		d := bench(fmt.Sprintf("TXN/recovery/records=%d", records), func() {
			var w2 *store.WAL
			recovered, w2 = openStore(dir, 0)
			must(w2.Close())
		})
		if recovered.Snapshot().Version != cat.Snapshot().Version {
			must(fmt.Errorf("recovery ended at v%d, want v%d", recovered.Snapshot().Version, cat.Snapshot().Version))
		}
		fmt.Printf("recovery replay of %d logged commits: %s\n", records+1, d)
		os.RemoveAll(dir)
	}
}

// txnParamBinding times EXECUTE q($1-bound) through plan-level binding
// (compile + prelower once, bind constants per call) against the same
// statement with the argument written in, an already-parsed tree whose
// execution re-runs analysis, compilation and the rewrite search on
// every call — on median rounds, alternating.
func txnParamBinding() {
	sess := isql.FromCatalog(store.FromComplete([]string{"Census"}, []*relation.Relation{datagen.PaperCensus()}))
	_, err := sess.ExecString("create table Clean as select * from Census repair by key SSN;")
	must(err)
	var q strings.Builder
	q.WriteString("select certain Name from Clean where POW = $1")
	for i := 0; i < 47; i++ {
		fmt.Fprintf(&q, " or POB = 'C%d'", i)
	}
	_, err = sess.ExecString("prepare qp as " + q.String() + ";")
	must(err)
	call, err := isql.Parse("execute qp('Office');")
	must(err)
	rebound, err := isql.Parse(strings.Replace(q.String(), "$1", "'Office'", 1) + ";")
	must(err)
	const requests = 40
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
	benchRecord("TXN/execute-param-bound", med[0])
	benchRecord("TXN/execute-param-recompile", med[1])
	fmt.Printf("\nparameterized EXECUTE, %d calls: bound %s, recompiled %s\n", requests, med[0], med[1])
}

// txnGroupCommit times W concurrent auto-commit writers (each insert is
// one logged commit) against a lone writer issuing as many commits, and
// records the fsyncs the 8 writers needed per two rounds of commits.
func txnGroupCommit() {
	const commitsPerWriter = 24
	fmt.Printf("\ngroup commit, %d logged single-insert commits per writer:\n", commitsPerWriter)
	fmt.Printf("%-10s %-10s %-8s %-14s\n", "writers", "commits", "fsyncs", "total")
	for _, writers := range []int{1, 8} {
		dir, err := os.MkdirTemp("", "wsabench_gc")
		must(err)
		cat, wal := openStore(dir, 0)
		_, err = isql.FromCatalog(cat).ExecString("create table T (A, B);")
		must(err)
		baseSyncs := wal.Syncs()
		baseVersion := cat.Snapshot().Version
		round := 0
		d := bench(fmt.Sprintf("TXN/group-commit/writers=%d", writers), func() {
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
		// bench repeats the closure as often as timing stability asks, so
		// the fsync count is normalized to two rounds of commits.
		commits := cat.Snapshot().Version - baseVersion
		syncs := wal.Syncs() - baseSyncs
		perRound := writers * commitsPerWriter
		fmt.Printf("%-10d %-10d %-8d %-14s\n", writers, commits, syncs, d)
		if writers > 1 && syncs > 0 {
			benchRows = append(benchRows, benchRow{
				Op:         fmt.Sprintf("TXN/group-commit-fsyncs/writers=%d", writers),
				NsPerOp:    int64(syncs) * int64(2*perRound) / int64(commits),
				Worlds:     2 * perRound,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
			})
		}
		must(wal.Close())
		os.RemoveAll(dir)
	}
}

// txnCommitLatency times one BEGIN → k inserts → COMMIT batch on a
// WAL-backed catalog.
func txnCommitLatency(op string, k int) time.Duration {
	dir, err := os.MkdirTemp("", "wsabench_txn")
	must(err)
	defer os.RemoveAll(dir)
	cat, wal := openStore(dir, 0)
	defer wal.Close()
	sess := isql.FromCatalog(cat)
	_, err = sess.ExecString("create table T (A, B);")
	must(err)
	n := 0
	return bench(op, func() {
		must(sess.Begin())
		for i := 0; i < k; i++ {
			n++
			_, err := sess.ExecString(fmt.Sprintf("insert into T values (%d, %d);", n, n*3))
			must(err)
		}
		must(sess.Commit())
	})
}

// expAgg times (1) an aggregate over a one-component choice region on a
// catalog holding 2^10 → 2^40 repair worlds besides, and (2) the region
// enumeration of the "reference" engine override (store.Query) for
// R × S over two coupled 4-alternative components among d independent
// spectators: enumerate the 16 combinations, evaluate, re-factorize and
// splice the spectators back.
func expAgg() {
	fmt.Printf("%-10s %-16s %-14s\n", "dup SSNs", "worlds", "bounded agg")
	for _, dups := range []int{10, 20, 30, 40} {
		s := isql.FromDB([]string{"Census"}, []*relation.Relation{datagen.Census(1000, dups, 7)})
		_, err := s.ExecScript(`
			create table Clean as select * from Census repair by key SSN;
			create table Tiny (V);
			insert into Tiny values (1);
			insert into Tiny values (2);
			insert into Tiny values (3);
			create table Pick1 as select * from Tiny choice of V;
			create table Pick2 as select * from Tiny choice of V;`)
		must(err)
		dAgg := bench(fmt.Sprintf("AGG/bounded-agg/dups=%d", dups), func() {
			res, err := s.ExecString("select sum(V) as S from Pick1;")
			must(err)
			if len(res.Answers) != 3 {
				must(fmt.Errorf("AGG bounded aggregate: %d answers, want 3", len(res.Answers)))
			}
		})
		fmt.Printf("%-10d %-16s %-14s\n", dups, s.Worlds(), dAgg)
	}

	fmt.Printf("\n%-12s %-10s %-14s\n", "spectators", "worlds", "region")
	for _, d := range []int{8, 12, 38} {
		db, q := aggTornDB(4, d)
		snap := store.New(db).Snapshot()
		dRegion := bench(fmt.Sprintf("AGG/fallback/spect=%d", d), func() {
			_, plan, err := store.Query(snap, "reference", q, 1<<20)
			must(err)
			if plan.Native {
				must(fmt.Errorf("AGG reference override evaluated natively: %v", plan))
			}
		})
		fmt.Printf("%-12d %-10s %-14s\n", d, fmt.Sprintf("2^%d", 4+d), dRegion)
	}
}

// aggTornDB builds a decomposition whose only entanglement couples two
// k-alternative components (relations R and S) while d independent
// binary spectator components vary relation T: k²·2^d worlds.
func aggTornDB(k, d int) (*wsd.DecompDB, wsa.Expr) {
	schemas := []relation.Schema{relation.NewSchema("A"), relation.NewSchema("B"), relation.NewSchema("C")}
	db := wsd.NewDecompDB([]string{"R", "S", "T"}, schemas)
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

// expShard times the sharded catalog against one shard, in memory:
// (1) a lone writer's routed auto-commit inserts, which must stay within
// ~10% of one shard's; (2) selects over choice tables spread across the
// shards plus a cross-shard merge join, which must stay at least 0.7x as
// fast.
func expShard() {
	// The two sides are sampled in alternation so drift hits both alike,
	// every round fills a fresh table (each insert copies its table, so
	// on one growing table the rounds would not be alike), and the floor
	// compares median rounds.
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
	fmt.Printf("routed single-writer insert, 4 shards vs 1 shard: %.2fx (floor 0.9x, i.e. within ~10%%)\n", single)
	acceptRatio("routed single-shard insert latency, 4 shards vs 1 shard", single, 0.9)

	var scanNs [2]time.Duration
	for i, shards := range []int{1, 4} {
		cat := store.NewSharded(nil, shards)
		sess := isql.FromCatalog(cat)
		exec := func(sql string) {
			_, err := sess.ExecString(sql)
			must(err)
		}
		tables := shardSpreadNames(cat, 8)
		choices := make([]string, len(tables))
		for ti, tbl := range tables {
			exec(fmt.Sprintf("create table %s (A);", tbl))
			for v := 0; v < 6; v++ {
				exec(fmt.Sprintf("insert into %s values (%d);", tbl, v+10*ti))
			}
			choices[ti] = "P" + tbl
			exec(fmt.Sprintf("create table %s as select * from %s choice of A;", choices[ti], tbl))
		}
		crossJoin := fmt.Sprintf("select certain X.A from %s X, %s Y where X.A = Y.A;", choices[0], choices[1])
		scanNs[i] = bench(fmt.Sprintf("SHARD/scatter-select/shards=%d", shards), func() {
			for _, p := range choices {
				exec(fmt.Sprintf("select possible A from %s;", p))
			}
			exec(crossJoin)
		})
	}
	scatter := float64(scanNs[0]) / float64(scanNs[1])
	fmt.Printf("scattered selects + cross-shard join, 4 shards vs 1 shard: %.2fx (floor 0.7x)\n", scatter)
	acceptRatio("scattered read latency, 4 shards vs 1 shard", scatter, 0.7)
}

// openStore opens the one-shard WAL-backed catalog in dir
// (checkpoint.wsd + wal-0.log), recovering whatever the directory
// holds, with a buffer pool of poolPages frames (0 = default).
func openStore(dir string, poolPages int) (*store.Catalog, *store.WAL) {
	cat, wals, err := store.Open(filepath.Join(dir, "checkpoint.wsd"), dir, 1, poolPages, nil)
	must(err)
	return cat, wals[0]
}

// shardSpreadNames picks n distinct table names whose home shards cycle
// round-robin over the catalog's shards.
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

// expPlan times the two planner decisions that read decomposition
// statistics, each against its pre-stats arm: (1) the Figure 8 queries
// through the served prelower search with the branch-and-bound bound on
// and off; (2) a six-way product chain written largest-first, executed
// stats-ordered and in the written order.
func expPlan() {
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
	compile := func(op string, noPrune bool) time.Duration {
		return bench(op, func() {
			for _, q := range queries {
				rewrite.OptimizeOpts(rewrite.PushSelections(q, env), env, false,
					&rewrite.Options{MaxExpansions: 200, MaxSize: 60, Stats: st, NoPrune: noPrune})
			}
		})
	}
	dPruned := compile("PLAN/cold-compile/pruned", false)
	dExh := compile("PLAN/cold-compile/exhaustive", true)
	fmt.Printf("cold compile: branch-and-bound %s, exhaustive %s\n", dPruned, dExh)

	names := []string{"Big", "Mid", "T1", "T2", "T3", "T4"}
	schemas := []relation.Schema{
		relation.NewSchema("A1", "A2", "A3", "A4", "A5", "A6"),
		relation.NewSchema("B1", "B2"),
		relation.NewSchema("C1"), relation.NewSchema("C2"),
		relation.NewSchema("C3"), relation.NewSchema("C4"),
	}
	pdb := wsd.NewDecompDB(names, schemas)
	for i := 0; i < 300; i++ {
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
	dOrdered := bench("PLAN/ordered-product/stats-ordered", func() {
		_, plan, err := wsdexec.EvalOpts(chain, pdb, nil)
		must(err)
		if !plan.Reordered {
			must(fmt.Errorf("PLAN ordered-product run was not reordered: %v", plan))
		}
	})
	dWritten := bench("PLAN/ordered-product/written-order", func() {
		_, _, err := wsdexec.EvalOpts(chain, pdb, &wsdexec.Options{NoReorder: true})
		must(err)
	})
	fmt.Printf("product chain: stats-ordered %s, written order %s\n", dOrdered, dWritten)
}

// expCkpt times (1) an incremental checkpoint after dirtying one
// relation of a 16-relation catalog, and a no-op checkpoint; (2) the
// recovery of WAL page deltas whose statements would each re-run an
// analytic CTAS: replay patches the resulting relations back in, the
// analysis itself is never re-run.
func expCkpt() {
	const pool = 256
	dir, err := os.MkdirTemp("", "wsabench_ckpt")
	must(err)
	defer os.RemoveAll(dir)
	cat, wal := openStore(dir, pool)
	defer wal.Close()
	sess := isql.FromCatalog(cat)
	exec := func(s *isql.Session, sql string) {
		_, err := s.ExecString(sql)
		must(err)
	}
	for i := 0; i < 16; i++ {
		exec(sess, fmt.Sprintf("create table T%02d (A, B);", i))
		var ins strings.Builder
		fmt.Fprintf(&ins, "insert into T%02d values", i)
		for v := 0; v < 25; v++ {
			if v > 0 {
				ins.WriteString(",")
			}
			fmt.Fprintf(&ins, " (%d, %d)", i*1000+v, v*7)
		}
		exec(sess, ins.String()+";")
	}
	must(cat.Checkpoint())
	v := 0
	dIncr := bench("CKPT/checkpoint-incremental", func() {
		exec(sess, fmt.Sprintf("insert into T00 values (%d, %d);", 900000+v, v))
		v++
		must(cat.Checkpoint())
	})
	dNoop := bench("CKPT/checkpoint-noop", func() { must(cat.Checkpoint()) })
	fmt.Printf("checkpoint: incremental (1 dirty relation) %s, no-op %s\n", dIncr, dNoop)

	var seed strings.Builder
	seed.WriteString("insert into Lineitem values")
	sep := " "
	datagen.Lineitem(20, 3, 4, 42).Each(func(t relation.Tuple) {
		fmt.Fprintf(&seed, "%s('%s', %d, %d, %d)", sep, t[0].AsString(), t[1].AsInt(), t[2].AsInt(), t[3].AsInt())
		sep = ", "
	})
	const whatIf = `create table YearQuantity as
		select A.Year, sum(A.Price) as Revenue
		from (select * from Lineitem choice of Year) as A
		where Quantity not in (select * from Lineitem choice of Quantity)
		group by A.Year;`
	const records = 10
	rdir, err := os.MkdirTemp("", "wsabench_ckpt_rec")
	must(err)
	defer os.RemoveAll(rdir)
	c2, w2 := openStore(rdir, pool)
	s2 := isql.FromCatalog(c2)
	exec(s2, "create table Lineitem (Product, Quantity, Price, Year);")
	exec(s2, seed.String()+";")
	must(c2.Checkpoint()) // the WAL tail holds only the analyses
	for i := 0; i < records; i++ {
		if i > 0 {
			exec(s2, "drop table YearQuantity;")
		}
		exec(s2, whatIf)
	}
	must(w2.Close()) // crash: the analyses live only in the log
	dRec := bench(fmt.Sprintf("CKPT/recovery-delta/records=%d", records), func() {
		c3, w3 := openStore(rdir, pool)
		if got := c3.Snapshot().Version; got != c2.Snapshot().Version {
			must(fmt.Errorf("recovery ended at v%d, want v%d", got, c2.Snapshot().Version))
		}
		must(c3.Pager().Close())
		must(w3.Close())
	})
	fmt.Printf("recovery of %d analytic commits by delta: %s\n", records, dRec)
}
