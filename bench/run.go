package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"worldsetdb/internal/isql"
	"worldsetdb/internal/store"
)

// harness is what every run of one invocation shares.
type harness struct {
	jan     *janitor
	root    string // the checkout
	scratch string // build output and run directories, inside the checkout
	bin     string // the isqld binary built from root
	clients int
}

// phaseConfig describes one server lifetime: set-up, warm-up, a measured
// window and, on request, a crash and a recovery.
type phaseConfig struct {
	w       workload
	seed    int64
	window  time.Duration
	traced  bool // isqld -slow-query 1ns, counters scraped around the window
	setups  int  // times set-up is measured; the last server takes the load
	recover bool // SIGKILL after the window, restart, verify
}

// phaseResult is everything measured in one phase.
type phaseResult struct {
	setupS   []float64
	samples  []sample
	firstErr string // first failed request or check, "" when none
	lost     int    // acknowledged rows missing after recovery

	// Traced phases only.
	trace       *traceSummary
	prom        promSample // counter deltas over the window
	promEnd     promSample // gauges at the end of the window
	promRecover promSample // the recovered server's counters after its first read
	cpu         time.Duration
	rssPeakMB   float64
	walBytes    int64 // WAL segments at the end of the window
	diskBytes   int64 // everything in the WAL directory at the end
	userBytes   int64 // seed catalog plus the statements that inserted rows
	parseUs     float64
	recoveryS   float64
}

// warmup is how long clients run before the window opens: long enough
// to fill the plan cache, the buffer pool and the connection, and a
// fixed share of short test windows.
func warmup(window time.Duration) time.Duration {
	return min(3*time.Second, window/8)
}

func (h *harness) runPhase(c phaseConfig) (*phaseResult, error) {
	dir, err := h.jan.tempDir(h.scratch)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &phaseResult{}

	db := buildCatalog(c.seed, c.w.wide, c.w.hasAggs())
	seedFile := filepath.Join(dir, "seed.wsd")
	if err := store.SaveFile(seedFile, store.New(db).Snapshot()); err != nil {
		return nil, err
	}
	fixed := c.w.fixedRequests()
	want, probeWant, err := oracle(db, c.w, h.clients, fixed)
	if err != nil {
		return nil, err
	}

	cfg := serverConfig{bin: h.bin, seedFile: seedFile, shards: c.w.shards, poolPages: c.w.poolPages, traced: c.traced}
	var srv *server
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for i := 0; i < c.setups; i++ {
		if srv != nil {
			srv.kill()
		}
		cfg.walDir = filepath.Join(dir, fmt.Sprintf("wal%d", i))
		start := time.Now()
		if srv, err = startServer(h.jan, cfg); err != nil {
			return nil, err
		}
		if err := srv.waitHealthy(); err != nil {
			return nil, err
		}
		for _, r := range c.w.setupRequests(h.clients) {
			if status, body, err := post(srv.http, srv.url, r); err != nil || status != 200 {
				return nil, fmt.Errorf("set-up %s: status %d, %v: %s", r.endpoint, status, err, body)
			}
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
	}

	gens := make([]*generator, h.clients)
	for i := range gens {
		gens[i] = newGenerator(c.w, fixed, c.seed, i)
	}
	measureFrom := time.Now().Add(warmup(c.window))
	until := measureFrom.Add(c.window)
	done := make(chan []clientResult, 1)
	go func() { done <- runClients(srv.url, gens, want, measureFrom, until) }()
	var promBefore promSample
	var cpuBefore time.Duration
	if c.traced {
		time.Sleep(time.Until(measureFrom))
		srv.record(true)
		if promBefore, err = srv.scrape(); err == nil {
			cpuBefore, _, err = srv.procUsage()
		}
	}
	results := <-done
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		res.samples = append(res.samples, r.samples...)
		if res.firstErr == "" {
			res.firstErr = r.firstErr
		}
	}
	if c.traced {
		srv.record(false)
		if err := res.collectTraced(srv, cfg.walDir, promBefore, cpuBefore); err != nil {
			return nil, err
		}
		res.userBytes = userBytes(seedFile, gens)
		res.parseUs = parseProbe(c.w, fixed, c.seed)
	}

	if c.recover {
		crash := time.Now()
		srv.kill()
		cfg.traced = false
		if srv, err = startServer(h.jan, cfg); err != nil {
			return nil, err
		}
		if err := srv.waitHealthy(); err != nil {
			return nil, fmt.Errorf("after SIGKILL: %w", err)
		}
		if status, body, err := post(srv.http, srv.url, probe); err != nil || status != 200 || body != probeWant {
			res.firstErr = fmt.Sprintf("first read after recovery: status %d, %v", status, err)
		}
		res.recoveryS = time.Since(crash).Seconds()
		if c.traced {
			if res.promRecover, err = srv.scrape(); err != nil {
				return nil, err
			}
		}
		if res.lost, err = lostWrites(srv, results); err != nil {
			return nil, err
		}
		if res.lost > 0 && res.firstErr == "" {
			res.firstErr = fmt.Sprintf("%d acknowledged rows lost across SIGKILL", res.lost)
		}
	}
	return res, nil
}

// collectTraced takes the after-window readings of a traced server,
// which is idle by now: nothing it reports moves under the reader.
func (res *phaseResult) collectTraced(srv *server, walDir string, promBefore promSample, cpuBefore time.Duration) error {
	res.trace = summarize(srv.takeSpans())
	var err error
	if res.promEnd, err = srv.scrape(); err != nil {
		return err
	}
	res.prom = promDelta(promBefore, res.promEnd)
	cpu, rss, err := srv.procUsage()
	if err != nil {
		return err
	}
	res.cpu, res.rssPeakMB = cpu-cpuBefore, rss
	if res.walBytes, err = dirBytes(walDir, "wal"); err != nil {
		return err
	}
	res.diskBytes, err = dirBytes(walDir, "")
	return err
}

// userBytes is the user data the server holds at the end of a phase: the
// seed catalog file plus the text of every insert the clients generated.
func userBytes(seedFile string, gens []*generator) int64 {
	var n int64
	if info, err := os.Stat(seedFile); err == nil {
		n = info.Size()
	}
	for _, g := range gens {
		n += g.insertBytes
	}
	return n
}

// parseProbe times the parser alone over the start of client 0's stream,
// the request bodies the server parses, and returns µs per statement.
func parseProbe(w workload, fixed *fixedSet, seed int64) float64 {
	g := newGenerator(w, fixed, seed, 0)
	bodies := make([]request, 2000)
	for i := range bodies {
		bodies[i], _ = g.next()
	}
	stmts := 0
	start := time.Now()
	for _, r := range bodies {
		if r.endpoint == "execute" {
			if _, err := isql.ParseExecuteCall(r.body); err == nil {
				stmts++
			}
		} else if parsed, err := isql.ParseScript(r.body); err == nil {
			stmts += len(parsed)
		}
	}
	return ratio(float64(time.Since(start).Microseconds()), float64(stmts))
}

// latencies returns the sorted latencies of the samples of one class,
// or of all when class is "".
func latencies(samples []sample, class string) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if class == "" || s.class == class {
			out = append(out, s.latency)
		}
	}
	return sortDurations(out)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tally counts a phase's sampled requests and those that failed.
func tally(samples []sample) (attempted, failed, resends int) {
	for _, s := range samples {
		attempted++
		resends += s.resends
		if s.failed {
			failed++
		}
	}
	return
}

// runRecord is one workload run in one trace mode.
type runRecord struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     int                  `json:"trace"`
	Seconds   float64              `json:"seconds"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	FirstErr  string               `json:"first_error,omitempty"`
	Lost      int                  `json:"lost_writes"`
	Metrics   map[string]float64   `json:"metrics"`
	Spans     map[string]*spanStat `json:"spans,omitempty"`
}

func (r *runRecord) absorb(p *phaseResult) {
	a, f, _ := tally(p.samples)
	r.Attempted += a
	r.Failed += f + p.lost
	r.Lost += p.lost
	if r.FirstErr == "" {
		r.FirstErr = p.firstErr
	}
}

// runUntraced measures the end-to-end metrics of one workload.
func (h *harness) runUntraced(w workload, seed int64, window time.Duration) (*runRecord, error) {
	p, err := h.runPhase(phaseConfig{w: w, seed: seed, window: window, setups: 5, recover: true})
	if err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: w.name, Seed: seed, Seconds: window.Seconds(), Metrics: map[string]float64{}}
	rec.absorb(p)
	all := latencies(p.samples, "")
	attempted, failed, _ := tally(p.samples)
	rec.Metrics["ops_per_s"] = float64(attempted-failed) / window.Seconds()
	rec.Metrics["lat_p50_ms"] = ms(quantile(all, 0.50))
	rec.Metrics["lat_p95_ms"] = ms(quantile(all, 0.95))
	rec.Metrics["setup_s"] = median(p.setupS)
	rec.Correct = rec.Failed == 0 && rec.FirstErr == ""
	return rec, nil
}

// runTraced measures the per-layer metrics: half the time against a
// traced server, a quarter against an untraced one for the tracing
// overhead, and for aggregate-only workloads a quarter replaying the
// stream against the narrow catalog.
func (h *harness) runTraced(w workload, seed int64, window time.Duration) (*runRecord, error) {
	p, err := h.runPhase(phaseConfig{w: w, seed: seed, window: window / 2, traced: true, setups: 1, recover: true})
	if err != nil {
		return nil, err
	}
	ref, err := h.runPhase(phaseConfig{w: w, seed: seed, window: window / 4, setups: 1})
	if err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: w.name, Seed: seed, Trace: 1, Seconds: window.Seconds(), Metrics: map[string]float64{}}
	rec.absorb(p)
	rec.absorb(ref)
	var narrow *phaseResult
	if w.wide && w.aggPct == 100 {
		nw := w
		nw.wide = false
		if narrow, err = h.runPhase(phaseConfig{w: nw, seed: seed, window: window / 4, traced: true, setups: 1}); err != nil {
			return nil, err
		}
		rec.absorb(narrow)
	}
	layerMetrics(rec.Metrics, p, ref, narrow, (window / 2).Seconds(), (window / 4).Seconds())
	rec.Spans = p.trace.byName
	rec.Correct = rec.Failed == 0 && rec.FirstErr == ""
	return rec, nil
}

// layerMetrics derives every per-layer metric from a traced phase, the
// untraced reference phase and, where there is one, the narrow replay.
// A layer the workload bypasses reports 0.
func layerMetrics(m map[string]float64, p, ref, narrow *phaseResult, seconds, refSeconds float64) {
	attempted, failed, resends := tally(p.samples)
	ok := float64(attempted - failed)
	all := latencies(p.samples, "")
	t, d := p.trace, p.prom

	// client
	m["lat_p99_ms"] = ms(quantile(all, 0.99))
	m["lat_max_ms"] = ms(quantile(all, 1))
	for _, class := range []string{classRead, classAgg, classWrite} {
		m[class+"_p50_ms"] = ms(quantile(latencies(p.samples, class), 0.50))
	}
	m["conflict_resends_per_kop"] = ratio(1000*float64(resends), float64(attempted))

	// isqld
	reqs := d.sum("wsdb_request_seconds_count", `endpoint="exec"`) + d.sum("wsdb_request_seconds_count", `endpoint="execute"`)
	reqSeconds := d.sum("wsdb_request_seconds_sum", `endpoint="exec"`) + d.sum("wsdb_request_seconds_sum", `endpoint="execute"`)
	m["handler_us_per_req"] = ratio(reqSeconds*1e6, reqs)
	m["http_overhead_us"] = float64((quantile(all, 0.50) - quantile(t.stmts, 0.50)).Nanoseconds()) / 1e3

	// isql.parse, isql.compile + rewrite
	m["parse_us_per_stmt"] = p.parseUs
	m["compile_us_per_stmt"] = t.perSpanUs("compile")
	m["plan_cache_hit_ratio"] = ratio(float64(t.planHits), float64(t.planSeen))
	m["rewrite_expanded_per_stmt"] = ratio(d.sum("wsdb_rewrite_expanded_total"), d.sum("wsdb_execs_total"))

	// wsdexec, isql.bounded
	m["exec_us_per_stmt"] = t.perSpanUs("exec")
	native := d.sum("wsdb_exec_path_total", `path="native"`)
	m["native_ratio"] = ratio(native, native+d.sum("wsdb_exec_path_total", `path="fallback"`)+d.sum("wsdb_exec_path_total", `path="legacy"`))
	m["bounded_us_per_stmt"] = ratio(float64(t.boundedNs)/1e3, float64(t.boundedStmts))
	m["bounded_catalog_ratio"] = 0
	if narrow != nil {
		m["bounded_catalog_ratio"] = ratio(m["agg_p50_ms"], ms(quantile(latencies(narrow.samples, classAgg), 0.50)))
	}

	// store.commit, store.wal
	commits := d.sum("wsdb_commit_queue_seconds_count")
	fsyncs := d.sum("wsdb_wal_fsync_seconds_count")
	m["commit_us_per_commit"] = ratio(float64(t.commitNs)/1e3, float64(t.commits))
	m["queue_wait_us"] = ratio(d.sum("wsdb_commit_queue_seconds_sum")*1e6, commits)
	m["commits_per_fsync"] = ratio(commits, fsyncs)
	conflicts := float64(resends)
	if _, sharded := p.promEnd[`wsdb_shard_conflicts_total{shard="0"}`]; sharded {
		conflicts = d.sum("wsdb_shard_conflicts_total")
	}
	m["conflicts_per_kcommit"] = ratio(1000*conflicts, commits)
	m["fsync_us"] = ratio(d.sum("wsdb_wal_fsync_seconds_sum")*1e6, fsyncs)
	m["delta_us"] = t.perSpanUs("wal.delta")
	tail := p.promEnd.sum("wsdb_wal_tail_records")
	m["wal_bytes_per_commit"] = ratio(float64(p.walBytes), tail)

	// store.pagestore, page, bufpool
	m["checkpoints"] = d.sum("wsdb_checkpoints_total")
	m["ckpt_bytes_per_commit"] = ratio(d.sum("wsdb_checkpoint_bytes_sum"), commits)
	// The server reads pages back only when it recovers, so the pool's
	// reads are the window's, which are none so far, plus the restart's.
	hits := d.sum("wsdb_bufpool_hits_total") + p.promRecover.sum("wsdb_bufpool_hits_total")
	misses := d.sum("wsdb_bufpool_misses_total") + p.promRecover.sum("wsdb_bufpool_misses_total")
	m["bufpool_hit_ratio"] = ratio(hits, hits+misses)
	m["disk_bytes_per_user_byte"] = ratio(float64(p.diskBytes), float64(p.userBytes))

	// store.recovery
	m["recovery_s"] = p.recoveryS
	m["wal_tail_records"] = tail
	m["recovery_us_per_record"] = ratio(p.recoveryS*1e6, tail)

	// obs, process
	refAttempted, refFailed, _ := tally(ref.samples)
	m["trace_overhead_ratio"] = ratio(ok/seconds, float64(refAttempted-refFailed)/refSeconds)
	m["cpu_ms_per_op"] = ratio(ms(p.cpu), ok)
	m["rss_peak_mb"] = p.rssPeakMB
}
