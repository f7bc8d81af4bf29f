package isqld

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"worldsetdb/internal/isql"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

// WithSlowQuery enables the slow-query log: every statement executes
// with a trace attached, and any statement slower than d has its span
// tree written to w as one JSON line (parse → compile → per-operator
// evaluation → commit → fsync, with merge costs and component ids) —
// the post-hoc answer to "what was that request doing". Tracing every
// statement costs a few allocations per span; the threshold only
// gates the logging.
func WithSlowQuery(d time.Duration, w io.Writer) Option {
	return func(s *Server) {
		s.slowQuery = d
		s.slowW = w
	}
}

// endpointHist returns the request-latency histogram for an endpoint.
func (s *Server) endpointHist(endpoint string) *obs.Histogram {
	switch endpoint {
	case "exec":
		return &s.histExec
	case "prepare":
		return &s.histPrepare
	case "execute":
		return &s.histExecute
	}
	return nil
}

// observeRequest records one request's wall time under its endpoint.
// Use as `defer s.observeRequest("exec", time.Now())`.
func (s *Server) observeRequest(endpoint string, start time.Time) {
	s.endpointHist(endpoint).Observe(time.Since(start))
}

// runScript executes a script like RunScript, additionally tracing
// each statement when the slow-query log is enabled and emitting span
// trees for statements over the threshold.
func (s *Server) runScript(b []byte, sess *isql.Session, script string) ([]byte, error) {
	exec := sess.Exec
	if s.slowQuery > 0 {
		exec = func(st isql.Statement) (*isql.Result, error) { return s.execTraced(sess, st) }
	}
	return appendScript(b, sess, script, exec)
}

// execTraced runs one statement with a trace attached and logs the
// span tree when it ran slower than the threshold.
func (s *Server) execTraced(sess *isql.Session, st isql.Statement) (*isql.Result, error) {
	tr := obs.NewTrace("stmt")
	tr.Set("sql", st.String())
	sess.SetTrace(tr)
	res, err := sess.Exec(st)
	sess.SetTrace(nil)
	tr.End()
	if tr.Duration() >= s.slowQuery {
		buf := getBuf()
		*buf = append(tr.AppendJSON(*buf), '\n')
		s.slowMu.Lock()
		s.slowW.Write(*buf)
		s.slowMu.Unlock()
		putBuf(buf)
	}
	tr.Release()
	return res, err
}

// healthz is the GET /healthz document: liveness plus the recovery
// facts a supervisor (or the CI smoke job) asserts on — how many
// catalog shards are serving and the last durable epoch each one has
// published. Always HTTP 200 while the server is up.
type healthz struct {
	Status  string `json:"status"`
	Version uint64 `json:"version"`
	Shards  int    `json:"shards"`
	// ShardEpochs holds, per shard, the newest published (durable)
	// epoch; a restart that replayed its WAL reports the pre-crash
	// epochs here.
	ShardEpochs []uint64 `json:"shard_epochs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := healthz{Status: "ok", Version: s.cat.Snapshot().Version, Shards: s.cat.Shards()}
	for _, st := range s.cat.ShardStats() {
		h.ShardEpochs = append(h.ShardEpochs, st.Version)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: request and execution counters, per-shard commit-queue and
// fsync latency histograms, and per-relation decomposition-statistics
// gauges (the feed for decomposition-aware planning).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var p obs.Prom
	snap := s.cat.Snapshot()

	// Catalog shape.
	p.Gauge("wsdb_catalog_version", "Latest committed catalog version.", "", float64(snap.Version))
	p.Gauge("wsdb_catalog_size", "Decomposition size (total stored tuples).", "", float64(snap.DB.Size()))
	p.Gauge("wsdb_catalog_components", "Independent components in the catalog decomposition.", "", float64(len(snap.DB.Components)))
	maxAlts := 0
	for arity := range snap.Stats().AltHist {
		maxAlts = max(maxAlts, arity)
	}
	p.Gauge("wsdb_catalog_max_alternatives", "Alternatives of the largest component in the catalog decomposition.", "", float64(maxAlts))
	p.Gauge("wsdb_catalog_worlds_log2", "Base-2 logarithm (floor) of the represented world count.", "", worldsLog2(snap.DB))
	p.Gauge("wsdb_catalog_shards", "Catalog shards.", "", float64(s.cat.Shards()))
	s.mu.Lock()
	live := len(s.sessions)
	s.mu.Unlock()
	p.Gauge("wsdb_sessions", "Live sticky sessions.", "", float64(live))

	// Request counters and latency per endpoint.
	for _, ep := range []string{"exec", "prepare", "execute"} {
		h := s.endpointHist(ep)
		p.Counter("wsdb_requests_total", "HTTP requests served per endpoint.", obs.Label("endpoint", ep), h.Count())
	}
	for _, ep := range []string{"exec", "prepare", "execute"} {
		p.Histogram("wsdb_request_seconds", "Request wall time per endpoint.", obs.Label("endpoint", ep), s.endpointHist(ep).Snapshot())
	}

	// Execution accounting: the ExecStatsSnapshot counters of /stats,
	// re-exported as Prometheus series.
	es := s.exec.Snapshot()
	p.Counter("wsdb_execs_total", "Statements executed over /exec and /execute.", "", s.execs.Load())
	for _, pc := range []struct {
		path string
		v    uint64
	}{{"native", es.Native}, {"merged", es.Merged}, {"legacy", es.Legacy}} {
		p.Counter("wsdb_exec_path_total", "Compiled-statement executions per evaluation path.", obs.Label("path", pc.path), pc.v)
	}
	for _, kc := range []struct {
		kind string
		ops  map[string]uint64
	}{{"merge", es.MergeOps}, {"legacy", es.LegacyOps}} {
		for _, op := range sortedKeys(kc.ops) {
			p.Counter("wsdb_exec_op_total", "Merges, refinements and legacy evaluations attributed to the causing operator.",
				obs.Label("kind", kc.kind)+","+obs.Label("op", op), kc.ops[op])
		}
	}

	// Per-shard commit statistics and latency histograms.
	stats := s.cat.ShardStats()
	for _, st := range stats {
		p.Gauge("wsdb_shard_version", "Newest published epoch per shard.", shardLabel(st.Shard), float64(st.Version))
	}
	for _, st := range stats {
		p.Counter("wsdb_shard_commits_total", "Commits published per shard.", shardLabel(st.Shard), st.Commits)
	}
	for _, st := range stats {
		p.Counter("wsdb_shard_conflicts_total", "Staged commits refused validation, per home shard of the relation that moved.", shardLabel(st.Shard), st.Conflicts)
	}
	for _, st := range stats {
		p.Gauge("wsdb_shard_pending", "Commits queued for group commit per shard.", shardLabel(st.Shard), float64(st.Pending))
	}
	for _, st := range stats {
		p.Counter("wsdb_shard_wal_fsyncs_total", "WAL fsyncs per shard segment.", shardLabel(st.Shard), st.Syncs)
	}
	shardObs := s.cat.ObsShards()
	for _, so := range shardObs {
		p.Histogram("wsdb_commit_queue_seconds", "Group-commit queue wait per shard.", shardLabel(so.Shard), so.Queue.Snapshot())
	}
	for _, so := range shardObs {
		if so.Fsync != nil {
			p.Histogram("wsdb_wal_fsync_seconds", "WAL fsync duration per shard.", shardLabel(so.Shard), so.Fsync.Snapshot())
		}
	}

	// Decomposition statistics per relation: how much of each relation
	// is certain vs alternative, and across how many components its
	// uncertainty spreads — the same snapshot-cached statistics the
	// planner reads (wsd.Stats, pre-computed by Normalize), so scraping
	// /metrics never re-walks the decomposition.
	st := snap.Stats()
	for i, name := range snap.DB.Names {
		p.Gauge("wsdb_relation_certain_tuples", "Tuples of the relation present in every world.",
			relLabel(name), float64(st.Rel(i).Certain))
	}
	for i, name := range snap.DB.Names {
		p.Gauge("wsdb_relation_alternative_tuples", "Tuples of the relation stored across component alternatives.",
			relLabel(name), float64(st.Rel(i).Alternative))
	}
	for i, name := range snap.DB.Names {
		p.Gauge("wsdb_relation_components", "Components with alternatives contributing to the relation.",
			relLabel(name), float64(st.Rel(i).Components))
	}

	// Durability posture: how stale the recovery base is and how big it
	// is on disk (one checkpoint file, so one series each), and per shard
	// how much WAL tail a crash right now would replay.
	ds := s.cat.DurabilityStats()
	p.Gauge("wsdb_checkpoint_age_seconds", "Seconds since the last checkpoint completed or was skipped as a no-op (-1 before the first).",
		"", ds.CheckpointAgeSeconds)
	p.Gauge("wsdb_checkpoint_disk_bytes", "On-disk size of the checkpoint base file.", "", float64(ds.DiskBytes))
	for si, n := range ds.WALTailRecords {
		p.Gauge("wsdb_wal_tail_records", "Records in the shard's WAL segment — the crash-replay backlog.",
			shardLabel(si), float64(n))
	}
	// Paged-checkpoint I/O and buffer-pool counters, present once the
	// catalog runs on the page-file base.
	if pager := s.cat.Pager(); pager != nil {
		p.Counter("wsdb_checkpoints_total", "Page checkpoints written.", "", ds.Checkpoints)
		p.Counter("wsdb_checkpoint_noop_skips_total", "Checkpoints skipped because nothing changed since the previous one.", "", ds.NoopSkips)
		p.Counter("wsdb_checkpoint_pages_written_total", "Pages written by checkpoints.", "", ds.PagesWritten)
		p.Counter("wsdb_bufpool_hits_total", "Buffer-pool page reads served from resident frames.", "", ds.Pool.Hits)
		p.Counter("wsdb_bufpool_misses_total", "Buffer-pool page reads that went to disk.", "", ds.Pool.Misses)
		p.Counter("wsdb_bufpool_evictions_total", "Buffer-pool frames recycled by the clock hand.", "", ds.Pool.Evictions)
		p.HistogramRaw("wsdb_checkpoint_bytes", "Bytes written per checkpoint (incremental checkpoints observe only dirty pages).",
			"", pager.BytesHist().Snapshot())
	}

	// Cost-based planning counters: rewrite-search effort across every
	// compile in the process, and plan-cache re-plans forced by
	// statistics drift.
	p.Counter("wsdb_rewrite_expanded_total", "Rewrite-search candidate plans expanded across all compiles.",
		"", rewrite.SearchExpanded.Value())
	p.Counter("wsdb_rewrite_pruned_total", "Rewrite-search candidate plans pruned by the cost bound across all compiles.",
		"", rewrite.SearchPruned.Value())
	p.Counter("wsdb_planner_replans_total", "Plan-cache recompiles triggered by decomposition-statistics drift.",
		"", isql.PlannerReplans.Value())

	// Access paths of the factorized engine's selections: how many were
	// answered from a relation's cached hash index, how many by scanning.
	p.Counter("wsdb_select_index_probes_total", "Selections that probed a cached relation index on at least one piece.",
		"", wsdexec.SelectIndexProbes.Value())
	p.Counter("wsdb_select_scans_total", "Selections that scanned every piece.",
		"", wsdexec.SelectScans.Value())

	// Handler panics the server survived (see guard); the CI smoke jobs
	// require it to stay 0.
	p.Counter("wsdb_handler_panics_total", "Handler panics answered with HTTP 500.", "", s.panics.Value())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(p.Bytes())
}

func shardLabel(i int) string { return obs.Label("shard", strconv.Itoa(i)) }
func relLabel(name string) string {
	return obs.Label("relation", name)
}

// worldsLog2 approximates log2 of the represented world count (exact
// for powers of two; floor otherwise; 0 for the empty world-set).
func worldsLog2(db *wsd.DecompDB) float64 {
	w := db.Worlds()
	if w.Sign() <= 0 {
		return 0
	}
	return float64(w.BitLen() - 1)
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
