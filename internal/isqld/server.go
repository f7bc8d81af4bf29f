// Package isqld implements the concurrent I-SQL server: any number of
// HTTP clients execute I-SQL scripts against one shared
// decomposition-native catalog (internal/store). Each request gets its
// own session; selects evaluate wait-free against an immutable catalog
// snapshot (readers never block, and never see a torn version), while
// DML and DDL serialize through the catalog's single-writer MVCC
// transaction. This is the serving path of the north star: a
// 2^40-world census catalog answers certain/possible queries from many
// concurrent readers in milliseconds each, because every reader works
// on the factored representation.
//
// # Protocol
//
// The server speaks a line-oriented text protocol over HTTP:
//
//	POST /exec     body: an I-SQL script (semicolon-separated
//	               statements). The response streams, per statement, an
//	               "isql> <statement>" echo followed by the rendered
//	               distinct answers (selects) or an "ok; N world(s)"
//	               status line. A statement error stops the script with
//	               an "error: ..." line and HTTP 422.
//	POST /prepare  body: one or more `prepare <name> as <statement>`
//	               statements. Registers them in the server-wide plan
//	               cache shared by every session; compiled plans are
//	               memoized, so later /execute requests skip parsing and
//	               compilation.
//	POST /execute  body: `<name>` or `<name>(arg, ...)` — runs a
//	               prepared statement with the bound literal arguments,
//	               rendered like one /exec statement.
//	GET  /stats    JSON: catalog version, world count, decomposition
//	               size, relation and view names, prepared statements,
//	               live transactional sessions.
//	GET  /metrics  Prometheus text exposition (0.0.4): request and
//	               execution counters, per-shard commit-queue and WAL
//	               fsync latency histograms, per-relation decomposition
//	               statistics gauges.
//	GET  /healthz  JSON liveness document once the server is up:
//	               status, catalog version, shard count and the last
//	               durable epoch per shard.
//
// # Transactional sessions
//
// A request carrying an X-ISQL-Session header is sticky: the server
// keeps one named session per token, serializes that token's requests,
// and preserves session state — most importantly an open BEGIN
// transaction — across requests. A script may BEGIN in one request,
// stage statements over several more, and COMMIT later; until the
// commit, every other session (and every /exec reader) keeps seeing the
// pre-transaction catalog. Sticky sessions idle longer than the TTL are
// evicted and their open transaction rolled back — by a background
// sweeper (stopped by Server.Close), so an abandoned transaction
// releases its staging snapshot even on a server receiving no further
// requests. Requests without the header run on a throwaway session, and
// a transaction left open at the end of the script is rolled back
// (there is no token to resume it by).
//
// A COMMIT losing first-committer-wins to a concurrent writer is
// retried automatically up to the WithTxnRetries budget: the
// transaction's write statements re-execute on the new latest version
// and the conflict surfaces as a request error only on exhaustion.
package isqld

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"worldsetdb/internal/isql"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/store"
)

// SessionHeader names the sticky-session token header.
const SessionHeader = "X-ISQL-Session"

// Server serves I-SQL sessions over one shared catalog.
type Server struct {
	cat *store.Catalog
	// maxBody bounds script size (default 1 MiB).
	maxBody int64
	// prep is the server-wide prepared-statement cache, shared by every
	// session (sticky and throwaway).
	prep *isql.PlanCache
	// txnRetries is each session's automatic conflict-retry budget.
	txnRetries int
	// sticky sessions by token.
	mu         sync.Mutex
	sessions   map[string]*stickySession
	sessionTTL time.Duration
	// stopSweep ends the background idle-session sweeper; closeOnce
	// makes Close idempotent.
	stopSweep chan struct{}
	closeOnce sync.Once
	// stats
	execs atomic.Uint64
	// exec is the server-wide execution accounting (native / merged /
	// legacy, attributed per operator), shared by every
	// session the server creates.
	exec *isql.ExecStats
	// Request-latency histograms per endpoint; their counts double as
	// the per-endpoint request counters on /metrics.
	histExec, histPrepare, histExecute obs.Histogram
	// Slow-query log: statements slower than slowQuery write their span
	// tree to slowW as one JSON line (0 disables; see WithSlowQuery).
	slowQuery time.Duration
	slowW     io.Writer
	slowMu    sync.Mutex
	// panics counts handler panics answered with a 500 (guard).
	panics obs.Counter
}

// stickySession is one token's persistent session. Its mutex serializes
// requests for the token (a session is single-goroutine).
type stickySession struct {
	mu       sync.Mutex
	sess     *isql.Session
	lastUsed time.Time
}

// Option configures a Server.
type Option func(*Server)

// WithSessionTTL sets the sticky-session idle eviction age (default 5
// minutes). An evicted session's open transaction is rolled back.
func WithSessionTTL(d time.Duration) Option { return func(s *Server) { s.sessionTTL = d } }

// WithTxnRetries sets each session's automatic conflict-retry budget: a
// COMMIT losing first-committer-wins re-runs the transaction's write
// statements up to n times before the conflict surfaces as a request
// error (default 0 — no retry).
func WithTxnRetries(n int) Option { return func(s *Server) { s.txnRetries = n } }

// New returns a server over the catalog. The server owns a background
// sweeper goroutine; call Close when done with it.
func New(cat *store.Catalog, opts ...Option) *Server {
	s := &Server{
		cat:        cat,
		maxBody:    1 << 20,
		prep:       isql.NewPlanCache(),
		sessions:   map[string]*stickySession{},
		sessionTTL: 5 * time.Minute,
		stopSweep:  make(chan struct{}),
		exec:       isql.NewExecStats(),
	}
	for _, o := range opts {
		o(s)
	}
	go s.sweepLoop()
	return s
}

// Close stops the background session sweeper. Idempotent; it does not
// touch the catalog or in-flight requests.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.stopSweep) })
}

// sweepLoop evicts idle sticky sessions in the background, so an open
// transaction abandoned by its client releases its staging snapshot
// after the TTL even on a server receiving no further requests (the
// in-request eviction alone would pin it indefinitely on a quiet
// server).
func (s *Server) sweepLoop() {
	interval := s.sessionTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-tick.C:
			s.mu.Lock()
			s.evictIdleLocked()
			s.mu.Unlock()
		}
	}
}

// Catalog returns the shared catalog (for persistence on shutdown).
func (s *Server) Catalog() *store.Catalog { return s.cat }

// Handler returns the HTTP handler serving the protocol.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /exec", s.handleExec)
	mux.HandleFunc("POST /prepare", s.handlePrepare)
	mux.HandleFunc("POST /execute", s.handleExecute)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.guard(mux)
}

// guard wraps h so that a panic in any handler is answered with HTTP
// 500 and an "error: internal" line, logged with its stack and counted
// in wsdb_handler_panics_total, instead of net/http dropping the
// connection. Every handler builds its whole response before the first
// Write (see reply), so a panic finds nothing sent yet and the 500 can
// still be the status.
func (s *Server) guard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v) // net/http's own signal to drop the connection
			}
			s.panics.Inc()
			log.Printf("isqld: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			http.Error(w, "error: internal", http.StatusInternalServerError)
		}()
		h.ServeHTTP(w, r)
	})
}

// session returns a fresh throwaway session bound to the shared catalog
// and plan cache. Sessions are cheap (a pointer and a view parse
// cache); per-request isolation is what lets requests run concurrently.
func (s *Server) session() *isql.Session {
	sess := isql.FromCatalog(s.cat)
	sess.SetPlanCache(s.prep)
	sess.RetryConflicts = s.txnRetries
	sess.Stats = s.exec
	return sess
}

// acquire resolves the request's session: the token's sticky session
// (locked for the duration of the request; created on first use) when
// the header is set, a throwaway otherwise. release must be called when
// the request is done; for throwaway sessions it rolls back any open
// transaction.
func (s *Server) acquire(r *http.Request) (sess *isql.Session, release func()) {
	token := r.Header.Get(SessionHeader)
	if token == "" {
		sess = s.session()
		return sess, func() {
			if sess.InTxn() {
				sess.Rollback()
			}
		}
	}
	s.mu.Lock()
	s.evictIdleLocked()
	st, ok := s.sessions[token]
	if !ok {
		st = &stickySession{sess: s.session()}
		s.sessions[token] = st
	}
	st.lastUsed = time.Now()
	s.mu.Unlock()
	st.mu.Lock()
	return st.sess, func() {
		s.mu.Lock()
		st.lastUsed = time.Now()
		s.mu.Unlock()
		st.mu.Unlock()
	}
}

// evictIdleLocked drops sticky sessions idle beyond the TTL, rolling
// back their open transactions. Caller holds s.mu.
func (s *Server) evictIdleLocked() {
	cutoff := time.Now().Add(-s.sessionTTL)
	for token, st := range s.sessions {
		if st.lastUsed.Before(cutoff) {
			if st.mu.TryLock() { // skip a session mid-request
				if st.sess.InTxn() {
					st.sess.Rollback()
				}
				st.mu.Unlock()
				delete(s.sessions, token)
			}
		}
	}
}

// body reads a bounded request body.
func (s *Server) body(w http.ResponseWriter, r *http.Request) (string, bool) {
	data, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody+1))
	if err != nil {
		http.Error(w, "error: reading request: "+err.Error(), http.StatusBadRequest)
		return "", false
	}
	if int64(len(data)) > s.maxBody {
		http.Error(w, fmt.Sprintf("error: script exceeds %d bytes", s.maxBody), http.StatusRequestEntityTooLarge)
		return "", false
	}
	return string(data), true
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	defer s.observeRequest("exec", time.Now())
	script, ok := s.body(w, r)
	if !ok {
		return
	}
	s.execs.Add(1)
	sess, release := s.acquire(r)
	defer release()
	buf := getBuf()
	defer putBuf(buf)
	var err error
	*buf, err = s.runScript(*buf, sess, script)
	s.reply(w, *buf, err)
}

// handlePrepare registers `prepare <name> as <statement>` statements in
// the server-wide plan cache.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	defer s.observeRequest("prepare", time.Now())
	script, ok := s.body(w, r)
	if !ok {
		return
	}
	stmts, err := isql.ParseScript(script)
	if err != nil {
		s.reply(w, nil, err)
		return
	}
	sess, release := s.acquire(r)
	defer release()
	var b []byte
	for _, st := range stmts {
		if _, isPrep := st.(*isql.PrepareStmt); !isPrep {
			s.reply(w, b, fmt.Errorf("/prepare accepts only prepare statements, got %q", st))
			return
		}
		res, err := sess.Exec(st)
		if err != nil {
			s.reply(w, b, err)
			return
		}
		b = append(append(b, res.Message...), '\n')
	}
	s.reply(w, b, nil)
}

// handleExecute runs a prepared statement: the body is the bare call
// form `name` or `name(arg, ...)` — no statement grammar to parse, and
// for cached fragment selects no compilation either.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	defer s.observeRequest("execute", time.Now())
	body, ok := s.body(w, r)
	if !ok {
		return
	}
	call, err := isql.ParseExecuteCall(body)
	if err != nil {
		s.reply(w, nil, err)
		return
	}
	s.execs.Add(1)
	sess, release := s.acquire(r)
	defer release()
	var res *isql.Result
	if s.slowQuery > 0 {
		res, err = s.execTraced(sess, call)
	} else {
		res, err = sess.Exec(call)
	}
	if err != nil {
		s.reply(w, nil, err)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendResult(*buf, sess, res)
	s.reply(w, *buf, nil)
}

// bufs recycles the buffers responses are rendered into.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf keeps one huge answer from pinning its buffer in the pool.
const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufs.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufs.Put(b)
	}
}

// textPlain is the protocol's Content-Type, assigned to the header map
// directly: Header.Set would allocate the same one-element slice per
// response, and net/http only reads it.
var textPlain = []string{"text/plain; charset=utf-8"}

// reply sends the line-protocol response with a single Write: the
// rendered output so far, plus an error line and status 422 when a
// statement failed. Handlers render everything first, so the status is
// known before anything reaches the client.
func (s *Server) reply(w http.ResponseWriter, out []byte, err error) {
	w.Header()["Content-Type"] = textPlain
	if err != nil {
		out = fmt.Appendf(out, "error: %v\n", err)
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	w.Write(out)
}

// RunScript executes an I-SQL script against the session and renders
// the per-statement output of the line protocol. On a statement error
// it returns the output up to that point plus the error.
func RunScript(sess *isql.Session, script string) (string, error) {
	out, err := appendScript(nil, sess, script, sess.Exec)
	return string(out), err
}

// appendScript is RunScript appending to b, executing each statement
// through exec.
func appendScript(b []byte, sess *isql.Session, script string,
	exec func(isql.Statement) (*isql.Result, error)) ([]byte, error) {
	stmts, err := isql.ParseScript(script)
	if err != nil {
		return b, err
	}
	for _, st := range stmts {
		b = fmt.Appendf(b, "isql> %s\n", st)
		res, err := exec(st)
		if err != nil {
			return b, err
		}
		b = appendResult(b, sess, res)
	}
	return b, nil
}

// appendResult appends one statement's protocol output to b.
func appendResult(b []byte, sess *isql.Session, res *isql.Result) []byte {
	switch {
	case len(res.Answers) > 0:
		for i, a := range res.Answers {
			caption := "answer"
			if len(res.Answers) > 1 {
				caption = fmt.Sprintf("answer variant %d of %d", i+1, len(res.Answers))
			}
			b = append(a.AppendRender(b, caption), '\n')
		}
	case res.Message != "":
		b = append(append(b, res.Message...), "\n\n"...)
	case res.Affected > 0:
		b = fmt.Appendf(b, "%d tuple(s) affected across %s world(s)\n\n", res.Affected, sess.Worlds())
	default:
		b = fmt.Appendf(b, "ok; %s world(s)\n\n", sess.Worlds())
	}
	return b
}

// Stats is the /stats document.
type Stats struct {
	Version   uint64   `json:"version"`
	Worlds    string   `json:"worlds"`
	Size      int      `json:"size"`
	Relations []string `json:"relations"`
	Views     []string `json:"views"`
	Execs     uint64   `json:"execs"`
	Prepared  []string `json:"prepared,omitempty"`
	Sessions  int      `json:"sessions"`
	// Exec breaks executions down by evaluation path: native on the
	// decomposition (merged counts those that merged or refined
	// components), and "legacy": bounded-arm evaluations of statements
	// outside the WSA fragment, subquery DELETE/UPDATE included —
	// attributed per operator.
	Exec isql.ExecStatsSnapshot `json:"exec"`
	// Shards holds per-shard commit statistics (published epoch,
	// commits, validation conflicts, queued group commits, segment
	// fsyncs).
	Shards []store.ShardStat `json:"shards"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.cat.Snapshot()
	views := make([]string, 0, len(snap.Views))
	for v := range snap.Views {
		views = append(views, v)
	}
	sort.Strings(views)
	s.mu.Lock()
	live := len(s.sessions)
	s.mu.Unlock()
	st := Stats{
		Version:   snap.Version,
		Worlds:    snap.DB.Worlds().String(),
		Size:      snap.DB.Size(),
		Relations: append([]string{}, snap.DB.Names...),
		Views:     views,
		Execs:     s.execs.Load(),
		Prepared:  s.prep.Names(),
		Sessions:  live,
		Exec:      s.exec.Snapshot(),
		Shards:    s.cat.ShardStats(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(st)
}
