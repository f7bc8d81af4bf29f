package isql

import (
	"fmt"
	"sort"
	"sync"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
)

// PlannerReplans counts plan-cache recompiles triggered by decomposition
// statistics drifting past the staleness threshold (statsDrifted) while
// the schema fingerprint was unchanged — exported at isqld /metrics as
// wsdb_planner_replans_total. Schema-change recompiles do not count:
// those are forced correctness recompiles, not cost-model staleness.
var PlannerReplans obs.Counter

// Prepared statements: PREPARE parses a statement once (with optional
// $1..$N placeholders) and registers it in a PlanCache; EXECUTE binds
// arguments and runs it. For zero-parameter selects in the clean WSA
// fragment the cache also holds the compiled plan, keyed on a
// fingerprint of the schema it compiled against (relation names,
// attribute lists, view texts — the only inputs compilation reads), so
// a server executing the same prepared query request after request
// skips parsing, analysis and compilation entirely and goes straight to
// snapshot evaluation. DML bumps the catalog version but not the
// fingerprint, so the plan survives interleaved writes; DDL or view
// changes alter the fingerprint and force one recompile.

// PlanCache is a concurrency-safe registry of prepared statements. A
// zero-value cache is not usable; construct with NewPlanCache. Sessions
// lazily create a private cache; a server shares one across all its
// sessions (Session.SetPlanCache) so a statement prepared on any
// connection is executable — already compiled — on every other. The
// cache is bounded: past the capacity, registering a new name evicts
// the least recently used statement (the shared server cache is fed by
// an unauthenticated endpoint and must not grow without limit).
type PlanCache struct {
	mu     sync.RWMutex
	byName map[string]*Prepared
	cap    int
	clock  uint64
}

// DefaultPlanCacheCap bounds a cache's entries unless SetCap raises it.
const DefaultPlanCacheCap = 1024

// NewPlanCache returns an empty cache with the default capacity.
func NewPlanCache() *PlanCache {
	return &PlanCache{byName: map[string]*Prepared{}, cap: DefaultPlanCacheCap}
}

// SetCap changes the eviction capacity (minimum 1).
func (c *PlanCache) SetCap(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = max(n, 1)
}

// Get returns the prepared statement registered under name, or nil.
func (c *PlanCache) Get(name string) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.byName[name]
	if p != nil {
		c.clock++
		p.lastUsed = c.clock
	}
	return p
}

// put registers p, replacing any previous statement of the same name
// and evicting the least recently used entry when full.
func (c *PlanCache) put(p *Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, replacing := c.byName[p.Name]; !replacing && len(c.byName) >= c.cap {
		var lruName string
		var lru uint64
		first := true
		for name, q := range c.byName {
			if first || q.lastUsed < lru {
				lruName, lru, first = name, q.lastUsed, false
			}
		}
		delete(c.byName, lruName)
	}
	c.clock++
	p.lastUsed = c.clock
	c.byName[p.Name] = p
}

// Names lists the registered statement names, sorted.
func (c *PlanCache) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.byName))
	for n := range c.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Prepared is one registered statement plus its memoized compilation.
type Prepared struct {
	// Name the statement is executed by.
	Name string
	// SQL is the normalized statement text (the parsed tree re-rendered).
	SQL string
	// Stmt is the parsed statement, with parameters unbound.
	Stmt Statement
	// NumParams is the highest $N placeholder in the statement.
	NumParams int

	// lastUsed is the cache's LRU clock tick; guarded by the cache lock.
	lastUsed uint64

	mu       sync.Mutex
	compiled bool     // a plan was compiled for fingerprint fp
	fp       uint64   // schema fingerprint the plan is valid for
	plan     wsa.Expr // the compiled plan
	compiles int      // how many times the plan was (re)compiled

	// planStats are the decomposition statistics the plan was optimized
	// under. A plan stays cached while the catalog's statistics remain
	// within the drift threshold of these; past it the costs the rewrite
	// search minimized no longer describe the data and planFor re-plans
	// (counted by PlannerReplans).
	planStats rewrite.Stats
}

// Compiles reports how many times the statement's plan was compiled —
// one per schema fingerprint it has executed under. A parameterized
// EXECUTE binds into the cached plan, so repeated execution against an
// unchanged schema keeps this at 1.
func (p *Prepared) Compiles() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compiles
}

// planFor returns the statement's compiled, prelowered plan for the
// snapshot, reusing the memoized plan while the snapshot's schema
// fingerprint is unchanged and recompiling (once) when DDL moved it.
// The rewrite search (rewrite.Prelower) runs here, at compile time, so
// per-execution evaluation passes NoRewrite and goes straight to the
// operators — on a small catalog the rewriter dominates per-request
// cost, and it depends only on the query and the schema, exactly what
// the fingerprint pins. Compilation errors — including the
// fragmentError that routes a select to the bounded arm — are
// returned uncached.
func (p *Prepared) planFor(s *Session, snap *store.Snapshot) (wsa.Expr, error) {
	sel, ok := p.Stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("isql: prepared statement %q is not a select", p.Name)
	}
	fp := snap.SchemaFingerprint()
	st := rewrite.StatsOf(snap.DB)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.compiled && p.fp == fp {
		if !statsDrifted(p.planStats, st) {
			return p.plan, nil
		}
		// Same schema, moved data: the cached plan is still correct but
		// was optimized for cardinalities that no longer hold — re-plan.
		PlannerReplans.Inc()
	}
	q, err := s.compileOn(snap.DB.Names, snap.DB.Schemas, sel)
	if err != nil {
		return nil, err
	}
	q, _ = rewrite.PrelowerStats(q, wsa.NewEnv(snap.DB.Names, snap.DB.Schemas), st, nil)
	p.compiled, p.fp, p.plan, p.planStats = true, fp, q, st
	p.compiles++
	return q, nil
}

// driftRatio is the staleness threshold on per-relation cardinality: a
// cached plan survives while every relation's tuple count stays within
// a factor of driftRatio of what it was optimized under (with +1
// smoothing so empty relations drift on their first real growth, not on
// every insert).
const driftRatio = 2.0

// statsDrifted reports whether the catalog's decomposition statistics
// moved enough since plan optimization to invalidate the cost model's
// choices: a relation's component count changed (the world-growth
// estimates keyed on it), or its cardinality left the
// driftRatio band (the join-order and selectivity estimates did).
func statsDrifted(old, cur rewrite.Stats) bool {
	if len(old) != len(cur) {
		return true
	}
	for name, o := range old {
		c, ok := cur[name]
		if !ok || o.Components != c.Components {
			return true
		}
		oc := o.Certain + o.Alternative + 1
		cc := c.Certain + c.Alternative + 1
		if oc > cc*driftRatio || cc > oc*driftRatio {
			return true
		}
	}
	return false
}

// planCache returns the session's cache, creating a private one on
// first use.
func (s *Session) planCache() *PlanCache {
	if s.prep == nil {
		s.prep = NewPlanCache()
	}
	return s.prep
}

// SetPlanCache attaches a (typically shared) prepared-statement cache.
func (s *Session) SetPlanCache(c *PlanCache) { s.prep = c }

// execPrepare registers the statement. Validation beyond parsing
// happens at EXECUTE time, against the schema the execution sees —
// tables a prepared statement mentions may legitimately be created
// after the PREPARE.
func (s *Session) execPrepare(n *PrepareStmt) (*Result, error) {
	s.planCache().put(&Prepared{
		Name:      n.Name,
		SQL:       n.Stmt.String(),
		Stmt:      n.Stmt,
		NumParams: maxParam(n.Stmt),
	})
	return &Result{
		Decomp:  s.target().Snapshot().DB,
		Message: fmt.Sprintf("prepared %s", n.Name),
	}, nil
}

// execExecute binds arguments and runs the prepared statement. Selects
// — parameterized or not — run through the memoized compiled plan:
// arguments bind into the already-compiled, already-prelowered plan
// (wsa.BindParams), so repeated EXECUTE never re-runs analysis,
// compilation or the rewrite search. Everything else goes through the
// regular statement dispatch on the already-parsed (and, with
// parameters, substituted) tree — never re-parsing SQL.
func (s *Session) execExecute(n *ExecuteStmt) (*Result, error) {
	p := s.planCache().Get(n.Name)
	if p == nil {
		return nil, fmt.Errorf("isql: unknown prepared statement %q", n.Name)
	}
	if len(n.Args) != p.NumParams {
		return nil, p.arityError(len(n.Args))
	}
	if sel, ok := p.Stmt.(*SelectStmt); ok {
		return s.execSelectWith(sel, p, n.Args)
	}
	if p.NumParams == 0 {
		return s.Exec(p.Stmt)
	}
	return s.Exec(bindStmt(p.Stmt, n.Args))
}

// arityError reports an EXECUTE argument-count mismatch in terms of the
// statement's declared parameter count — the full $1..$N slot list the
// PREPARE registered — so the caller sees what the statement declares,
// not just whichever slot happened to fail binding.
func (p *Prepared) arityError(got int) error {
	if p.NumParams == 0 {
		return fmt.Errorf("isql: prepared statement %q declares no parameters, got %d argument(s)", p.Name, got)
	}
	return fmt.Errorf("isql: prepared statement %q declares %d parameter(s) ($1..$%d), got %d argument(s)",
		p.Name, p.NumParams, p.NumParams, got)
}

// bindPlan binds EXECUTE arguments into the cached compiled plan. The
// arity was validated against the declared parameter count up front, so
// a slot out of range here is a bug, reported with the declared count.
func (p *Prepared) bindPlan(q wsa.Expr, args []value.Value) (wsa.Expr, error) {
	if len(args) == 0 {
		return q, nil
	}
	bound, err := wsa.BindParams(q, args)
	if err != nil {
		return nil, fmt.Errorf("isql: binding prepared statement %q (declares %d parameter(s)): %w", p.Name, p.NumParams, err)
	}
	return bound, nil
}

// firstUnboundParam rejects executing an insert whose cells still hold
// placeholders (a PREPAREd statement run without EXECUTE binding).
func firstUnboundParam(params [][]int) error {
	for _, row := range params {
		for _, n := range row {
			if n > 0 {
				return fmt.Errorf("isql: unbound parameter $%d (bind it with execute)", n)
			}
		}
	}
	return nil
}

// maxParam returns the highest $N placeholder anywhere in the statement
// (0 when it holds none).
func maxParam(st Statement) int {
	out := 0
	walkStmt(st, func(node any) bool {
		switch n := node.(type) {
		case *ParamExpr:
			out = max(out, n.N)
		case *InsertStmt:
			for _, row := range n.Params {
				for _, p := range row {
					out = max(out, p)
				}
			}
		}
		return true
	})
	return out
}

// bindStmt returns a copy of the statement with every $N placeholder
// replaced by args[N-1]; the prepared tree itself is never mutated.
// execExecute has checked len(args) against the declared parameter
// count — maxParam of this tree — so every slot is in range.
func bindStmt(st Statement, args []value.Value) Statement {
	if ins, ok := st.(*InsertStmt); ok && ins.Params != nil {
		out := &InsertStmt{Table: ins.Table, Rows: make([][]value.Value, len(ins.Rows))}
		for i, row := range ins.Rows {
			out.Rows[i] = append([]value.Value{}, row...)
			for j, p := range ins.Params[i] {
				if p > 0 {
					out.Rows[i][j] = args[p-1]
				}
			}
		}
		return out
	}
	return mapStmt(st, func(e Expr) Expr {
		if p, ok := e.(*ParamExpr); ok {
			return &LitExpr{Val: args[p.N-1]}
		}
		return nil
	})
}
