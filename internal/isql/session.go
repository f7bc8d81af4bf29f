package isql

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

// Session is an I-SQL database: named tables backed by a world-set
// decomposition in a store.Catalog, plus a view catalog. State stays
// factored across statements — the decompose → query → recompose loop
// of §5–7 — so a census-repair pipeline over 2^40 worlds executes each
// statement in time polynomial in the decomposition size.
//
// A statement takes one of two arms. Statements in the clean World-set
// Algebra fragment compile and run through a registered engine directly
// on the catalog snapshot (wsdexec, the factorized engine, by default);
// tuple-local DELETE and UPDATE map over the decomposition's pieces the
// same way. Everything else — aggregation, expression subqueries,
// divide-by, query-form group-worlds-by, and DML whose predicate or SET
// holds a subquery — runs through execBounded: the session's own
// world-at-a-time evaluator over the region of the decomposition the
// statement's relations depend on (wsd.Region). State it produces is
// re-factorized and the untouched components spliced back before it is
// committed — one entangled step never de-factorizes (or costs) more
// than the region it reads.
//
// A Session is a single-goroutine view of a catalog; any number of
// sessions may share one Catalog concurrently (see cmd/isqld). Selects
// run against an immutable snapshot; DML and DDL serialize through the
// catalog's single-writer transaction.
//
// The zero value is not usable; construct with NewSession, FromDB,
// FromWorldSet or FromCatalog.
type Session struct {
	cat *store.Catalog

	// txn is the open staged transaction (nil outside BEGIN/COMMIT);
	// while set, every statement reads and writes the private staging
	// snapshot instead of the shared catalog (see txn.go).
	txn *store.Staged

	// prep caches prepared statements (PREPARE/EXECUTE). Lazily created;
	// a server shares one cache across its sessions with SetPlanCache.
	prep *PlanCache

	// views caches the parsed view definitions of the snapshot version
	// viewsVersion; refreshed whenever the catalog moves.
	views        map[string]*SelectStmt
	viewsVersion uint64

	// MaxWorlds bounds explicit world materialization: the enumeration
	// budget of the bounded input and of an engine override's region,
	// the alternatives a native merge or refinement may build,
	// repair-by-key in the world-at-a-time evaluator, and distinct-answer
	// listing. 0 means the package default of 1<<20. Violations surface
	// as *wsd.BudgetError — the shape wsd's Expand and the store report.
	MaxWorlds int

	// RetryConflicts bounds automatic conflict retry: a COMMIT that loses
	// first-committer-wins re-runs the transaction's write statements on
	// the new latest version up to this many times before surfacing
	// *store.ConflictError. 0 (the default) disables retry — conflicts
	// surface immediately, the pre-retry behavior.
	RetryConflicts int

	// Stats, when set, receives execution accounting (native/merged/
	// bounded counters per operator). A server shares one
	// instance across its sessions; nil disables recording.
	Stats *ExecStats

	// Engine picks the engine for statements in the clean WSA fragment:
	// "" or "wsdexec" evaluate natively on the decomposition; any other
	// name in the wsa registry ("reference", "translated") is an engine
	// override (store.QueryOpts), the one place a compiled query is
	// evaluated over enumerated worlds: the budget-guarded expansion of
	// the region the query depends on, with the output re-factorized and
	// the rest spliced back, counted in Stats like the comparison
	// engine's statements under the engine's name; the special name
	// "legacy" is the differential
	// reference for the bounded arm: nothing compiles, and every
	// statement (tuple-local DML included) runs through execBounded
	// with every component counted dependent — the full enumeration the
	// bounded splice must agree with.
	Engine string

	// span is the root of the current statement's trace. nil — the
	// default — disables tracing entirely (every instrumented call site
	// no-ops on the nil span). EXPLAIN ANALYZE and the server's
	// slow-query log set it around one statement via SetTrace.
	span *obs.Span
	// root is the trace root SetTrace (or EXPLAIN ANALYZE) attached —
	// the statement span, wherever span has descended to.
	root *obs.Span

	// boundedRows counts the rows the bounded arm's evaluator reads
	// tuple by tuple, summed over worlds: every select's pre-answer
	// (subqueries and derived tables included) and a DELETE's or
	// UPDATE's table. execBounded reports it on its span.
	boundedRows int64
}

// SetTrace attaches a trace root: subsequent statements record their
// stage and operator spans as children. Pass nil to disable.
func (s *Session) SetTrace(sp *obs.Span) { s.span, s.root = sp, sp }

// legacyEngine is the comparison engine's name (see Session.Engine).
const legacyEngine = "legacy"

// native reports whether the session takes the native arm where a
// statement allows it — false only for the comparison engine, whose
// every statement runs bounded over the whole world-set. Together with
// the one argument in execBounded that widens the region, this is
// all that distinguishes "legacy".
func (s *Session) native() bool { return s.Engine != legacyEngine }

// engineOp is the op the session's engine itself sends every statement
// to the bounded arm under: "" (no reason — the statement's own shape
// decides) unless the session runs the comparison engine.
func (s *Session) engineOp() (op string) {
	if !s.native() {
		op = legacyEngine // the comparison engine is its own reason to run bounded
	}
	return op
}

// NewSession returns a session over the empty complete database: one
// world with no relations.
func NewSession() *Session {
	return FromCatalog(store.New(nil))
}

// FromDB returns a session whose world-set is the singleton {A} for the
// given complete database.
func FromDB(names []string, rels []*relation.Relation) *Session {
	return FromCatalog(store.FromComplete(names, rels))
}

// FromWorldSet returns a session over an existing world-set, factorized
// into the catalog decomposition by wsd.Refactor.
func FromWorldSet(ws *worldset.WorldSet) *Session {
	db, err := wsd.Refactor(ws)
	if err != nil {
		panic(fmt.Sprintf("isql: refactoring the initial world-set: %v", err))
	}
	return FromCatalog(store.New(db))
}

// FromCatalog returns a session over a shared store catalog. Sessions
// are cheap: a server creates one per connection over one catalog.
func FromCatalog(cat *store.Catalog) *Session {
	return &Session{cat: cat, views: map[string]*SelectStmt{}}
}

// Catalog returns the session's backing catalog.
func (s *Session) Catalog() *store.Catalog { return s.cat }

// SaveCatalog persists the session's current catalog snapshot — the
// factored tables plus the view definitions — as a .wsd JSON file
// (space linear in the decomposition, whatever the world count).
func SaveCatalog(path string, s *Session) error {
	return store.SaveFile(path, s.cat.Snapshot())
}

// LoadCatalog opens a session over a catalog persisted with
// SaveCatalog.
func LoadCatalog(path string) (*Session, error) {
	cat, err := store.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return FromCatalog(cat), nil
}

// Worlds returns the exact number of worlds the session state
// represents, straight off the decomposition (the staging snapshot
// inside an open transaction).
func (s *Session) Worlds() *big.Int { return s.target().Snapshot().DB.Worlds() }

// WorldSet returns the session's current state as an explicit
// world-set, expanded from the catalog decomposition within the session
// budget. It returns nil when the represented world count exceeds the
// budget — at that scale use Catalog and the decomposition directly.
func (s *Session) WorldSet() *worldset.WorldSet {
	ws, err := s.target().Snapshot().DB.Expand(s.maxWorlds())
	if err != nil {
		return nil
	}
	return ws
}

// Views returns the names of registered views, sorted.
func (s *Session) Views() []string {
	snap := s.target().Snapshot()
	out := make([]string, 0, len(snap.Views))
	for n := range snap.Views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s *Session) maxWorlds() int {
	if s.MaxWorlds == 0 {
		return wsd.DefaultExpandBudget
	}
	return s.MaxWorlds
}

// snapshotForRead loads the current snapshot of the session's execution
// target (the staging snapshot inside an open transaction) and
// synchronizes the view parse cache to exactly that version, so a
// statement never compiles against a newer snapshot with an older view
// set (or vice versa) when other sessions commit concurrently.
func (s *Session) snapshotForRead() (*store.Snapshot, error) {
	snap := s.target().Snapshot()
	if err := s.refreshViewsFrom(snap); err != nil {
		return nil, err
	}
	return snap, nil
}

// refreshViewsFrom re-parses the given snapshot's view definitions when
// the cached version differs.
func (s *Session) refreshViewsFrom(snap *store.Snapshot) error {
	if s.viewsVersion == snap.Version && s.views != nil {
		return nil
	}
	views := make(map[string]*SelectStmt, len(snap.Views))
	for name, sql := range snap.Views {
		st, err := Parse(sql)
		if err != nil {
			return fmt.Errorf("isql: stored view %q does not parse: %w", name, err)
		}
		sel, ok := st.(*SelectStmt)
		if !ok {
			return fmt.Errorf("isql: stored view %q is not a select", name)
		}
		views[name] = sel
	}
	s.views = views
	s.viewsVersion = snap.Version
	return nil
}

// Result reports the outcome of executing a statement.
type Result struct {
	// Answers holds, for a select, the distinct answer relations across
	// worlds in deterministic order (a 1↦1 query yields exactly one).
	Answers []*relation.Relation
	// Decomp is the factored catalog state after the statement; for a
	// select on the native arm, that state extended with the answer
	// relation (named $ans), and on the bounded arm the state the select
	// read (its answers are in Answers only). Never an explicit
	// world-set: expand it (or call Session.WorldSet) on demand.
	Decomp *wsd.DecompDB
	// Affected counts modified tuples per world summed over worlds for
	// DML statements, saturating at the integer limit (the catalog can
	// represent more worlds than fit an int).
	Affected int
	// Plan records how a compiled statement was evaluated (nil when the
	// statement did not compile: DML, DDL and the bounded arm).
	Plan *wsdexec.Plan
	// Message is a human-readable status for statements whose effect is
	// not catalog state (e.g. "prepared q1").
	Message string
}

// answerName is the name of a select's answer relation in Result
// world-sets (shared with the wsa engines' convention).
const answerName = "$ans"

// ExecString parses and executes one statement.
func (s *Session) ExecString(sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.Exec(st)
}

// ExecScript parses and executes a semicolon-separated script, returning
// the result of the last statement.
func (s *Session) ExecScript(sql string) (*Result, error) {
	stmts, err := ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		if last, err = s.Exec(st); err != nil {
			return nil, fmt.Errorf("executing %q: %w", st, err)
		}
	}
	return last, nil
}

// Exec executes a statement against the session. Select statements do
// not modify the session; DML, create and drop statements commit a new
// catalog version. Each execution path synchronizes the view cache to
// the exact snapshot it evaluates against (the latest committed version
// under the writer lock, for statements that write).
func (s *Session) Exec(st Statement) (*Result, error) {
	switch n := st.(type) {
	case *SelectStmt:
		return s.execSelect(n)
	case *CreateTableAsStmt:
		return s.execCreateTableAs(n)
	case *CreateViewStmt:
		return s.execCreateView(n)
	case *CreateTableStmt:
		return s.execCreateTable(n)
	case *DropTableStmt:
		return s.execDropTable(n)
	case *InsertStmt:
		return s.execInsert(n)
	case *DeleteStmt:
		return s.execDelete(n)
	case *UpdateStmt:
		return s.execUpdate(n)
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return s.execTxnControl(st)
	case *PrepareStmt:
		return s.execPrepare(n)
	case *ExecuteStmt:
		return s.execExecute(n)
	case *ExplainStmt:
		return s.execExplain(n)
	}
	return nil, fmt.Errorf("isql: unsupported statement %T", st)
}

// updateRouted wraps the execution target's UpdateRouted with a commit
// span: when the session carries a trace, the store's WAL delta, group
// commit queue wait and fsync attach under it via
// Tx.SetTrace. The statement's own spans inside the closure (a CTAS
// compiles and evaluates there, under the writer) nest below it too —
// the span stands for the whole staged write, not just the publish.
func (s *Session) updateRouted(refs []string, fn func(*store.Tx) error) error {
	sp := s.span.Child("commit")
	prev := s.span
	s.span = sp
	defer func() {
		s.span = prev
		sp.End()
	}()
	return s.target().UpdateRouted(refs, func(tx *store.Tx) error {
		tx.SetTrace(sp)
		return fn(tx)
	})
}

// execSelect evaluates a select: natively on the snapshot decomposition
// when the statement compiles to the clean WSA fragment, through the
// bounded arm (execBounded) otherwise — see compileArm.
func (s *Session) execSelect(sel *SelectStmt) (*Result, error) {
	return s.execSelectWith(sel, nil, nil)
}

// execSelectWith is execSelect with an optional prepared-statement
// entry supplying a memoized compiled plan (skipping analysis and
// compilation when the schema fingerprint still matches) plus the
// EXECUTE arguments to bind into it. Parameterized prepared selects
// stay on the fast path: the cached plan carries parameter slots and
// the arguments bind into it per call (wsa.BindParams), never
// recompiling or re-running the rewrite search.
func (s *Session) execSelectWith(sel *SelectStmt, pre *Prepared, args []value.Value) (*Result, error) {
	if pre == nil {
		// Outside EXECUTE there is nothing to bind a placeholder with —
		// reject on the statement tree, before either execution path (the
		// bounded arm could otherwise short-circuit past the unbound slot
		// and silently answer).
		if p := maxParam(sel); p > 0 {
			return nil, fmt.Errorf("isql: unbound parameter $%d (bind it with execute)", p)
		}
	}
	snap, err := s.snapshotForRead()
	if err != nil {
		return nil, err
	}
	if s.txn != nil {
		// Record the relations this select reads (views expanded): their
		// shards join commit-time validation, so read-write transactions
		// stay serializable, not just write-consistent.
		refs := map[string]bool{}
		s.stmtRelations(sel, refs)
		s.txn.MarkReads(refs)
	}
	q, opts, op, err := s.compileArm(snap, sel, pre, args)
	if err != nil {
		return nil, err
	}
	if q != nil {
		xsp := s.span.Child("exec")
		opts.Trace = xsp
		out, plan, err := store.QueryOpts(snap, s.Engine, q, opts)
		if plan != nil {
			xsp.SetInt("merges", int64(len(plan.Merges)))
			if plan.Native {
				xsp.Set("path", "native")
			} else {
				xsp.Set("path", "override:"+s.Engine)
			}
		}
		xsp.End()
		if err != nil {
			return nil, err
		}
		s.Stats.recordPlan(plan, s.Engine)
		answers, err := out.Instances(len(out.Names)-1, s.maxWorlds())
		if err != nil {
			return nil, err
		}
		return &Result{Answers: answers, Decomp: out, Plan: plan}, nil
	}
	// The world-at-a-time evaluator needs a fully bound statement tree.
	if len(args) > 0 {
		sel = bindStmt(sel, args).(*SelectStmt)
	}
	return s.execBounded(nil, snap.DB, sel, op, func(ws *worldset.WorldSet) (*worldset.WorldSet, int, error) {
		out, err := s.evalSelect(sel, ws, nil)
		return out, 0, err
	})
}

// compileArm is the one decision a select-shaped statement — a select,
// or the query of a create-table-as — takes between the two arms. For
// the native arm it returns sel compiled against snap (pre's memoized
// plan with args bound into it, under EXECUTE) and the options to
// evaluate the plan with. A nil plan sends the caller to the bounded
// arm, accounted under the returned op: the fragment feature
// compilation refused, or the comparison engine. Genuine compile errors
// (unknown relations or columns) surface directly — falling back would
// bury a typo under a BudgetError on a large catalog.
func (s *Session) compileArm(snap *store.Snapshot, sel *SelectStmt, pre *Prepared, args []value.Value) (wsa.Expr, *wsdexec.Options, string, error) {
	if op := s.engineOp(); op != "" {
		return nil, nil, op, nil
	}
	var q wsa.Expr
	var err error
	opts := &wsdexec.Options{ExpandBudget: s.maxWorlds()}
	csp := s.span.Child("compile")
	if pre != nil {
		// Cached plans are prelowered at compile time; skip the
		// per-request rewrite search.
		before := pre.Compiles()
		q, err = pre.planFor(s, snap)
		csp.Set("plan-cache", cacheLabel(pre.Compiles() == before))
		opts.NoRewrite = true
		if err == nil {
			q, err = pre.bindPlan(q, args)
		}
	} else {
		q, err = s.compileOn(snap.DB.Names, snap.DB.Schemas, sel)
	}
	csp.End()
	if op := fragmentOp(err); op != "" {
		return nil, nil, op, nil
	}
	if err != nil {
		return nil, nil, "", err
	}
	return q, opts, "", nil
}

func (s *Session) execCreateTableAs(n *CreateTableAsStmt) (*Result, error) {
	if p := maxParam(n.Query); p > 0 {
		return nil, fmt.Errorf("isql: unbound parameter $%d (bind it with execute)", p)
	}
	var res *Result
	err := s.updateRouted(nil, func(tx *store.Tx) error {
		tx.Log(n.String())
		if err := s.refreshViewsFrom(tx.Snap()); err != nil {
			return err
		}
		if tx.Snap().HasRelation(n.Name) {
			return fmt.Errorf("isql: relation %q already exists", n.Name)
		}
		q, opts, op, err := s.compileArm(tx.Snap(), n.Query, nil, nil)
		if err != nil {
			return err
		}
		if q != nil {
			xsp := s.span.Child("exec")
			opts.Trace = xsp
			out, plan, err := store.QueryOpts(tx.Snap(), s.Engine, q, opts)
			xsp.End()
			if err != nil {
				return err
			}
			s.Stats.recordPlan(plan, s.Engine)
			db := out.RenameRelation(len(out.Names)-1, n.Name).Normalize()
			tx.SetDB(db)
			res = &Result{Decomp: db, Plan: plan}
			return nil
		}
		res, err = s.execBounded(tx, tx.Snap().DB, n, op, func(ws *worldset.WorldSet) (*worldset.WorldSet, int, error) {
			out, err := s.evalSelect(n.Query, ws, nil)
			if err != nil {
				return nil, 0, err
			}
			return wsa.RenameLast(out, n.Name), 0, nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Session) execCreateView(n *CreateViewStmt) (*Result, error) {
	if p := maxParam(n.Query); p > 0 {
		// A stored view must be self-contained: there is no EXECUTE to
		// bind its placeholders when a later statement expands it.
		return nil, fmt.Errorf("isql: view body holds unbound parameter $%d", p)
	}
	var res *Result
	err := s.updateRouted(nil, func(tx *store.Tx) error {
		tx.Log(n.String())
		snap := tx.Snap()
		if err := s.refreshViewsFrom(snap); err != nil {
			return err
		}
		if snap.HasRelation(n.Name) {
			return fmt.Errorf("isql: relation %q already exists", n.Name)
		}
		// Validate the view body against the current schema by static
		// analysis (name resolution, arity, subquery classification).
		if _, err := s.analyzeSelect(n.Query, snap.DB.Names, snap.DB.Schemas, nil); err != nil {
			return fmt.Errorf("isql: invalid view %q: %w", n.Name, err)
		}
		tx.SetView(n.Name, n.Query.String())
		res = s.stateResult(tx.DB())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Session) execCreateTable(n *CreateTableStmt) (*Result, error) {
	var res *Result
	err := s.updateRouted(nil, func(tx *store.Tx) error {
		tx.Log(n.String())
		if tx.Snap().HasRelation(n.Name) {
			return fmt.Errorf("isql: relation %q already exists", n.Name)
		}
		db := tx.DB().WithRelation(n.Name, relation.NewSchema(n.Columns...), nil)
		tx.SetDB(db)
		res = s.stateResult(db)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Session) execDropTable(n *DropTableStmt) (*Result, error) {
	var res *Result
	err := s.updateRouted(nil, func(tx *store.Tx) error {
		tx.Log(n.String())
		db := tx.DB()
		idx := db.IndexOf(n.Name)
		if idx < 0 {
			if _, ok := tx.Views()[n.Name]; ok {
				tx.DropView(n.Name)
				res = s.stateResult(db)
				return nil
			}
			return fmt.Errorf("isql: unknown relation %q", n.Name)
		}
		next := db.DropRelation(idx).Normalize()
		tx.SetDB(next)
		res = s.stateResult(next)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// stateResult packages the post-statement catalog state. Write
// statements do not materialize worlds — the factored state is in
// Decomp, and Session.WorldSet expands on demand.
func (s *Session) stateResult(db *wsd.DecompDB) *Result {
	return &Result{Decomp: db}
}

func (s *Session) execInsert(n *InsertStmt) (*Result, error) {
	if err := firstUnboundParam(n.Params); err != nil {
		return nil, err
	}
	var res *Result
	err := s.updateRouted([]string{n.Table}, func(tx *store.Tx) error {
		tx.Log(n.String())
		db := tx.DB()
		idx := db.IndexOf(n.Table)
		if idx < 0 {
			return fmt.Errorf("isql: unknown relation %q", n.Table)
		}
		schema := db.Schemas[idx]
		for _, row := range n.Rows {
			if len(row) != len(schema) {
				return fmt.Errorf("isql: insert arity %d does not match schema %v", len(row), schema)
			}
		}
		// Inserting makes a tuple certain. The world-weighted affected
		// count is the number of worlds the tuple was absent from,
		// computed on the decomposition without enumeration.
		rows := make([]relation.Tuple, len(n.Rows))
		for i, row := range n.Rows {
			rows[i] = relation.Tuple(row).Clone()
		}
		worlds := db.Worlds()
		affected := new(big.Int)
		var delta big.Int
		for _, t := range tx.InsertCertain(idx, rows) {
			delta.Sub(worlds, db.PresenceCount(idx, t))
			affected.Add(affected, &delta)
		}
		res = s.stateResult(tx.DB())
		res.Affected = satInt(affected)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Session) execDelete(n *DeleteStmt) (*Result, error) {
	return s.execMutation(n, n.Table, []Expr{n.Where}, nil,
		func(ctx *evalCtx, t relation.Tuple) (relation.Tuple, bool, error) {
			if n.Where != nil {
				ctx.tuple = t
				match, err := ctx.evalBool(n.Where)
				if err != nil || !match {
					return t, false, err
				}
			}
			return nil, true, nil
		})
}

func (s *Session) execUpdate(n *UpdateStmt) (*Result, error) {
	exprs := []Expr{n.Where}
	for _, sc := range n.Sets {
		exprs = append(exprs, sc.Expr)
	}
	var setIdx []int
	return s.execMutation(n, n.Table, exprs,
		func(schema relation.Schema) error {
			setIdx = make([]int, len(n.Sets))
			for i, sc := range n.Sets {
				j := schema.Index(sc.Col.Full())
				if j < 0 {
					return fmt.Errorf("isql: unknown column %q in update", sc.Col.Full())
				}
				setIdx[i] = j
			}
			return nil
		},
		func(ctx *evalCtx, t relation.Tuple) (relation.Tuple, bool, error) {
			ctx.tuple = t
			if n.Where != nil {
				match, err := ctx.evalBool(n.Where)
				if err != nil || !match {
					return t, false, err
				}
			}
			nt := t.Clone()
			for i, sc := range n.Sets {
				v, err := ctx.evalExpr(sc.Expr)
				if err != nil {
					return nil, false, err
				}
				nt[setIdx[i]] = v
			}
			return nt, true, nil
		})
}

// tupleRule is a DELETE's or UPDATE's meaning on one tuple of its
// table, with ctx.schema the table's: it returns the replacement tuple
// (nil to drop it) and whether the statement touched the tuple.
type tupleRule func(ctx *evalCtx, t relation.Tuple) (relation.Tuple, bool, error)

// execMutation is the shared entry of DELETE and UPDATE. It locates the
// table, resolves the names (and rejects unbound placeholders) in exprs
// — the statement's where and set expressions — against the table's
// schema before touching data, so a typo fails the same on an empty
// table as on a full one, and applies rule through one of the two arms.
// Tuple-local expressions distribute over the decomposition's pieces:
// the native arm maps rule over the certain and alternative
// contributions of the relation and weights the touched pre-tuples by
// their world presence, no enumeration. A subquery needs a world to
// resolve in: the bounded arm maps rule over the table in each world of
// the bounded input, with ctx.world set.
func (s *Session) execMutation(st Statement, table string, exprs []Expr,
	prepare func(relation.Schema) error, rule tupleRule) (*Result, error) {
	op := s.engineOp() // "" is the native arm
	if p := maxParam(st); p > 0 {
		return nil, fmt.Errorf("isql: unbound parameter $%d (bind it with execute)", p)
	}
	if hasSubquery(st) {
		op = "expression subquery"
	}
	// A native mutation commits through its table's shards alone; what a
	// bounded one re-factorizes is only known once it ran.
	var route []string
	if op == "" {
		route = []string{table}
	}
	var res *Result
	err := s.updateRouted(route, func(tx *store.Tx) error {
		tx.Log(st.String())
		if err := s.refreshViewsFrom(tx.Snap()); err != nil {
			return err
		}
		db := tx.DB()
		idx := db.IndexOf(table)
		if idx < 0 {
			return fmt.Errorf("isql: unknown relation %q", table)
		}
		schema := db.Schemas[idx]
		if prepare != nil {
			if err := prepare(schema); err != nil {
				return err
			}
		}
		info := &selectInfo{correlated: map[*SelectStmt]bool{}}
		for _, e := range exprs {
			if e == nil {
				continue
			}
			if err := s.checkExpr(e, info, []relation.Schema{schema}, db.Names, db.Schemas); err != nil {
				return err
			}
		}
		if op != "" {
			var err error
			res, err = s.execBounded(tx, db, st, op, func(ws *worldset.WorldSet) (*worldset.WorldSet, int, error) {
				// The region's worlds hold its relation closure, not the
				// catalog: the table sits at its own index there.
				out, modified, li := worldset.New(ws.Names(), ws.Schemas()), 0, ws.IndexOf(table)
				cols := map[*ColExpr]colSlot{}
				var evalErr error
				ws.Each(func(w worldset.World) {
					if evalErr != nil {
						return
					}
					s.boundedRows += int64(w[li].Len())
					ctx := &evalCtx{session: s, world: w, names: ws.Names(), schemas: ws.Schemas(), schema: schema, cols: cols}
					nw := append(worldset.World{}, w...)
					nw[li], evalErr = mapTuples(ctx, w[li], rule, func(relation.Tuple) { modified++ })
					out.Add(nw)
				})
				return out, modified, evalErr
			})
			return err
		}
		ctx := &evalCtx{session: s, schema: schema}
		touched := relation.New(schema)
		next, err := db.MapRelation(idx, func(r *relation.Relation) (*relation.Relation, error) {
			return mapTuples(ctx, r, rule, func(t relation.Tuple) { touched.Insert(t) })
		})
		if err != nil {
			return err
		}
		affected := new(big.Int)
		touched.Each(func(t relation.Tuple) { affected.Add(affected, db.PresenceCount(idx, t)) })
		next = next.Normalize()
		tx.SetDB(next)
		res = s.stateResult(next)
		res.Affected = satInt(affected)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// mapTuples applies rule to every tuple of r — one piece of the table
// on the native arm, the table's instance in one world on the bounded
// arm — and returns the rewritten relation, reporting each touched
// pre-state tuple to hit.
func mapTuples(ctx *evalCtx, r *relation.Relation, rule tupleRule, hit func(relation.Tuple)) (*relation.Relation, error) {
	nr := relation.New(ctx.schema)
	var evalErr error
	r.Each(func(t relation.Tuple) {
		if evalErr != nil {
			return
		}
		nt, touched, err := rule(ctx, t)
		if err != nil {
			evalErr = err
			return
		}
		if touched {
			hit(t)
		}
		if nt != nil {
			nr.Insert(nt)
		}
	})
	return nr, evalErr
}

// cacheLabel names a plan-cache outcome for trace attributes.
func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// satInt converts a world-weighted count to an int, saturating.
func satInt(b *big.Int) int {
	if b.IsInt64() {
		if i := b.Int64(); i <= math.MaxInt {
			return int(i)
		}
	}
	return math.MaxInt
}

// isFragmentError reports whether an error marks a statement as merely
// outside the clean WSA fragment (fall back) rather than wrong (fail).
func isFragmentError(err error) bool {
	var fe *fragmentError
	return errors.As(err, &fe)
}

// hasSubquery reports whether a DELETE or UPDATE holds a subquery in
// any position — the statically detectable reason its predicate or SET
// cannot be evaluated tuple-locally on the decomposition pieces.
func hasSubquery(st Statement) bool {
	found := false
	walkStmt(st, func(node any) bool {
		_, sub := node.(*SelectStmt)
		found = found || sub
		return !found
	})
	return found
}
