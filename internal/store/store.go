// Package store is the decomposition-native catalog: named tables
// backed by a multi-relation world-set decomposition (wsd.DecompDB)
// with copy-on-write snapshots under MVCC-style versioning. It is the
// session state the paper's decompose → query → recompose loop runs on:
// data stays factored across statements, queries evaluate against an
// immutable catalog version, and writers commit new versions atomically.
//
// # Concurrency model
//
// A Catalog holds an atomically swapped pointer to the current
// Snapshot. Readers call Snapshot and evaluate against it for as long
// as they like — wait-free, never blocked by writers, and guaranteed a
// consistent catalog version (relations inside a snapshot are immutable
// by convention, enforced by the copy-on-write editing operations of
// wsd.DecompDB). Writers go through UpdateRouted (Update when they have
// no routing information), which stages a transaction against the
// latest state of the shards it touches and publishes it as a new
// version; the version chain gives concurrent I-SQL sessions
// (cmd/isqld) snapshot isolation with a single atomic pointer load per
// statement.
//
// # Queries
//
// Query evaluates a compiled World-set Algebra expression against a
// snapshot through any engine in the wsa registry, preferring the
// factorized wsdexec engine, which runs directly on the decomposition.
// Registry engines that need explicit world-sets get a budget-guarded
// expansion (surfacing wsd.BudgetError, the same error shape the
// session and Expand report) and their output is re-factorized with
// wsd.Refactor, so even a fallback step hands the next statement a
// decomposition, not an enumeration.
//
// # One write path
//
// The catalog is always partitioned into n ≥ 1 component shards (New
// is NewSharded(db, 1)), each with its own version chain, writer lock,
// group-commit queue and WAL segment, and there is exactly one way a
// staged version becomes durable and reader-visible: one WAL record and
// one fsync per commit — through the shard's group-commit queue when
// the commit has one participant shard, on the coordinator (lowest
// participant) segment under every participant's lock when it has
// several.
// Commits touching disjoint shards run fully in parallel, and readers
// always get one wait-free merged Snapshot. See shard.go for the
// routing, epoch and publish rules.
//
// A commit validates, publishes and logs only what it touched. A staged
// transaction (Staged) is validated per relation — each relation it
// read or may write against that relation's home-shard head, by
// pointer identity of the certain part and stable ID and shape of the
// contributing components — so writers on different relations never
// conflict, on one shard or many; a transaction that passes is overlaid
// onto the head. A routed commit publishes and logs just the relations
// of its component closure, and an INSERT staged through
// Tx.InsertCertain carries its exact edit, so its WAL patch costs the
// rows inserted, not a diff of the relation.
//
// # One way to be durable
//
// Open is the only constructor of a durable catalog: it seeds a fresh
// directory or recovers one that holds state, from one page-file
// checkpoint plus per-shard WAL segments, by patching logged page
// deltas — and refuses, with a *RecoveryError, state it cannot
// reproduce exactly. Checkpoint bounds the replay work. The .wsd JSON
// document of persist.go is import/export only. See wal.go.
package store

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

// Snapshot is one immutable catalog version: the decomposition holding
// every named table, plus the view definitions (name → select text).
// Neither the decomposition nor the view map may be mutated; editing
// happens by committing a new version through Catalog.Update.
type Snapshot struct {
	// Version is the highest commit epoch published so far. Epochs are
	// global across shards, so it stays monotone even though shards
	// publish independently; on a one-shard catalog it increases by one
	// per committed transaction.
	Version uint64
	// DB is the decomposition backing all named tables.
	DB *wsd.DecompDB
	// Views maps view names to their I-SQL select text.
	Views map[string]string

	// shardVers records per shard the epoch of the newest commit included
	// in this snapshot — what a commit staged on it logs as its prev link
	// for recovery to check. Its length is the owning catalog's shard
	// count; nil on the private staging snapshots of a Staged
	// transaction.
	shardVers []uint64
	// compID is the catalog's component ID counter at publication.
	// Checkpoints persist it so recovery resumes ID assignment exactly
	// where the writer left off — WAL page-delta records address
	// components by ID, so replay must reproduce the same assignments.
	compID uint64

	// fp memoizes SchemaFingerprint.
	fpOnce sync.Once
	fp     uint64
}

// SchemaFingerprint digests everything select compilation reads from a
// snapshot: relation names, their attribute lists, and the view
// definitions. Data edits leave it unchanged — prepared plans survive
// DML — while DDL and view changes move it. The snapshot is immutable,
// so the digest is computed on first use and a plan-cache hit costs the
// same however many relations the catalog holds.
func (s *Snapshot) SchemaFingerprint() uint64 {
	s.fpOnce.Do(func() {
		h := fnv.New64a()
		for i, name := range s.DB.Names {
			fmt.Fprintf(h, "%q(", name)
			for _, a := range s.DB.Schemas[i] {
				fmt.Fprintf(h, "%q,", a)
			}
			h.Write([]byte{')'})
		}
		views := make([]string, 0, len(s.Views))
		for name, sql := range s.Views {
			views = append(views, name+"\x00"+sql)
		}
		sort.Strings(views)
		for _, v := range views {
			fmt.Fprintf(h, "%q;", v)
		}
		s.fp = h.Sum64()
	})
	return s.fp
}

// Stats returns the decomposition statistics of the snapshot's backing
// DB — per-relation certain/alternative cardinality, component counts,
// and the alternatives-per-component histogram. Commit paths normalize
// the decomposition, which pre-fills the cache, so this is a pointer
// load for any snapshot the catalog published; seeds that skipped
// Normalize compute once, lazily, and cache.
func (s *Snapshot) Stats() *wsd.Stats { return s.DB.Stats() }

// HasRelation reports whether a table or view of that name exists.
func (s *Snapshot) HasRelation(name string) bool {
	if _, ok := s.Views[name]; ok {
		return true
	}
	return s.DB.IndexOf(name) >= 0
}

// Catalog is a versioned, concurrently readable store of named tables
// backed by a world-set decomposition, partitioned into one or more
// component shards (shard.go). The zero value is not usable; construct
// with New or NewSharded.
//
// Readers only ever see durable versions: cur advances after a commit's
// WAL record is fsynced, while writers chain on their shard's head, the
// newest assigned version.
type Catalog struct {
	cur atomic.Pointer[Snapshot]

	shards []*shardState
	epoch  atomic.Uint64 // global commit epoch counter
	pub    sync.Mutex    // serializes merged-snapshot publication
	compID atomic.Uint64 // component ID counter

	// pager, on a durable catalog (Open attaches it), is the paged
	// checkpoint file — one at every shard count; Checkpoint writes
	// incrementally through it.
	pager *PageStore
}

// New returns a one-shard catalog whose first version holds the given
// decomposition. A nil db means the empty complete database (one world,
// no relations). The decomposition is adopted, not copied: the caller
// must not mutate it afterwards.
func New(db *wsd.DecompDB) *Catalog { return NewSharded(db, 1) }

// newCatalog builds a one-shard catalog publishing snap as its current
// version, with the component ID counter resumed from a persisted
// checkpoint (0 for a fresh catalog) so IDs assigned after recovery
// continue the pre-crash sequence.
func newCatalog(snap *Snapshot, compID uint64) *Catalog {
	c := &Catalog{}
	c.compID.Store(compID)
	c.cur.Store(snap)
	c.shard(1)
	return c
}

// assignIDs gives every component a stable ID: first the counter is
// raised past every ID already present (two passes — a fresh component
// ordered before a high-ID survivor must not be assigned a colliding
// ID), then unassigned components get fresh ones in order. Safe under
// any of the commit locks; the counter is atomic so commits on
// different shards never race it.
func (c *Catalog) assignIDs(db *wsd.DecompDB) {
	for i := range db.Components {
		c.raiseCompID(db.Components[i].ID)
	}
	for i := range db.Components {
		if db.Components[i].ID == 0 {
			db.Components[i].ID = c.compID.Add(1)
		}
	}
}

// raiseCompID raises the component ID counter to at least id.
func (c *Catalog) raiseCompID(id uint64) {
	for {
		cur := c.compID.Load()
		if id <= cur || c.compID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// FromComplete returns a catalog over the singleton world-set of a
// complete database.
func FromComplete(names []string, rels []*relation.Relation) *Catalog {
	return New(wsd.FromComplete(names, rels))
}

// Snapshot returns the current catalog version. Wait-free; the result
// is immutable and remains valid (and consistent) regardless of later
// commits.
func (c *Catalog) Snapshot() *Snapshot { return c.cur.Load() }

// Tx is a single-writer transaction: staged edits against the latest
// state of the shards it holds. Obtain one through Update/UpdateRouted.
type Tx struct {
	base  *Snapshot
	db    *wsd.DecompDB     // staged decomposition; nil = unchanged
	views map[string]string // staged view map; nil = unchanged
	stmts []string          // statement records for the commit log
	trace *obs.Span         // commit trace root; nil = tracing off
	ins   certEdits         // exact certain edits of db against base.DB
}

// Log records the statement text that produced the staged edits, so a
// commit logger (WAL) can persist the transaction as replayable
// statements. Call once per executed statement.
func (tx *Tx) Log(stmt string) { tx.stmts = append(tx.stmts, stmt) }

// SetTrace attaches a span the commit machinery annotates with its
// durability stages (group-commit queue wait, WAL fsync). nil leaves
// the commit untraced.
func (tx *Tx) SetTrace(sp *obs.Span) { tx.trace = sp }

// Trace returns the attached commit span (nil when untraced).
func (tx *Tx) Trace() *obs.Span { return tx.trace }

// Snap returns the snapshot the transaction started from (the latest
// committed version; no writer can interleave).
func (tx *Tx) Snap() *Snapshot { return tx.base }

// DB returns the staged decomposition, or the base snapshot's if none
// was staged yet. Callers must treat it as immutable and stage changes
// with SetDB.
func (tx *Tx) DB() *wsd.DecompDB {
	if tx.db != nil {
		return tx.db
	}
	return tx.base.DB
}

// Views returns the staged view map (base snapshot's when unchanged).
// Callers must not mutate it.
func (tx *Tx) Views() map[string]string {
	if tx.views != nil {
		return tx.views
	}
	return tx.base.Views
}

// SetDB stages a new decomposition for commit. Edits recorded by
// InsertCertain survive for the relations db leaves as they were; a
// commit finds any other change by diffing.
func (tx *Tx) SetDB(db *wsd.DecompDB) {
	tx.ins = tx.ins.extend(tx.base.DB, tx.DB(), db, nil)
	tx.db = db
}

// InsertCertain stages the insertion of ts into the certain part of
// relation i (an index into DB()) through wsd.DecompDB.InsertCertain:
// only the components contributing to a relation that grew are
// re-normalized, everything else is shared with the staged state, and
// the exact edit — ts plus whatever a collapsing component folds into
// any relation — is recorded, so the commit logs it as a patch without
// diffing the relations. It returns the tuples relation i gained (those
// already certain are skipped). ts must not be mutated afterwards.
func (tx *Tx) InsertCertain(i int, ts []relation.Tuple) []relation.Tuple {
	prev := tx.DB()
	next, added := prev.InsertCertain(i, ts)
	tx.ins = tx.ins.extend(tx.base.DB, prev, next, added)
	tx.db = next
	return added[i]
}

// SetView stages a view definition.
func (tx *Tx) SetView(name, sql string) {
	tx.cowViews()
	tx.views[name] = sql
}

// DropView stages the removal of a view.
func (tx *Tx) DropView(name string) {
	tx.cowViews()
	delete(tx.views, name)
}

func (tx *Tx) cowViews() {
	if tx.views == nil {
		tx.views = make(map[string]string, len(tx.base.Views)+1)
		for k, v := range tx.base.Views {
			tx.views[k] = v
		}
	}
}

// Update is UpdateRouted without routing information: the commit may
// touch anything, so it serializes against every shard (DDL, CTAS, view
// changes and legacy DML do).
func (c *Catalog) Update(fn func(*Tx) error) error { return c.UpdateRouted(nil, fn) }

// Query evaluates a compiled World-set Algebra query against the
// snapshot and returns the snapshot's decomposition extended with the
// answer relation (named wsa.AnswerName), plus the plan describing how
// it ran. An empty engine name (or "wsdexec") runs the factorized
// engine natively on the decomposition. Any other name from the wsa
// engine registry evaluates on the explicit worlds of the region the
// query's relations depend on (wsd.Region, budget-guarded, 0 = default)
// — the enumeration the factorized engine's own fallback takes — and
// the result is re-factorized with the components outside the region
// spliced back, so the catalog stays decomposed whichever engine
// answered.
func Query(snap *Snapshot, engine string, q wsa.Expr, budget int) (*wsd.DecompDB, *wsdexec.Plan, error) {
	return QueryOpts(snap, engine, q, &wsdexec.Options{ExpandBudget: budget})
}

// QueryOpts is Query with explicit factorized-engine options — the
// prepared-statement path passes NoRewrite because its cached plans are
// already prelowered at compile time, so per-request evaluation skips
// the rewrite search entirely.
func QueryOpts(snap *Snapshot, engine string, q wsa.Expr, opt *wsdexec.Options) (*wsd.DecompDB, *wsdexec.Plan, error) {
	if engine == "" || engine == "wsdexec" {
		return wsdexec.EvalOpts(q, snap.DB, opt)
	}
	plan := &wsdexec.Plan{
		FallbackOp:     "engine override",
		FallbackEngine: engine,
		InputWorlds:    snap.DB.Worlds(),
	}
	budget := 0
	if opt != nil {
		budget = opt.ExpandBudget
	}
	region := wsd.RegionOf(snap.DB, wsa.Relations(q), false)
	ws, err := region.Enumerate(budget)
	if err != nil {
		return nil, nil, fmt.Errorf("store: engine %q needs explicit worlds: %w", engine, err)
	}
	out, err := wsa.EvalWith(engine, q, ws)
	if err != nil {
		return nil, nil, err
	}
	db, err := region.Refactor(out)
	if err != nil {
		return nil, nil, err
	}
	return db, plan, nil
}
