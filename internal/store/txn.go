package store

import (
	"fmt"
	"maps"
	"sort"

	"worldsetdb/internal/wsd"
)

// Staged is a multi-statement transaction: a private chain of staging
// snapshots built from one base catalog version. Statements inside the
// transaction read and write the staging chain only; concurrent readers
// of the catalog keep seeing the pre-transaction version until Commit
// publishes the whole chain as one new catalog version. Obtain one
// through Begin.
//
// Concurrency control is optimistic, first-committer-wins at relation
// granularity: Begin takes no locks, and Commit publishes only if
// nothing the transaction read or wrote moved since Begin — otherwise
// it fails with *ConflictError and nothing is published (the catalog
// behaves as if the transaction never ran). Commits on other relations
// since Begin are not conflicts, whatever shard they live on. A Staged
// value is single-goroutine, like the session that owns it.
type Staged struct {
	cat   *Catalog
	base  *Snapshot // catalog version the transaction started from
	cur   *Snapshot // head of the private staging chain
	stmts []string  // statement records for the commit log
	done  bool

	// The validation set: the relations the transaction read and wrote,
	// and whether any statement had no routing information (DDL, CTAS,
	// bounded DML, a view or schema change — validates the whole
	// snapshot and commits against every shard).
	reads  map[string]bool
	writes map[string]bool
	all    bool

	// ins are the exact certain-part edits of the chain relative to base
	// (see certEdits); a routed commit logs them as patches without
	// diffing the relations.
	ins certEdits
}

// ConflictError reports an optimistic-concurrency failure: something the
// transaction read or wrote moved between Begin and Commit. Relation and
// Component name what moved, and the commit is counted as a conflict on
// that relation's home shard.
type ConflictError struct {
	Base    uint64 // catalog version the transaction started from
	Current uint64 // version of the state the commit validated against
	// Relation is the relation whose certain part or contributing
	// components moved; empty when the schema or the views changed (a
	// DDL or view change since Begin conflicts with every transaction).
	Relation string
	// Component is the ID of the component that moved (appeared,
	// changed or disappeared among those contributing to Relation); 0
	// when the relation's certain part did.
	Component uint64
}

func (e *ConflictError) Error() string {
	what := "the schema or the views changed"
	switch {
	case e.Component != 0 && e.Relation != "":
		what = fmt.Sprintf("component %d of relation %q changed", e.Component, e.Relation)
	case e.Component != 0:
		what = fmt.Sprintf("component %d changed", e.Component)
	case e.Relation != "":
		what = fmt.Sprintf("relation %q changed", e.Relation)
	}
	return fmt.Sprintf("store: transaction conflict: %s since version %d (catalog is now at version %d)", what, e.Base, e.Current)
}

// errTxnDone guards against use after Commit/Rollback.
var errTxnDone = fmt.Errorf("store: transaction already committed or rolled back")

// Begin starts a staged transaction from the latest committed version.
func (c *Catalog) Begin() *Staged {
	base := c.cur.Load()
	return &Staged{cat: c, base: base, cur: base}
}

// Snapshot returns the transaction's current staging snapshot: the base
// version plus every statement staged so far. Private to the
// transaction; other readers never see it before Commit.
func (s *Staged) Snapshot() *Snapshot { return s.cur }

// Base returns the committed snapshot the transaction started from.
func (s *Staged) Base() *Snapshot { return s.base }

// UpdateRouted is Update with routing information, mirroring
// Catalog.UpdateRouted so session statements execute identically inside
// and outside a transaction: refs names the relations the statement
// touches (recorded as the transaction's write set, validated at
// Commit); nil means the statement has no routing information and the
// commit will validate the whole snapshot.
func (s *Staged) UpdateRouted(refs []string, fn func(*Tx) error) error {
	if refs == nil {
		s.all = true
	} else {
		if s.writes == nil {
			s.writes = map[string]bool{}
		}
		for _, r := range refs {
			s.writes[r] = true
		}
	}
	return s.Update(fn)
}

// MarkReads records relations a statement inside the transaction read
// (selects). They join the commit-time validation set, so the
// transaction stays serializable: its reads are revalidated at the
// commit point, not just its writes.
func (s *Staged) MarkReads(refs map[string]bool) {
	if len(refs) == 0 {
		return
	}
	if s.reads == nil {
		s.reads = map[string]bool{}
	}
	for r := range refs {
		s.reads[r] = true
	}
}

// Update runs fn against the staging head and, if it staged anything,
// extends the private chain with a new staging snapshot. Nothing is
// published to the catalog; versions on the chain are private
// monotonically increasing numbers used by per-statement caches. The
// signature matches Catalog.Update so session statements execute
// identically inside and outside a transaction.
func (s *Staged) Update(fn func(*Tx) error) error {
	if s.done {
		return errTxnDone
	}
	tx := &Tx{base: s.cur}
	if err := fn(tx); err != nil {
		return err
	}
	if tx.db == nil && tx.views == nil {
		return nil
	}
	if tx.views != nil || !sameSchema(s.cur.DB, tx.DB()) {
		// Views are global and a schema change reshapes every index: the
		// transaction commits against every shard whatever else it routed.
		s.all = true
	}
	if !s.all {
		s.ins = s.ins.extend(s.base.DB, s.cur.DB, tx.DB(), tx.ins)
	}
	s.stmts = append(s.stmts, tx.stmts...)
	s.cur = &Snapshot{
		Version: s.cur.Version + 1,
		DB:      tx.DB(),
		Views:   tx.Views(),
	}
	return nil
}

// Commit atomically publishes the staging chain as one new catalog
// version (however many statements were staged). It locks the shards
// the transaction's reads and writes route to and validates, at the
// serialization point, every relation it read or may write — the write
// set closed over the components contributing to it — against that
// relation's home-shard head: the certain part by pointer identity, the
// contributing components by stable ID and shape, the schema and views
// unchanged. A commit still awaiting its group-commit fsync already
// counts (first committer wins), while commits on other relations since
// Begin — on this shard or any other — do not conflict: the
// transaction's relations and components are overlaid onto the head and
// logged against it, so a successful commit is equivalent to running
// the whole transaction at its commit epoch. A transaction with a
// statement that has no routing information validates the whole
// snapshot instead. A read-only transaction commits trivially. On a
// conflict Commit fails with *ConflictError and publishes nothing.
// Durability is UpdateRouted's: the record is fsynced before the
// version becomes visible, coalesced with concurrent committers on the
// same shard.
func (s *Staged) Commit() error {
	if s.done {
		return errTxnDone
	}
	s.done = true
	if s.cur == s.base {
		return nil // read-only: nothing staged, nothing to publish
	}
	c := s.cat
	if s.all || len(s.writes) == 0 {
		// No routing information (a DDL/CTAS/bounded statement, a view
		// change, or direct Staged.Update calls): validate the whole
		// snapshot and replace it.
		held := c.allShards()
		c.lockShards(held)
		head := c.commitBase(held)
		if ce := snapshotMoved(s.base, head); ce != nil {
			return c.refuse(held, ce)
		}
		return c.commit(held, held, head, &commitReq{db: s.cur.DB, views: s.cur.Views, stmts: s.stmts})
	}
	wrefs := sortedNames(s.writes)
	wrels, wset := closure(s.base.DB, wrefs)
	check := map[string]bool{}
	for _, set := range []map[string]bool{s.reads, s.writes} {
		for name := range set {
			check[name] = true
		}
	}
	for ri := range wrels {
		check[s.base.DB.Names[ri]] = true
	}
	names := sortedNames(check)
	held := c.lockRoute(names)
	heads := map[int]*Snapshot{}
	for _, name := range names {
		p := c.ShardOf(name)
		head := heads[p]
		if head == nil {
			head = c.head(p)
			heads[p] = head
			if ce := schemaMoved(s.base, head); ce != nil {
				return c.refuse(held, ce)
			}
		}
		if ce := relationMoved(s.base, head, name); ce != nil {
			return c.refuse(held, ce)
		}
	}
	ps := c.refShards(s.base.DB, wrefs)
	req := &commitReq{db: s.cur.DB, stmts: s.stmts, wrels: wrels, wset: wset, ins: s.ins}
	return c.commit(held, ps, c.commitBase(ps), req)
}

// refuse fails a staged commit whose validation found ce: the conflict
// is counted on the home shard of the relation that moved (shard 0 for
// a schema, view or unattached component change), the locks are
// released, and that shard's in-flight group commit is waited out
// before reporting. The retry re-begins from the published snapshot;
// returning while the winning epoch is still queued would make the
// retried transaction conflict against the same head again — a
// validation spin instead of one wait for the in-flight fsync.
func (c *Catalog) refuse(held []int, ce *ConflictError) error {
	sh := c.shards[0]
	if ce.Relation != "" {
		sh = c.shards[c.ShardOf(ce.Relation)]
	}
	sh.hmu.Lock()
	sh.conflicts++
	sh.hmu.Unlock()
	c.unlockShards(held)
	sh.drain()
	return ce
}

// schemaMoved reports a DDL or view change between base and head: every
// transaction conflicts with one.
func schemaMoved(base, head *Snapshot) *ConflictError {
	if sameSchema(base.DB, head.DB) && maps.Equal(base.Views, head.Views) {
		return nil
	}
	return &ConflictError{Base: base.Version, Current: head.Version}
}

// relationMoved validates one relation of the transaction's read or
// write set against a head with base's schema: nil when head holds it
// exactly as base did — the same certain part by pointer, and the same
// components contributing to it, by ID and shape.
func relationMoved(base, head *Snapshot, name string) *ConflictError {
	ri := base.DB.IndexOf(name)
	if ri < 0 {
		return nil // never existed and still does not: nothing to have moved
	}
	ce := &ConflictError{Base: base.Version, Current: head.Version, Relation: name}
	if base.DB.Certain[ri] != head.DB.Certain[ri] {
		return ce
	}
	var moved bool
	if ce.Component, moved = componentMoved(contributing(base.DB, ri), contributing(head.DB, ri)); moved {
		return ce
	}
	return nil
}

// snapshotMoved validates the whole snapshot, for a transaction without
// routing information: the schema and views, every relation, and every
// component, those contributing to no relation included.
func snapshotMoved(base, head *Snapshot) *ConflictError {
	if ce := schemaMoved(base, head); ce != nil {
		return ce
	}
	for _, name := range base.DB.Names {
		if ce := relationMoved(base, head, name); ce != nil {
			return ce
		}
	}
	if id, moved := componentMoved(base.DB.Components, head.DB.Components); moved {
		return &ConflictError{Base: base.Version, Current: head.Version, Component: id}
	}
	return nil
}

// componentMoved compares two component lists position by position, by
// stable ID and shape, and reports whether one differs (appeared,
// changed or disappeared) and the first such one's ID.
func componentMoved(b, h []wsd.DBComponent) (uint64, bool) {
	for k := 0; k < max(len(b), len(h)); k++ {
		switch {
		case k >= len(b):
			return h[k].ID, true
		case k >= len(h) || b[k].ID != h[k].ID || !wsd.SameComponentShape(b[k], h[k]):
			return b[k].ID, true
		}
	}
	return 0, false
}

// contributing returns the components contributing at least one tuple
// to relation ri, in decomposition order.
func contributing(db *wsd.DecompDB, ri int) []wsd.DBComponent {
	var out []wsd.DBComponent
	for _, comp := range db.Components {
		for _, a := range comp.Alternatives {
			if r := a.Rels[ri]; r != nil && r.Len() > 0 {
				out = append(out, comp)
				break
			}
		}
	}
	return out
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Rollback discards the staging chain. The catalog never saw it.
func (s *Staged) Rollback() { s.done = true }

// Stmts returns the transaction's statement records in execution order.
// They survive Commit and Rollback, so a committer that lost
// first-committer-wins can replay the transaction on a fresh base —
// isql's automatic conflict retry does exactly that.
func (s *Staged) Stmts() []string { return append([]string{}, s.stmts...) }
