package store

import "fmt"

// Staged is a multi-statement transaction: a private chain of staging
// snapshots built from one base catalog version. Statements inside the
// transaction read and write the staging chain only; concurrent readers
// of the catalog keep seeing the pre-transaction version until Commit
// publishes the whole chain as one new catalog version. Obtain one
// through Begin.
//
// Concurrency control is optimistic, first-committer-wins: Begin takes
// no locks, and Commit publishes only if the shards the transaction
// touched are still at the versions it started from — otherwise it
// fails with *ConflictError and nothing is published (the catalog
// behaves as if the transaction never ran). A Staged value is
// single-goroutine, like the session that owns it.
type Staged struct {
	cat   *Catalog
	base  *Snapshot // catalog version the transaction started from
	cur   *Snapshot // head of the private staging chain
	stmts []string  // statement records for the commit log
	done  bool

	// Shard-level conflict tracking: the relations the transaction read
	// and wrote, and whether any statement had no
	// routing information (DDL/CTAS/legacy — validates against every
	// shard). Commit validates that the shards these route to are
	// unchanged since base; commits on disjoint shards don't conflict.
	reads  map[string]bool
	writes map[string]bool
	all    bool
}

// ConflictError reports an optimistic-concurrency failure: another
// writer committed between Begin and Commit.
type ConflictError struct {
	Base    uint64 // catalog version the transaction started from
	Current uint64 // catalog version found at commit time
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("store: transaction conflict: started from version %d, catalog is now at version %d", e.Base, e.Current)
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
// touches (recorded as the transaction's write set for shard-level
// conflict validation at Commit); nil means the statement has no
// routing information and the commit will validate against every shard.
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
// (selects). The shards they route to join the commit-time validation
// set, so the transaction stays serializable:
// its reads are revalidated at the commit point, not just its writes.
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
	if tx.views != nil {
		// Views are global, not homed on a shard: a transaction that
		// changes them commits against every shard whatever else it
		// routed.
		s.all = true
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
// version (however many statements were staged), with shard-level
// first-committer-wins: the shards the transaction's reads and writes
// route to are locked and validated against the transaction's per-shard
// read timestamps (base.shardVers), so commits that touched disjoint
// shards since Begin do not conflict — and on a one-shard catalog any
// commit since Begin does. Validation happens under the locks at the
// serialization point, covering reads as well as writes, so a
// successful commit is equivalent to running the whole transaction at
// its commit epoch. A read-only transaction commits trivially. On a
// conflict — even with a commit still awaiting its group-commit fsync —
// Commit fails with *ConflictError and publishes nothing. Durability is
// UpdateRouted's: the record is fsynced before the version becomes
// visible, coalesced with concurrent committers on the same shard.
func (s *Staged) Commit() error {
	if s.done {
		return errTxnDone
	}
	s.done = true
	if s.cur == s.base {
		return nil // read-only: nothing staged, nothing to publish
	}
	c := s.cat
	// No routing information (a DDL/CTAS/legacy statement, a view change,
	// or direct Staged.Update calls): validate and commit against every
	// shard.
	all := s.all || len(s.writes) == 0
	var held []int
	if all {
		held = c.allShards()
		c.lockShards(held)
	} else {
		refs := make([]string, 0, len(s.reads)+len(s.writes))
		for r := range s.reads {
			refs = append(refs, r)
		}
		for r := range s.writes {
			if !s.reads[r] {
				refs = append(refs, r)
			}
		}
		held = c.lockRoute(refs)
	}
	// Validate: every touched shard must still be at the epoch the
	// transaction read it at. headVer (not pubVer) — a conflicting
	// commit awaiting its group-commit fsync already wins.
	curV := c.cur.Load().Version
	for _, p := range held {
		sh := c.shards[p]
		sh.hmu.Lock()
		hv := sh.headVer
		if hv != s.base.shardVers[p] {
			sh.conflicts++
			sh.hmu.Unlock()
			c.unlockShards(held)
			// Wait out the winner's group-commit flush before reporting
			// the conflict. The retry re-begins from the published
			// snapshot; returning while the winning epoch is still queued
			// would make the retried transaction conflict against the
			// same head again — a validation spin instead of one wait for
			// the in-flight fsync.
			sh.drain()
			return &ConflictError{Base: s.base.Version, Current: max(curV, hv)}
		}
		sh.hmu.Unlock()
	}
	req := &commitReq{db: s.cur.DB, stmts: s.stmts}
	ps := held
	if all {
		req.views = s.cur.Views
	} else {
		wrefs := make([]string, 0, len(s.writes))
		for r := range s.writes {
			wrefs = append(wrefs, r)
		}
		req.wset = compIDsTouching(s.base.DB, relIndex(s.base.DB, wrefs))
		ps = c.refShards(s.base.DB, wrefs)
	}
	return c.commit(held, ps, c.commitBase(ps), req)
}

// Rollback discards the staging chain. The catalog never saw it.
func (s *Staged) Rollback() { s.done = true }

// Stmts returns the transaction's statement records in execution order.
// They survive Commit and Rollback, so a committer that lost
// first-committer-wins can replay the transaction on a fresh base —
// isql's automatic conflict retry does exactly that.
func (s *Staged) Stmts() []string { return append([]string{}, s.stmts...) }
