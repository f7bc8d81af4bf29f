package isql

import (
	"errors"
	"fmt"

	"worldsetdb/internal/store"
)

// Transactional sessions. Outside a transaction every statement
// auto-commits through the catalog's UpdateRouted (one statement, one
// version). BEGIN switches the session's execution
// target to a store.Staged transaction: the same statement code runs
// against a private staging snapshot, invisible to every other session,
// until COMMIT publishes the whole batch as one catalog version (or
// ROLLBACK discards it). Readers meanwhile keep snapshot isolation on
// the pre-transaction version — they never observe an intermediate
// statement of an open transaction.

// execTarget is where a session's statements read and write: the shared
// catalog (auto-commit) or an open staged transaction. *store.Catalog
// and *store.Staged both satisfy it, which is what lets every exec path
// run unchanged inside and outside a transaction.
type execTarget interface {
	Snapshot() *store.Snapshot
	// UpdateRouted stages and commits fn, carrying the statement's
	// relation references: the commit takes only the locks of the shards
	// those relations (and their component closure) route to. nil refs
	// means the statement has no routing information (DDL, CTAS, bounded
	// DML) and commits against every shard.
	UpdateRouted(refs []string, fn func(*store.Tx) error) error
}

// target returns the session's current execution target.
func (s *Session) target() execTarget {
	if s.txn != nil {
		return s.txn
	}
	return s.cat
}

// InTxn reports whether the session has an open transaction.
func (s *Session) InTxn() bool { return s.txn != nil }

// Begin opens a transaction. Statements until Commit/Rollback stage
// against a private snapshot; other sessions keep seeing the
// pre-transaction catalog.
func (s *Session) Begin() error {
	if s.txn != nil {
		return fmt.Errorf("isql: transaction already open (nested transactions are not supported)")
	}
	s.txn = s.cat.Begin()
	// The staging chain numbers versions privately; never let a cached
	// view parse from one lineage leak into the other.
	s.viewsVersion = 0
	return nil
}

// Commit publishes the open transaction atomically as one catalog
// version. With optimistic concurrency, a conflicting writer since
// Begin surfaces as *store.ConflictError and nothing is published.
// Either way the transaction is closed.
//
// With RetryConflicts > 0 the session retries a conflicted commit
// automatically: the transaction's logged write statements (the same
// records the WAL persists — selects are not replayed) re-execute as a
// fresh transaction on the new latest version, up to RetryConflicts
// times, and *store.ConflictError surfaces only on exhaustion. Answers
// the client already read inside the original transaction came from the
// pre-conflict snapshot; the retried writes see — and their predicates
// re-evaluate against — the winning committer's state (see the retry
// visibility rules in the package documentation).
func (s *Session) Commit() error {
	if s.txn == nil {
		return fmt.Errorf("isql: no open transaction to commit")
	}
	txn := s.txn
	err := txn.Commit()
	s.txn = nil
	s.viewsVersion = 0
	if err == nil || s.RetryConflicts <= 0 {
		return err
	}
	stmts := txn.Stmts()
	for attempt := 0; attempt < s.RetryConflicts; attempt++ {
		ce := asConflict(err)
		if ce == nil {
			break
		}
		// Wait for the winning commit to become reader-visible before
		// re-basing: under group commit the winner's version sits in the
		// commit queue until its coalesced fsync completes, and re-running
		// immediately would spin the whole retry budget against the same
		// unpublished version.
		s.cat.WaitPublished(ce.Current)
		err = s.rerunTxn(stmts)
	}
	return err
}

// asConflict extracts the typed first-committer-wins error, if any.
func asConflict(err error) *store.ConflictError {
	var ce *store.ConflictError
	if errors.As(err, &ce) {
		return ce
	}
	return nil
}

// rerunTxn replays a conflicted transaction's write statements on a
// fresh base and tries to commit again. A statement failing on the new
// base (say, its table was dropped by the winning committer) aborts the
// retry with that error; a fresh conflict is returned for the caller's
// retry loop to count.
func (s *Session) rerunTxn(stmts []string) error {
	if err := s.Begin(); err != nil {
		return err
	}
	for _, sql := range stmts {
		if _, err := s.ExecString(sql); err != nil {
			s.Rollback()
			return fmt.Errorf("isql: replaying %q for conflict retry: %w", sql, err)
		}
	}
	txn := s.txn
	err := txn.Commit()
	s.txn = nil
	s.viewsVersion = 0
	return err
}

// Rollback discards the open transaction.
func (s *Session) Rollback() error {
	if s.txn == nil {
		return fmt.Errorf("isql: no open transaction to roll back")
	}
	s.txn.Rollback()
	s.txn = nil
	s.viewsVersion = 0
	return nil
}

// execTxnControl executes BEGIN/COMMIT/ROLLBACK.
func (s *Session) execTxnControl(st Statement) (*Result, error) {
	var err error
	switch st.(type) {
	case *BeginStmt:
		err = s.Begin()
	case *CommitStmt:
		err = s.Commit()
	case *RollbackStmt:
		err = s.Rollback()
	}
	if err != nil {
		return nil, err
	}
	return &Result{Decomp: s.target().Snapshot().DB}, nil
}
