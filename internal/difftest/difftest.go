// Package difftest is the cross-evaluator differential harness: it runs
// the same World-set Algebra query through every evaluation engine the
// system has — the Figure 3 reference semantics over explicit
// world-sets (wsa.Eval), the Figure 6 translation to relational algebra
// over the inlined representation (translate.EvalWorldSet) and the
// factorized decomposition engine (wsdexec) — and asserts that the
// resulting world-sets coincide.
//
// The harness is how engine refactors stay honest: the hash-join fast
// paths, the bucketed parallel decoder and the factorized WSD-native
// engine all ship with "all evaluators agree on hundreds of randomized
// queries" as the acceptance
// bar, including under the race detector with partitioning forced on
// (see difftest_test.go). Decomposed inputs get their own entry point,
// CheckDecomp, which runs wsdexec natively on the decomposition and the
// other two on its (expandable) enumeration, requiring byte-identical
// rendered world-sets; CheckStore runs the same queries the way an
// I-SQL session select does — through the store.Query snapshot path
// with re-factorized fallbacks — against the reference engine.
package difftest

import (
	"bytes"
	"fmt"
	"strings"

	"worldsetdb/internal/isql"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/store"
	"worldsetdb/internal/translate"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsa"
	"worldsetdb/internal/wsd"
	"worldsetdb/internal/wsdexec"
)

// Result reports one evaluator's output for a query.
type Result struct {
	Name string
	Out  *worldset.WorldSet
	Err  error
}

// Run evaluates q on ws with all three evaluators and returns their
// results in a fixed order: reference, translated, wsdexec.
func Run(q wsa.Expr, ws *worldset.WorldSet) []Result {
	ref, refErr := wsa.Eval(q, ws)
	tr, trErr := translate.EvalWorldSet(q, ws)
	wx, wxErr := wsdexec.EvalWorldSet(q, ws)
	return []Result{
		{Name: "reference", Out: ref, Err: refErr},
		{Name: "translated", Out: tr, Err: trErr},
		{Name: "wsdexec", Out: wx, Err: wxErr},
	}
}

// Check runs q through all three evaluators and returns an error
// describing the first disagreement: an evaluator failing where the
// reference succeeds (or vice versa), or a world-set differing from the
// reference output. Relation names may differ across evaluators (the
// answer-table naming is an artifact), so world-sets are compared with
// EqualWorlds.
func Check(q wsa.Expr, ws *worldset.WorldSet) error {
	_, err := checkResults(q, ws, Run(q, ws))
	return err
}

// checkResults compares a Run's results against the reference entry,
// returning the reference result for reuse.
func checkResults(q wsa.Expr, ws *worldset.WorldSet, results []Result) (Result, error) {
	ref := results[0]
	if ref.Err != nil {
		// The generators only produce well-typed queries, so a reference
		// failure is itself a bug worth surfacing.
		return ref, fmt.Errorf("reference evaluator failed for %s: %w", q, ref.Err)
	}
	for _, r := range results[1:] {
		if r.Err != nil {
			return ref, fmt.Errorf("%s evaluator failed for %s where the reference succeeded: %w", r.Name, q, r.Err)
		}
		if !r.Out.EqualWorlds(ref.Out) {
			return ref, fmt.Errorf("%s evaluator disagrees with the reference for %s\ninput:\n%s\nreference:\n%s\n%s:\n%s",
				r.Name, q, ws, ref.Out, r.Name, r.Out)
		}
	}
	return ref, nil
}

// CheckDecomp is the decomposition-level differential check: the
// factorized engine evaluates q directly on db while the reference and
// translated engines run on db's enumeration (which must
// fit the default expansion budget — callers keep generated inputs
// expandable). Because the expanded wsdexec result and the reference
// result share names, schemas and the deterministic world ordering,
// they are required to render byte-identically, not merely compare
// equal. The factorized engine's plan is returned so sweeps can count
// what they exercised.
func CheckDecomp(q wsa.Expr, db *wsd.DecompDB) (*wsdexec.Plan, error) {
	ws, err := db.Expand(0)
	if err != nil {
		return nil, fmt.Errorf("input decomposition not expandable: %w", err)
	}
	ref, err := checkResults(q, ws, Run(q, ws))
	if err != nil {
		return nil, err
	}
	out, plan, err := wsdexec.Eval(q, db)
	if err != nil {
		return nil, fmt.Errorf("wsdexec failed for %s on the decomposition where the reference succeeded: %w", q, err)
	}
	got, err := out.Expand(0)
	if err != nil {
		return nil, fmt.Errorf("wsdexec result of %s not expandable (plan %v): %w", q, plan, err)
	}
	if g, w := got.String(), ref.Out.String(); g != w {
		return nil, fmt.Errorf("wsdexec (plan %v) disagrees with the reference for %s\ninput:\n%s\nreference:\n%s\nwsdexec:\n%s",
			plan, q, db, w, g)
	}
	return plan, nil
}

// CheckStore is the store-path differential check: the query runs the
// way an I-SQL session select does — through store.Query against a
// catalog snapshot holding the decomposition, with entangled fallbacks
// enumerating only the region they depend on, re-factorized and spliced
// (wsd.Region) — and the expanded result must render byte-identically to
// the reference evaluation of the enumeration. Where CheckDecomp pins
// the factorized engine, CheckStore additionally pins the snapshot
// plumbing. The same query then runs once more through a 4-way
// sharded snapshot: sharding changes which shard homes each relation,
// never the rendered answer. The one-shard plan is returned so sweeps can count
// what they exercised.
func CheckStore(q wsa.Expr, db *wsd.DecompDB) (*wsdexec.Plan, error) {
	ws, err := db.Expand(0)
	if err != nil {
		return nil, fmt.Errorf("input decomposition not expandable: %w", err)
	}
	ref, err := wsa.Eval(q, ws)
	if err != nil {
		return nil, fmt.Errorf("reference evaluator failed for %s: %w", q, err)
	}
	var first *wsdexec.Plan
	for _, shards := range []int{1, 4} {
		snap := store.NewSharded(db, shards).Snapshot()
		out, plan, err := store.Query(snap, "", q, 0)
		if err != nil {
			return nil, fmt.Errorf("store path (%d shards) failed for %s where the reference succeeded: %w", shards, q, err)
		}
		got, err := out.Expand(0)
		if err != nil {
			return nil, fmt.Errorf("store result (%d shards) of %s not expandable (plan %v): %w", shards, q, plan, err)
		}
		if g, w := got.String(), ref.String(); g != w {
			return nil, fmt.Errorf("store path (%d shards, plan %v) disagrees with the reference for %s\ninput:\n%s\nreference:\n%s\nstore:\n%s",
				shards, plan, q, db, w, g)
		}
		if first == nil {
			first = plan
		}
	}
	return first, nil
}

// CheckSQLScript is the statement-level differential check: one I-SQL
// script runs through four sessions over the same seed database — the
// native factorized path (with execution accounting when stats is
// non-nil), the reference and translated engines by override, and the
// "legacy" engine
// — and every statement, DML included, must agree on answers and
// affected counts, with every session's state expanding to the same
// world-set after each statement. On the native session fragment
// statements evaluate natively (merging components at worst; callers
// that require zero engine fallbacks assert it on stats), choice-of and
// repair-by-key over an uncertain answer fall back over the region they
// depend on, and statements outside the fragment take the bounded arm —
// in both cases only the dependent components enumerated, the rest
// spliced back — whose parity with the legacy session (every component
// dependent, i.e. the full expansion) this check pins.
func CheckSQLScript(names []string, rels []*relation.Relation, stmts []string, stats *isql.ExecStats) error {
	engines := []string{"", "reference", "translated", "legacy"}
	for _, sql := range stmts {
		if strings.Contains(sql, "repair by key") {
			// Repair-by-key has no relational algebra equivalent
			// (Proposition 4.2), so the translated engine cannot run
			// such a script — it sits it out.
			engines = []string{"", "reference", "legacy"}
			break
		}
	}
	sessions := make([]*isql.Session, len(engines))
	for i, e := range engines {
		sessions[i] = isql.FromDB(names, rels)
		sessions[i].Engine = e
	}
	sessions[0].Stats = stats
	for _, sql := range stmts {
		var first *isql.Result
		var firstErr error
		for i, sess := range sessions {
			res, err := sess.ExecString(sql)
			if i == 0 {
				first, firstErr = res, err
				continue
			}
			if (err == nil) != (firstErr == nil) {
				return fmt.Errorf("difftest: %q: native err %v, %s err %v", sql, firstErr, engines[i], err)
			}
			if err != nil {
				continue
			}
			if len(res.Answers) != len(first.Answers) {
				return fmt.Errorf("difftest: %q: %d answers native vs %d %s", sql, len(first.Answers), len(res.Answers), engines[i])
			}
			for j := range res.Answers {
				if res.Answers[j].ContentKey() != first.Answers[j].ContentKey() {
					return fmt.Errorf("difftest: %q: answer %d differs between native and %s\nnative:\n%s\n%s:\n%s",
						sql, j, engines[i], first.Answers[j], engines[i], res.Answers[j])
				}
			}
			if res.Affected != first.Affected {
				return fmt.Errorf("difftest: %q: affected %d native vs %d %s", sql, first.Affected, res.Affected, engines[i])
			}
		}
		if firstErr != nil {
			continue
		}
		ref := sessions[0].WorldSet()
		if ref == nil {
			return fmt.Errorf("difftest: %q: native session state not expandable", sql)
		}
		want := ref.String()
		for i, sess := range sessions[1:] {
			ws := sess.WorldSet()
			if ws == nil {
				return fmt.Errorf("difftest: %q: %s session state not expandable", sql, engines[i+1])
			}
			if ws.String() != want {
				return fmt.Errorf("difftest: %q: %s session state differs from native\nnative:\n%s\n%s:\n%s",
					sql, engines[i+1], want, engines[i+1], ws)
			}
		}
	}
	return nil
}

// CheckTxn is the transactional differential check over one I-SQL
// script. From the same seed database it verifies the two transaction
// laws the store promises:
//
//  1. BEGIN → script → ROLLBACK leaves the catalog byte-identical
//     (through store.Save, version included) to never having run the
//     transaction, and
//  2. BEGIN → script → COMMIT produces a catalog content-identical to
//     running the same statements non-transactionally (versions and
//     component IDs differ by construction — one commit versus N — and
//     are normalized away),
//     with every select along the way returning identical answers.
func CheckTxn(names []string, rels []*relation.Relation, stmts []string) error {
	// Law 1: rollback identity.
	rolled := isql.FromDB(names, rels)
	before, err := rawCatalogBytes(rolled.Catalog().Snapshot())
	if err != nil {
		return err
	}
	if err := rolled.Begin(); err != nil {
		return err
	}
	for _, sql := range stmts {
		if _, err := rolled.ExecString(sql); err != nil {
			return fmt.Errorf("difftest: %q inside the transaction: %w", sql, err)
		}
	}
	if err := rolled.Rollback(); err != nil {
		return err
	}
	after, err := rawCatalogBytes(rolled.Catalog().Snapshot())
	if err != nil {
		return err
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("difftest: rollback left a trace in the catalog for script %q\nbefore:\n%s\nafter:\n%s",
			stmts, before, after)
	}

	// Law 2: commit parity with auto-commit, answers compared statement
	// by statement.
	auto := isql.FromDB(names, rels)
	txn := isql.FromDB(names, rels)
	if err := txn.Begin(); err != nil {
		return err
	}
	for _, sql := range stmts {
		ares, aerr := auto.ExecString(sql)
		tres, terr := txn.ExecString(sql)
		if (aerr == nil) != (terr == nil) {
			return fmt.Errorf("difftest: %q: auto-commit err %v, transactional err %v", sql, aerr, terr)
		}
		if aerr != nil {
			return fmt.Errorf("difftest: %q failed on both paths: %w", sql, aerr)
		}
		if len(ares.Answers) != len(tres.Answers) {
			return fmt.Errorf("difftest: %q: %d auto-commit answers vs %d transactional", sql, len(ares.Answers), len(tres.Answers))
		}
		for i := range ares.Answers {
			if ares.Answers[i].ContentKey() != tres.Answers[i].ContentKey() {
				return fmt.Errorf("difftest: %q: answer %d differs inside the transaction\nauto:\n%s\ntxn:\n%s",
					sql, i, ares.Answers[i], tres.Answers[i])
			}
		}
		if ares.Affected != tres.Affected {
			return fmt.Errorf("difftest: %q: affected %d auto-commit vs %d transactional", sql, ares.Affected, tres.Affected)
		}
	}
	if err := txn.Commit(); err != nil {
		return fmt.Errorf("difftest: committing script %q: %w", stmts, err)
	}
	a, err := normCatalogBytes(auto.Catalog().Snapshot())
	if err != nil {
		return err
	}
	b, err := normCatalogBytes(txn.Catalog().Snapshot())
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("difftest: committed transaction differs from auto-commit for script %q\nauto:\n%s\ntxn:\n%s",
			stmts, a, b)
	}
	return nil
}

// CheckTxnRetry is the conflict-retry differential check: a transaction
// that loses first-committer-wins to a competing commit and is
// automatically re-run (Session.RetryConflicts) must leave the catalog
// byte-identical (content-compared; versions are normalized away) to a
// single-writer session executing the competing statement first and the
// transaction's statements after it — i.e. the retried commit equals the
// serial schedule it logically becomes. The retried run is swept over
// shard counts {1, 4}: the interloper and the transaction touch the same
// relations, so relation-level validation must detect the conflict at
// every shard count, and the retried commit must converge on the same
// serial schedule whatever the shard layout (the persisted form carries
// none).
func CheckTxnRetry(names []string, rels []*relation.Relation, stmts []string, interloper string) error {
	return checkInterleaved(names, rels, stmts, interloper, false)
}

// CheckTxnDisjoint is CheckTxnRetry for an interloper that writes only
// relations the transaction neither reads nor writes (nor reaches
// through a component): with conflict retry disabled, at shard counts
// {1, 4}, the transaction must commit on its first attempt — rebased
// onto the interloper's commit — with no conflict counted on any
// shard, and the catalog must equal the same serial schedule byte for
// byte.
func CheckTxnDisjoint(names []string, rels []*relation.Relation, stmts []string, interloper string) error {
	return checkInterleaved(names, rels, stmts, interloper, true)
}

func checkInterleaved(names []string, rels []*relation.Relation, stmts []string, interloper string, disjoint bool) error {
	// Serial reference: interloper first, then the transaction.
	seq := isql.FromDB(names, rels)
	if _, err := seq.ExecString(interloper); err != nil {
		return err
	}
	for _, sql := range stmts {
		if _, err := seq.ExecString(sql); err != nil {
			return fmt.Errorf("difftest: %q in the serial reference: %w", sql, err)
		}
	}
	want, err := normCatalogBytes(seq.Catalog().Snapshot())
	if err != nil {
		return err
	}

	for _, shards := range []int{1, 4} {
		cat := store.FromComplete(names, rels)
		cat.Reshard(shards)
		retried := isql.FromCatalog(cat)
		if !disjoint {
			retried.RetryConflicts = 3
		}
		if err := retried.Begin(); err != nil {
			return err
		}
		for _, sql := range stmts {
			if _, err := retried.ExecString(sql); err != nil {
				return fmt.Errorf("difftest: %q inside the transaction (%d shards): %w", sql, shards, err)
			}
		}
		// A competing writer on the same catalog commits between Begin
		// and Commit: a first-committer-wins loss when it touches the
		// transaction's relations, a rebase when it is disjoint.
		comp := isql.FromCatalog(retried.Catalog())
		if _, err := comp.ExecString(interloper); err != nil {
			return fmt.Errorf("difftest: interloper %q (%d shards): %w", interloper, shards, err)
		}
		if err := retried.Commit(); err != nil {
			if disjoint {
				return fmt.Errorf("difftest: transaction %q conflicted with the disjoint %q (%d shards): %w", stmts, interloper, shards, err)
			}
			return fmt.Errorf("difftest: conflicted commit did not retry to success for script %q (%d shards): %w", stmts, shards, err)
		}
		if disjoint {
			for _, st := range cat.ShardStats() {
				if st.Conflicts != 0 {
					return fmt.Errorf("difftest: disjoint interleaving of %q and %q counted %d conflicts on shard %d of %d", stmts, interloper, st.Conflicts, st.Shard, shards)
				}
			}
		}
		got, err := normCatalogBytes(retried.Catalog().Snapshot())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("difftest: retried commit differs from the serial schedule for script %q after %q at %d shards\nretried:\n%s\nserial:\n%s",
				stmts, interloper, shards, got, want)
		}
	}
	return nil
}

// rawCatalogBytes persists a snapshot as-is (version included).
func rawCatalogBytes(snap *store.Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := store.Save(&buf, snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// normCatalogBytes persists a snapshot with the version and the
// component IDs normalized, so states reached by different commit
// counts compare on content: both are allocated per admitted commit, and
// a statement that builds new components (a bounded DML re-factorizing
// its region) draws fresh IDs once per statement on auto-commit but once
// per transaction inside one.
func normCatalogBytes(snap *store.Snapshot) ([]byte, error) {
	db := &wsd.DecompDB{Names: snap.DB.Names, Schemas: snap.DB.Schemas, Certain: snap.DB.Certain}
	for _, c := range snap.DB.Components {
		db.Components = append(db.Components, wsd.DBComponent{Alternatives: c.Alternatives})
	}
	return rawCatalogBytes(&store.Snapshot{DB: db, Views: snap.Views})
}
