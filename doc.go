// Package worldsetdb is a from-scratch Go reproduction of "From Complete
// to Incomplete Information and Back" (Antova, Koch, Olteanu; SIGMOD
// 2007): the I-SQL language, World-set Algebra with the Figure 3
// possible-worlds semantics, the inlined representation and the
// translations to relational algebra of §5 (Theorem 5.7), and the
// algebraic equivalences and rewriting of §6.
//
// The implementation lives under internal/ (ROADMAP.md's architecture
// snapshot is the system inventory); runnable entry points are cmd/isql,
// cmd/isqld (the concurrent I-SQL server), cmd/wsatrans and
// cmd/wsabench, and the examples/ directory walks through the paper's
// application scenarios. Performance is measured three ways. bench/
// drives a real isqld process under closed-loop load and reports
// end-to-end and per-layer numbers. cmd/wsabench times the engine's hot
// paths — the indexed read, the write path, the bounded evaluator, the
// sharded catalog, the planner, checkpoints and recovery — against the
// committed BENCH_results.json baseline, and CI blocks on a 3x
// regression. The cost shapes behind those paths — a read costs what it
// selects, a prepared plan skips compilation, a bounded evaluation
// costs its region, a routed commit costs one shard, recovery patches
// instead of re-executing — are pinned as counts of work (tuples
// touched, rows materialized, search candidates, allocations,
// conflicts, fsyncs) by the tests of the package doing the work, which
// hold on any machine. bench_test.go holds go test micro-benchmarks of
// the paper's experiments, unasserted.
//
// # The decomposition-native store
//
// Session state lives in internal/store: a catalog of named tables
// backed by a multi-relation world-set decomposition (wsd.DecompDB)
// under MVCC-style versioning. Readers take an immutable snapshot with
// one atomic pointer load and evaluate against it wait-free; writers
// serialize per component shard through a transaction that publishes a
// new catalog version, copy-on-write down to individual relations and,
// within a relation, down to row segments: relation.Relation keeps its
// rows in frozen segments shared between versions plus one tail that
// takes the inserts, and Clone shares them instead of copying, so a
// commit costs the rows it adds, not the rows of the table it grows
// (segments merge geometrically, O(log n) of them per relation). I-SQL
// sessions (internal/isql) run on the catalog: statements in the clean
// World-set Algebra fragment compile and evaluate through any
// registered engine — by default wsdexec, natively on the decomposition
// — and tuple-local DELETE/UPDATE map over the decomposition's pieces;
// every other statement (aggregation, expression subqueries, divide-by,
// DML whose predicate or SET holds a subquery) takes the second arm,
// the session's world-at-a-time evaluator over the bounded input: only
// the components contributing to relations the statement mentions are
// enumerated, under the world budget, over only the relation closure —
// the mentioned relations plus whatever those components contribute to
// — and for writes the local result is re-factorized and the untouched
// relations and components spliced back by pointer (wsd.Region — the
// one enumeration a statement can reach, shared with wsdexec's fallback
// and the store's engine override). In each world that evaluator reads
// every row once, in storage order — no sort, no copy of a table it
// only renames, no re-hash of a relation it only renames, an index
// probe per IN — and sorts a group only where float addition makes the
// order show. A read that aggregates over one base table builds no
// world at all when the table's parts are disjoint (no piece tuple in
// the certain part or in another component's piece): it groups the
// certain part and each piece once, a large part through its cached
// index, and evaluates each combination of the region's alternatives
// (wsd.Region.Combinations) from the chosen parts' groups, in the
// manner of factorised aggregation. The "legacy" engine is
// that same arm with every component counted dependent — the
// full-expansion reference the differential sweeps hold the splice to.
//
// Re-factorization (wsd.Refactor) closes the loop: any enumerated
// world-set — a fallback output, a bounded-arm result, a session's
// world-set seed — is factorized back into certain tuples plus
// independent components (verified blocks of pairwise-dependent tuples,
// spanning relations when the dependency does), so one entangled step
// never permanently de-factorizes a pipeline. A census-repair pipeline
// at 2^40 worlds (repair → select → certain/possible aggregation) runs
// each statement in milliseconds with the catalog staying linear-size
// throughout, while the same script on the explicit world-set path
// refuses with a typed wsd.BudgetError — the one error shape shared by
// wsd's Expand, the store, and the session's world budget.
//
// # The transactional write path
//
// Writes are transactional, durable and prepared. BEGIN switches a
// session onto a staged store transaction (store.Staged): statements
// execute unchanged against a private staging snapshot, invisible to
// every other session, until COMMIT publishes the whole batch as one
// catalog version (ROLLBACK discards it; concurrent readers never
// observe an intermediate statement). Concurrency control is
// optimistic, first-committer-wins at relation granularity: COMMIT
// checks every relation the transaction read or may write (closed over
// the components contributing to it) against that relation's newest
// state — its certain part by pointer, its components by stable ID and
// shape — and a DDL or view change since BEGIN conflicts with
// everything. Commits on other relations are not conflicts, whatever
// shard they live on: the transaction is overlaid onto them. A
// conflicting commit surfaces as store.ConflictError, naming the
// relation or component that moved, and publishes nothing. With
// Session.RetryConflicts set (isqld's -txn-retries), a losing commit
// retries automatically: the transaction's logged write statements
// re-execute as a fresh transaction on the new latest version, up to
// the bound, and the conflict surfaces only on exhaustion. Retry
// visibility rules: answers the client read inside the original
// transaction came from the pre-conflict snapshot and are not
// re-issued; only the write statements replay, and their predicates
// re-evaluate against the winning committer's state — a successful
// retry is exactly the serial schedule "winner first, then this
// transaction" (differentially enforced by difftest.CheckTxnRetry).
//
// There is one write path. The catalog is always partitioned into n ≥ 1
// component shards (isqld -shards, default 1; relations hash to a home
// shard), each with its own writer lock, version chain, group-commit
// queue and write-ahead log segment (store.WAL, wal-<shard>.log), and
// every commit — auto-commit statement or staged transaction, at any n
// — becomes durable and reader-visible the same way: it locks the
// shards its relations (and their component closure) route to — all of
// them for DDL, CTAS, view changes and bounded DML — validates (a
// staged transaction, per relation as above), takes a global commit
// epoch, and logs exactly one CRC-framed record carrying the epoch, its
// participant shards with the version it was staged on at each, a page
// delta of just the relations and components it touched and the
// statement texts, fsynced before the version becomes visible — one
// record and one fsync per commit at every shard count. A schema change
// is no exception: CREATE, CTAS and DROP log the relations they created
// or dropped plus what they touched, never the rest of the catalog
// (log format 3; logs of older formats are refused). An INSERT is
// staged with its exact edit
// (store.Tx.InsertCertain: only the components contributing to the
// relation are re-normalized, everything else is shared), so its delta
// is the inserted rows, not a diff of the growing table. A commit with one
// participant is one ordinary record through that shard's queue:
// the committer enqueues and releases the shard lock; a leader
// coalesces every queued record into one write and one fsync, publishes
// the epochs in order, and hands leadership of later arrivals to a
// fresh flusher so no committer waits on work that is not its own. A
// commit spanning shards (every DDL, CTAS and view change at n > 1)
// drains the participants' queues under their locks and appends its one
// record to the coordinator (lowest participant) segment, so no later
// commit on a participant can chain on it before it is durable. Readers
// only ever observe durable versions (the merged read pointer advances
// after the fsync; writers chain on their shard's newest assigned
// epoch), and ordering guarantees survive a crash anywhere — mid-batch,
// or mid-way through a cross-shard record — because recovery merges the
// segments by epoch and replays exactly the intact records, cutting a
// torn one: an un-acked commit may be recovered (its record hit disk
// before the crash) but an acked commit is never lost, none is torn
// across shards, and no record replays out of order.
// store.Open is the one way a durable catalog comes into being: it
// seeds a directory that holds no state (and checkpoints the seed), or
// recovers the last checkpoint plus the log tail, reproducing the
// committed catalog byte-for-byte; torn tails are CRC-detected and
// truncated, and checkpoints (Catalog.Checkpoint) bound replay work by
// taking every shard lock, draining in-flight group commits, writing
// the base and truncating the segments.
//
// # Paged storage
//
// The checkpoint base is one page file at every shard count
// (checkpoint.wsd; internal/page, internal/bufpool, store.PageStore):
// fixed 8 KiB CRC-framed pages holding one durable object each — a
// certain relation, a component, the directory with schema and views —
// chained when an object outgrows a page, reached through a buffer pool
// with LRU eviction (-pool-pages caps resident pages, so a catalog
// larger than memory still checkpoints and recovers). Checkpoints are
// incremental and copy-on-write: only objects whose content changed
// since the base version write pages, new page chains are committed by
// flipping one of two meta slots (epoch-stamped, CRC-guarded — a torn
// checkpoint leaves the previous slot intact and recovery falls back to
// it, so the base is always at exactly one version — no mixed-epoch
// merge — and replay from it is strict), and the pages
// freed by the flip — or taken by a checkpoint that failed — are
// recycled into a free list so repeated checkpoints do not grow the
// file. A checkpoint at an unchanged version is skipped entirely (zero
// bytes written). Page files are the only base recovery reads: the .wsd
// JSON document is import/export (-load / -save), and one found at the
// checkpoint path is refused, not migrated; so is a page file of the
// older one-file-per-shard format, with the -save / -load way out.
//
// WAL records carry page deltas (store.CommitDelta): the
// commit's durable effect — created and dropped relations (name and
// attributes), touched certain relations, upserted and dropped
// components by stable ID, view changes — computed on the commit path
// by pointer/shape diffing of the copy-on-write snapshots, relations
// paired by name and components by ID. A CREATE logs one relation's
// name and attributes, a CTAS that plus the new table's rows and
// components, a DROP the dropped name: components whose relations only
// moved index are carried on replay, not re-logged, so a schema change
// costs what it touched, not the catalog. Small edits log tuple-level
// patches (a single-row insert carries one tuple, not the relation),
// keeping records O(edit) on insert-heavy workloads. Recovery replays
// deltas by patching the decomposition directly — time proportional to
// the touched data,
// skipping parse, compile, the rewrite search and query evaluation —
// and by nothing else: the statement texts in a record are provenance
// (and the oracle the crash tests re-execute to check delta replay
// byte for byte). Each record also names, per participant shard, the
// shard version it was staged on; recovery applies it only where that
// is the version it has reached, so a hole elsewhere in the epoch chain
// (an epoch burned by a failed fsync, a record torn off another
// segment) is harmless and a hole on the record's own shard is caught.
// A record that does not link, has no delta, or does not apply makes
// Open fail with a typed *store.RecoveryError naming shard and epoch —
// never a silently different world-set. So does a log Open cannot read
// whole: every record carries its format number inside the CRC, and a
// record of another format (any older build's), a non-empty wal.log or
// a non-empty segment past the shard count is refused, the directory
// left as found. internal/store's tests pin the incremental checkpoint
// at a small fraction of a full one's bytes and a no-op at zero;
// wsabench's CKPT family times both and the delta replay.
// Catalog.DurabilityStats feeds the /metrics durability gauges:
// checkpoint age, on-disk bytes, checkpoint and buffer-pool counters
// once for the one file, WAL tail depth per shard.
//
// PREPARE parses a statement once — optionally with $1..$N
// placeholders — into a PlanCache shared across sessions; EXECUTE binds
// arguments and runs the cached tree. Fragment selects — parameterized
// or not — reuse a compiled, prelowered plan keyed on a schema
// fingerprint: placeholders compile to parameter slots inside the
// plan's predicates (ra.Param operands), and each EXECUTE binds its
// argument constants into the cached plan (wsa.BindParams copies only
// the parameterized spine, sharing everything else), so repeated
// execution skips parsing, analysis, compilation and the rewrite search
// entirely whatever the arguments (DML leaves the fingerprint — and the
// plan — intact; DDL forces one recompile).
//
// Catalogs persist as .wsd JSON documents (store.Save/Load, wired to
// cmd/isql's -load/-save flags): the factored form serializes in space
// linear in the decomposition regardless of the world count. cmd/isqld
// serves I-SQL sessions concurrently over one shared catalog through a
// line-oriented HTTP protocol (POST /exec, /prepare, /execute; GET
// /stats): each request gets its own session, selects run on snapshots
// (readers never block), and DML serializes per shard it touches.
// A request carrying an X-ISQL-Session token gets a sticky session that
// holds transaction state across requests (idle sessions are evicted
// and rolled back after a TTL), and the -wal/-checkpoint-every flags
// make the served catalog durable across crashes — the serving path for
// many concurrent certain/possible queries against one factored
// world-set.
//
// # Execution engines
//
// The system has four evaluation engines for the same World-set
// Algebra semantics, registered by name in package wsa's engine
// registry and selectable from cmd/isql via -engine:
//
//   - "reference" (internal/wsa) — the Figure 3 compositional semantics
//     over explicit world-sets; the semantic ground truth every other
//     engine is differentially tested against, and the only engine for
//     operators that inherently enumerate (repair-by-key on entangled
//     inputs). Its world-set operators — χ, repair-by-key, pγ/cγ with
//     poss/cert, and the listing of possible answers — are functions on
//     a world-set's last relation (wsa.ChoiceLast, RepairLast,
//     GroupLast, DistinctLast, RenameLast) that the session's
//     world-at-a-time evaluator calls too: I-SQL's bounded arm keeps
//     its own code only for what the algebra lacks (expressions,
//     aggregates, subqueries, division), and a world limit exceeded
//     anywhere is the one typed wsd.BudgetError.
//   - "translated" (internal/translate) — the Figure 6 translation to
//     relational algebra over the inlined representation of §5,
//     demonstrating Theorem 5.7.
//   - "wsdexec" (internal/wsdexec) — the factorized engine: it
//     evaluates queries directly over a multi-relation world-set
//     decomposition (wsd.DecompDB), never expanding to worlds, so cost
//     is polynomial in the decomposition size and independent of the
//     world count (census repair with 2^40 worlds answers cert/poss in
//     about a millisecond). A read costs what it selects, and a
//     prepared read is bind → probe → render: nothing it does per
//     request depends on the snapshot alone. What does is built once
//     per snapshot by the first reader and kept on the immutable
//     decomposition (wsd.DecompDB.Pieces, .Derived) — the list of
//     pieces each relation has, and the stored view a plan reads a
//     table through (the relation under its rename chain, its pieces
//     read in place, renames sharing their storage, small pieces' rows
//     as slices; shared read-only by every statement, copied only when
//     a merge must re-key it), and the planner statistics and world
//     count. A selection with `column = constant` conjuncts (bound $n
//     parameters included) probes the hash index cached on each stored
//     piece of 64 tuples or more (relation.IndexOn,
//     relation.IndexProbeMin), sizes its output by the match count and
//     skips the residual test when the probe is the whole predicate,
//     and scans the rest — the index is a cache of the immutable
//     snapshot relation, built by the first probe, kept by every commit
//     that leaves the relation alone, never built at load or recovery.
//     Projection and poss/cert hand on what they do not change; isqld
//     renders the answer once, into a pooled buffer sent with one Write.
//     Operators that would
//     couple independent components merge just those components within
//     the budget; the two no merge expresses (choice-of and
//     repair-by-key over an uncertain answer) fall back — recorded in
//     the returned Plan — to the reference engine over the bounded
//     region: only the components the query's relations depend on are
//     enumerated, the rest spliced back.
//
// All engines share one equality and an allocation-lean hashing core.
// internal/value decides when two values are the same: Compare == 0 ⇔
// AppendKey equal ⇔ Hash equal, for every pair of values, because a
// value is built in its canonical form. Tuples, column projections,
// whole relations and worlds hash through 64-bit FNV-1a digests
// (internal/hashkey) with typed-value verification on collision, and
// every de-duplication and grouping — of answers, alternatives, worlds
// by a γ key or a shared prefix, rows by a key — goes through digest
// plus Equal, not through key strings. Relation.ContentKey, the sorted
// string, is left only to fix the order of listed answers and worlds
// (relation.SortByContent, World.Key). Relations store rows in hash
// buckets and memoize their content digests (internal/relation), the
// relational operators join through cached per-column hash indexes
// (internal/ra), and the factorized engine and the inline decoder fan
// work out across a GOMAXPROCS-sized worker pool (relation/pool.go)
// with deterministic merges — by decomposition component and piece in
// internal/wsdexec, by id group in internal/inline.
//
// # Cost-based planning
//
// Planning is statistics-driven end to end. wsd.Normalize computes
// per-relation decomposition statistics — certain and alternative
// cardinality, component spread, and an alternatives-per-component
// histogram — as a by-product of the normalization walk and caches
// them on the DecompDB, so every catalog snapshot carries them for
// free (Snapshot.Stats; the /metrics gauges read the same value). The
// rewrite search (internal/rewrite) runs on a cardinality-propagating
// cost estimator seeded by those statistics: per-class selectivity
// defaults (0.1 equality, 0.9 inequality, 0.33 range, 0.5 otherwise),
// join/product output estimates from input cardinalities, a selection
// the engine will answer by index probe charged its matches instead of
// its input, and world growth for choice-of/repair-by-key from
// component arities, with the world multiplier damped logarithmically
// — factorized evaluation's work follows decomposition pieces, not
// worlds. The equivalence
// search prunes branch-and-bound style: candidates costing more than a
// slack factor above the best complete plan are dropped, and the
// search stops outright once the cheapest frontier entry is past the
// bound (internal/rewrite's tests hold it under 1/1.3 of the exhaustive
// search's expansions on the Figure 8 and 9 queries, at no costlier
// plan; the wsabench PLAN family times it). At
// execution time wsdexec orders pure product chains smallest-first by
// estimated piece cardinality (behind a projection restoring the
// original column order, so answers are byte-identical). Plan-cache
// entries record the statistics they were optimized
// under and re-plan when the live snapshot drifts past the staleness
// threshold — a component-count change or cardinality leaving a 2x
// band (wsdb_planner_replans_total counts these) — and bare EXPLAIN
// prints the per-operator cost and cardinality estimates the plan was
// chosen by.
//
// # Observability
//
// internal/obs is the low-overhead observability layer threaded
// through the whole statement lifecycle: nil-safe pooled trace spans
// (zero allocation when tracing is off — the nil *Span no-ops every
// method) and lock-free atomic counters and fixed-bucket latency
// histograms. One traced statement yields a span tree covering parse,
// compile (with plan-cache hit/miss), the rewrite search, every
// wsdexec operator (with contributing-component counts, a selection's
// access path — access=index|scan with probed and scanned tuple counts
// — merge events and their costs, fallback expansion), commit staging,
// the group-commit queue wait and the WAL fsync (with batch size, and
// the participant count of a cross-shard commit).
//
// Three surfaces expose it. EXPLAIN ANALYZE <stmt> in I-SQL executes
// the statement for real and renders the span tree (bare EXPLAIN
// prints the compiled and prelowered algebra without executing).
// isqld serves GET /metrics in Prometheus text exposition — request
// and execution-path counters, selections by access path
// (wsdb_select_index_probes_total, wsdb_select_scans_total), per-shard
// commit-queue and WAL-fsync latency histograms, and per-relation
// decomposition-statistics
// gauges (certain vs alternative cardinality, components touched) —
// validated by obs.LintProm, which cmd/promlint wires into CI against
// the live endpoint; GET /healthz reports the shard count and last
// durable epoch per shard; a handler panic is answered with HTTP 500
// and counted in wsdb_handler_panics_total, which the CI smoke jobs
// require to stay 0. And the isqld -slow-query flag logs the
// span tree of any statement over the threshold as one JSON line on
// stderr (Span.AppendJSON, no reflection), while -debug-addr serves net/http/pprof on a separate
// (private) listener.
//
// # Correctness harnesses
//
// internal/difftest runs every query through all three engines on
// randomized world-sets — through wsdexec natively on randomized
// decompositions via CheckDecomp, and through the store/session path
// (snapshot + region-bounded, re-factorized fallbacks) via CheckStore — requiring
// world-set-identical (byte-identical, for decomposed inputs) answers,
// including under the race detector with partitioning forced on.
// golden_test.go pins the paper's running examples (Figure 2 pipeline,
// the Figure 8/9 rewrite pairs, census repair — both enumerated at
// small scale and factorized at 2^40 — and trip planning) to committed
// outputs under testdata/; internal/isql pins the 2^40 store pipeline
// and internal/isqld the server protocol the CI smoke job replays.
package worldsetdb
