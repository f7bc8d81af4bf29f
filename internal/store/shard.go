package store

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsd"
)

// Component-sharded catalog: the decomposition's independence structure
// used as a physical partitioning key. Every relation has a home shard
// (FNV-1a of its name mod n, n ≥ 1), and a component belongs to the
// shards of the relations it touches. Each shard has its own writer
// lock, its own WAL segment (wal-<shard>.log) with its own group-commit
// queue, and its own portion of the merged snapshot, so commits touching
// disjoint shards execute, fsync and publish fully in parallel. A
// one-shard catalog is the same machinery with every route resolving to
// shard 0.
//
// # Routing
//
// A statement routes by the relations it references plus the relations
// co-touched by any component touching them (the same dependent-
// component closure the bounded evaluator in internal/isql uses): a
// commit that modifies a component touching relations R and S writes to
// both relations' factored content, so it must hold both homes. The
// closure is re-derived under the candidate locks until stable — the
// component topology around a relation only changes under its home
// shard's lock, so a stable derivation cannot be invalidated while the
// locks are held. Statements without routing information (DDL, CTAS,
// view changes, legacy DML — anything that can create components or
// reshape the schema) serialize against all shards.
//
// # Snapshots and epochs
//
// Readers stay wait-free: one atomic merged Snapshot spans all shards.
// Commits are assigned a global epoch (monotone per shard, since it is
// taken under the shard locks) and publish by overlaying onto the
// evolving merged snapshot — replace the certain relations of the
// commit's closure, replace or drop the touched components by their
// stable IDs (routed commits never create components: the native DML
// paths only rewrite or fold existing ones, and every creating
// statement is all-shard and replaces the merged snapshot wholesale).
// Snapshot.Version is the highest published epoch; shardVers carries
// the per-shard versions the WAL's prev links record and recovery
// checks. Conflicts are not decided by shard versions: a staged
// transaction validates each relation it read or may write against
// that relation's home-shard head (Staged.Commit), so two commits on
// different relations never conflict, on one shard or many.
//
// # Durability: one record per commit
//
// Every commit is exactly one WAL record and one fsync. A commit with a
// single participant shard goes through that shard's group-commit
// queue: the committer gets its epoch and chains the shard head under
// the shard lock, enqueues, and releases the lock before the fsync; one
// committer — the leader — drains the queue with a single write and a
// single fsync and publishes the epochs in order. A commit spanning
// shards drains the participant queues while holding their locks and
// appends its record — delta, participant list and the version it was
// staged on at each — to the coordinator segment (the lowest
// participant), then publishes. The locks keep every later commit on a
// participant from chaining on the record before it is durable, so a
// crash tears at most the record itself, which recovery cuts like any
// torn tail: the transaction is on every shard or on none.
type shardState struct {
	mu sync.Mutex // writer lock for commits touching this shard

	// log receives the shard's commit records; nil = not durable. wal is
	// the same value when it is a real segment (statistics, checkpoint
	// truncation) — tests substitute a gated fake for log alone.
	log batchLogger
	wal *WAL

	// head is the newest assigned (possibly unpublished) merged view
	// with this shard's portion current — single-shard commits chain on
	// it while a group commit is in flight. nil means the published
	// snapshot is current for this shard.
	hmu     sync.Mutex
	head    *Snapshot
	headVer uint64 // epoch of the newest assigned commit on this shard
	pubVer  uint64 // epoch of the newest published commit on this shard

	// Group-commit queue: commits enqueued under mu, then flushed (one
	// write + one fsync for the whole batch) by a leader outside it.
	qmu      sync.Mutex
	qcond    *sync.Cond // signaled after every flushed batch
	queue    []*commitReq
	flushing bool

	// stats, guarded by hmu (cheap, already taken on every commit).
	commits   uint64
	conflicts uint64

	// queueHist measures group-commit queue wait on this shard (enqueue
	// to flush start). Zero-value usable, exported at isqld /metrics.
	queueHist obs.Histogram
}

// batchLogger persists a batch of commit records with one append and
// one fsync. *WAL is the implementation; the group-commit tests gate a
// fake to make batch formation deterministic.
type batchLogger interface {
	AppendBatch(recs []WALRecord) error
}

// commitReq is one staged commit on its way to durability and
// publication. Callers fill the staged state; commit assigns the rest.
type commitReq struct {
	db *wsd.DecompDB
	// views non-nil marks a whole-catalog commit: db and views replace
	// the merged snapshot. nil is a routed commit: the wrels certain
	// relations and the wset components overlay the snapshot.
	views map[string]string
	wrels map[int]bool    // relation indices a routed commit may replace
	wset  map[uint64]bool // component IDs a routed commit may replace
	ins   certEdits       // exact certain edits against the commit's base
	stmts []string
	trace *obs.Span // committer's trace; the flush leader attaches spans

	ps    []int // participant shards, sorted
	epoch uint64
	// prev is, per participant, the shard version the commit chained on:
	// logged so recovery can check the link, and with one participant
	// the stale-abort check of the flush leader.
	prev  []uint64
	delta *CommitDelta // what recovery replays
	done  chan error
	enq   time.Time // when the commit entered the queue
}

// NewSharded returns a catalog over db partitioned into nshards
// component shards (at least one). A nil db means the empty complete
// database.
func NewSharded(db *wsd.DecompDB, nshards int) *Catalog {
	if db == nil {
		db = wsd.NewDecompDB(nil, nil)
	}
	c := newCatalog(&Snapshot{Version: 1, DB: db, Views: map[string]string{}}, 0)
	c.shard(nshards)
	return c
}

// Reshard converts a freshly constructed catalog (no concurrent users
// yet — server/bench wiring, before serving starts) into an nshards-way
// sharded one. The shard count is a runtime property, not a persisted
// one: Save/Load carry no shard layout, so the same catalog file can be
// reopened at any count.
func (c *Catalog) Reshard(nshards int) { c.shard(nshards) }

// shard partitions a freshly constructed (or freshly recovered,
// single-threaded) catalog nshards ways: initializes the per-shard
// states and stamps the current snapshot with per-shard versions.
func (c *Catalog) shard(nshards int) {
	c.shards = make([]*shardState, max(nshards, 1))
	for i := range c.shards {
		sh := &shardState{}
		sh.qcond = sync.NewCond(&sh.qmu)
		c.shards[i] = sh
	}
	c.reset(c.cur.Load(), nil)
}

// reset republishes snap as the catalog's current state with shard i at
// vers[i] (nil = every shard at snap.Version), assigning IDs to
// components that lack one. Single-threaded use only (construction and
// recovery).
func (c *Catalog) reset(snap *Snapshot, vers []uint64) {
	c.assignIDs(snap.DB)
	if vers == nil {
		vers = make([]uint64, len(c.shards))
		for i := range vers {
			vers[i] = snap.Version
		}
	}
	c.cur.Store(&Snapshot{Version: snap.Version, DB: snap.DB, Views: snap.Views,
		shardVers: vers, compID: c.compID.Load()})
	c.epoch.Store(snap.Version)
	for i, sh := range c.shards {
		sh.hmu.Lock()
		sh.head, sh.headVer, sh.pubVer = nil, vers[i], vers[i]
		sh.hmu.Unlock()
	}
}

// Shards reports the catalog's shard count.
func (c *Catalog) Shards() int { return len(c.shards) }

// ShardOf returns the home shard of a relation name.
func (c *Catalog) ShardOf(name string) int { return shardOfName(name, len(c.shards)) }

// shardOfName hashes with 32-bit FNV-1a, inline: routing hashes every
// name a commit touches, and hash/fnv allocates per call.
func shardOfName(name string, nshards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % uint32(nshards))
}

// refShards returns, sorted, the shards a statement referencing refs
// can read or write: the homes of the refs and of their closure.
func (c *Catalog) refShards(db *wsd.DecompDB, refs []string) []int {
	in := make([]bool, len(c.shards))
	for _, name := range refs {
		in[c.ShardOf(name)] = true
	}
	if len(db.Components) > 0 { // else the closure is the refs
		rels, _ := closure(db, refs)
		for ri := range rels {
			in[c.ShardOf(db.Names[ri])] = true
		}
	}
	var out []int
	for p, hit := range in {
		if hit {
			out = append(out, p)
		}
	}
	return out
}

// closure returns what a routed commit referencing refs may replace:
// the indices of the refs and of every relation co-touched by a
// component contributing a tuple to one of them (a fold or a rewrite of
// such a component writes there too), and those components' stable IDs
// (nil when there are none). Unknown names are skipped.
func closure(db *wsd.DecompDB, refs []string) (map[int]bool, map[uint64]bool) {
	rels := relIndex(db, refs)
	var comps map[uint64]bool
	var touched, extra []int
	for _, comp := range db.Components {
		touched = touched[:0]
		hit := false
		for _, a := range comp.Alternatives {
			for ri, r := range a.Rels {
				if r == nil || r.Len() == 0 {
					continue
				}
				touched = append(touched, ri)
				hit = hit || rels[ri]
			}
		}
		if hit {
			if comps == nil {
				comps = map[uint64]bool{}
			}
			comps[comp.ID] = true
			extra = append(extra, touched...)
		}
	}
	for _, ri := range extra {
		rels[ri] = true
	}
	return rels, comps
}

func (c *Catalog) lockShards(ps []int) {
	for _, p := range ps {
		c.shards[p].mu.Lock()
	}
}

func (c *Catalog) unlockShards(ps []int) {
	for i := len(ps) - 1; i >= 0; i-- {
		c.shards[ps[i]].mu.Unlock()
	}
}

func (c *Catalog) allShards() []int {
	all := make([]int, len(c.shards))
	for i := range all {
		all[i] = i
	}
	return all
}

// lockRoute locks the shards refs route to, re-deriving the route under
// the locks until it is stable. Component topology around a relation
// only changes while its home shard's lock is held, so once the
// re-derivation adds nothing outside the held set, the route cannot be
// invalidated until the locks are released. Returns the sorted locked
// set; escalates to all shards if the route refuses to converge.
func (c *Catalog) lockRoute(refs []string) []int {
	ps := map[int]bool{}
	for _, name := range refs {
		ps[shardOfName(name, len(c.shards))] = true
	}
	hold := setToSorted(ps)
	for try := 0; ; try++ {
		if try >= 4 || len(hold) == len(c.shards) {
			hold = c.allShards()
			c.lockShards(hold)
			return hold
		}
		c.lockShards(hold)
		again := c.refShards(c.cur.Load().DB, refs)
		grew := false
		for _, p := range again {
			if !ps[p] {
				ps[p] = true
				grew = true
			}
		}
		if !grew {
			return hold
		}
		c.unlockShards(hold)
		hold = setToSorted(ps)
	}
}

func setToSorted(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// relIndex maps relation names to their indices in db (unknown names
// are skipped).
func relIndex(db *wsd.DecompDB, names []string) map[int]bool {
	idx := map[int]bool{}
	for _, name := range names {
		if i := db.IndexOf(name); i >= 0 {
			idx[i] = true
		}
	}
	return idx
}

// UpdateRouted runs fn as a writer against the latest state of the
// shards it touches and, if fn succeeds and staged anything, atomically
// publishes the staged state as a new catalog version. On error nothing
// is published. Readers holding older snapshots are unaffected either
// way. refs names every relation the transaction can read or write: the
// commit locks only the shards those relations (and their component
// closure) route to; empty refs (no routing information) serializes
// against all shards, and the staged state may then reshape anything —
// schema, components, views. With WAL segments attached, the
// transaction's record (statement texts plus page delta) is fsynced
// before the version becomes visible, outside the shard lock and
// coalesced with every committer waiting on the same shard (group
// commit); UpdateRouted still returns only once its own version is
// durable and published, and a logging failure aborts the commit.
func (c *Catalog) UpdateRouted(refs []string, fn func(*Tx) error) error {
	var ps []int
	if len(refs) == 0 {
		ps = c.allShards()
		c.lockShards(ps)
	} else {
		ps = c.lockRoute(refs)
	}
	// Until commit takes the locks over, release them on every way out —
	// a panic in fn included.
	locked := true
	defer func() {
		if locked {
			c.unlockShards(ps)
		}
	}()
	base := c.commitBase(ps)
	tx := &Tx{base: base}
	if err := fn(tx); err != nil || (tx.db == nil && tx.views == nil) {
		return err
	}
	req := &commitReq{db: tx.DB(), stmts: tx.stmts, trace: tx.trace}
	switch {
	case len(refs) == 0:
		req.views = tx.Views()
	case tx.views != nil || !sameSchema(base.DB, tx.DB()):
		// Routed statements never change views or the schema; a caller
		// that does has mis-routed (both are global) — escalate rather
		// than tear.
		locked = false
		c.unlockShards(ps)
		return c.UpdateRouted(nil, fn)
	default:
		req.wrels, req.wset = closure(base.DB, refs)
		req.ins = tx.ins
	}
	locked = false
	return c.commit(ps, ps, base, req)
}

// commitBase returns the state a commit on the locked participants ps
// builds on. A single participant chains on its shard's assigned head,
// so committers queue behind an in-flight group commit instead of
// waiting it out under the lock. Several participants drain their
// queues first — a cross-shard commit does not chain — after which the
// published snapshot is current for every one of them.
func (c *Catalog) commitBase(ps []int) *Snapshot {
	if len(ps) > 1 {
		for _, p := range ps {
			c.shards[p].drain()
		}
		return c.cur.Load()
	}
	return c.head(ps[0])
}

// head returns the newest assigned state of shard p: its chain head
// while a group commit is in flight, else the published snapshot. With
// p's lock held it cannot move; its portion for p is what the next
// commit on p builds on and what staged transactions validate against.
func (c *Catalog) head(p int) *Snapshot {
	sh := c.shards[p]
	sh.hmu.Lock()
	defer sh.hmu.Unlock()
	if sh.head != nil {
		return sh.head
	}
	return c.cur.Load()
}

// commit makes a staged state durable on the participant shards ps and
// reader-visible. base is commitBase(ps); held ⊇ ps are the shard locks
// the caller holds, released here on every path. One participant: the
// commit's record goes through that shard's group-commit queue, and the
// lock is released before the fsync. Several: the record is appended
// to the coordinator segment under the locks.
func (c *Catalog) commit(held, ps []int, base *Snapshot, req *commitReq) error {
	durable := c.shards[ps[0]].log != nil
	if durable && len(req.stmts) == 0 {
		// The statement texts are the record's provenance; surface a
		// writer that never called Tx.Log here, before an epoch is spent.
		c.unlockShards(held)
		return fmt.Errorf("store: refusing to log a commit with no statement records (writer did not call Tx.Log)")
	}
	if req.views != nil {
		// New components get their IDs before the diff, so the logged delta
		// carries them.
		c.assignIDs(req.db)
	} else {
		// A routed commit replaces only the relations and components of
		// its closure: its state is its base with those laid over, so the
		// chain head later commits build on is exactly what publication
		// and replay make of it — a staged transaction's chain is rebased
		// here too.
		req.db = overlay(base.DB, req.db, req.wrels, req.wset)
	}
	if durable || EditDeltaAudit != nil { // an installed audit sees in-memory commits too
		sp := req.trace.Child("wal.delta")
		var err error
		if req.views != nil {
			req.delta, err = diffSnapshots(base, &Snapshot{DB: req.db, Views: req.views})
		} else {
			req.delta = diffShard(base.DB, req.db, req.wrels, req.wset, req.ins)
		}
		sp.End()
		if err != nil {
			c.unlockShards(held)
			return err
		}
	}
	req.ps = ps
	req.epoch = c.epoch.Add(1)
	if len(ps) > 1 {
		defer c.unlockShards(held)
		if durable {
			for _, p := range ps {
				req.prev = append(req.prev, base.shardVers[p])
			}
			start := time.Now()
			err := c.shards[ps[0]].log.AppendBatch([]WALRecord{
				{Version: req.epoch, Stmts: req.stmts, Parts: ps, Prev: req.prev, Delta: req.delta}})
			req.trace.ChildSpan("wal.fsync", start, time.Since(start)).
				SetInt("batch", 1).SetInt("participants", int64(len(ps)))
			if err != nil {
				return fmt.Errorf("store: logging cross-shard commit e%d on shard %d: %w", req.epoch, ps[0], err)
			}
		}
		c.publish(req)
		return nil
	}
	si := ps[0]
	sh := c.shards[si]
	req.trace.SetInt("shard", int64(si))
	views := req.views
	if views == nil {
		views = base.Views
	}
	vers := append([]uint64{}, base.shardVers...)
	vers[si] = req.epoch
	head := &Snapshot{Version: req.epoch, DB: req.db, Views: views,
		shardVers: vers, compID: c.compID.Load()}
	sh.hmu.Lock()
	req.prev = []uint64{sh.headVer}
	sh.head, sh.headVer = head, req.epoch
	sh.hmu.Unlock()
	if !durable {
		c.publish(req)
		c.unlockShards(held)
		return nil
	}
	req.done = make(chan error, 1)
	req.enq = time.Now()
	sh.qmu.Lock()
	sh.queue = append(sh.queue, req)
	sh.qmu.Unlock()
	c.unlockShards(held)
	c.flushShard(si)
	return <-req.done
}

// flushShard elects a group-commit leader for one shard: the first
// committer to arrive while no flush is running takes the whole queue as
// one batch — its own record plus every committer that queued behind it
// — and persists it with a single fsync; everyone else returns
// immediately and waits on its own done channel. Commits that arrive
// during the fsync form the next batch; its leadership is handed to a
// fresh goroutine so a committer returns as soon as its own record is
// durable and published, instead of staying conscripted as the flusher
// of later arrivals for as long as load lasts. Disjoint shards flush
// concurrently.
func (c *Catalog) flushShard(si int) {
	sh := c.shards[si]
	sh.qmu.Lock()
	if sh.flushing || len(sh.queue) == 0 {
		sh.qmu.Unlock()
		return
	}
	sh.flushing = true
	batch := sh.queue
	sh.queue = nil
	sh.qmu.Unlock()
	c.flushShardBatch(si, batch)
	sh.qmu.Lock()
	sh.flushing = false
	// Wake waiters after every batch: WaitPublished blocks on versions
	// published mid-chain, not only on the queue going idle.
	sh.qcond.Broadcast()
	if len(sh.queue) > 0 {
		go c.flushShard(si)
	}
	sh.qmu.Unlock()
}

// flushShardBatch persists one drained batch to the shard's segment
// with a single fsync and publishes its epochs in order. Requests
// staged on an aborted chain (their base epoch no longer matches the
// published chain) are failed without being written.
func (c *Catalog) flushShardBatch(si int, batch []*commitReq) {
	sh := c.shards[si]
	sh.hmu.Lock()
	expect := sh.pubVer
	sh.hmu.Unlock()
	n := 0
	for n < len(batch) && batch[n].prev[0] == expect {
		expect = batch[n].epoch
		n++
	}
	ok, stale := batch[:n], batch[n:]
	if len(ok) > 0 {
		recs := make([]WALRecord, len(ok))
		for i, r := range ok {
			recs[i] = WALRecord{Version: r.epoch, Stmts: r.stmts, Prev: r.prev, Delta: r.delta}
		}
		flushStart := time.Now()
		err := sh.log.AppendBatch(recs)
		flushDur := time.Since(flushStart)
		if err != nil {
			c.abortShard(si, batch, fmt.Errorf("store: logging shard %d commit batch e%d..e%d: %w",
				si, recs[0].Version, recs[len(recs)-1].Version, err))
			return
		}
		for _, r := range ok {
			sh.queueHist.Observe(flushStart.Sub(r.enq))
			if r.trace != nil {
				// The done-channel send below orders these attaches before
				// the committer reads its trace.
				r.trace.ChildSpan("wal.queue", r.enq, flushStart.Sub(r.enq))
				r.trace.ChildSpan("wal.fsync", flushStart, flushDur).
					SetInt("batch", int64(len(ok)))
			}
			c.publish(r)
			r.done <- nil
		}
	}
	if len(stale) > 0 {
		c.abortShard(si, stale, fmt.Errorf("store: commit aborted: it was staged on a shard version whose log write failed"))
	}
}

// abortShard fails queued commits on one shard after a log-write
// failure: the shard head rolls back to its published state so the next
// transaction re-bases, and every commit already staged on the aborted
// chain (the failed batch plus anything queued behind it) gets the
// error. The catalog stays consistent — nothing unlogged was ever
// published — but concurrent commits in flight at the moment of a
// failed fsync fail with it.
func (c *Catalog) abortShard(si int, failed []*commitReq, err error) {
	sh := c.shards[si]
	sh.hmu.Lock()
	sh.head, sh.headVer = nil, sh.pubVer
	sh.hmu.Unlock()
	sh.qmu.Lock()
	trailing := sh.queue
	sh.queue = nil
	sh.qmu.Unlock()
	for _, r := range failed {
		r.done <- err
	}
	for _, r := range trailing {
		r.done <- err
	}
}

// publish merges one durable commit into the reader-visible snapshot
// and advances its participant shards past the epoch. A routed commit
// overlays the current snapshot (other relations may have published
// since it was staged); a whole-catalog commit holds every shard and
// replaces it.
func (c *Catalog) publish(req *commitReq) {
	c.pub.Lock()
	cur := c.cur.Load()
	db, views := req.db, req.views
	if views == nil {
		db, views = overlay(cur.DB, req.db, req.wrels, req.wset), cur.Views
	}
	vers := append([]uint64{}, cur.shardVers...)
	for _, p := range req.ps {
		vers[p] = req.epoch
	}
	c.cur.Store(&Snapshot{Version: max(cur.Version, req.epoch), DB: db, Views: views,
		shardVers: vers, compID: c.compID.Load()})
	c.pub.Unlock()
	for _, p := range req.ps {
		sh := c.shards[p]
		sh.hmu.Lock()
		sh.pubVer = req.epoch
		if sh.headVer <= req.epoch {
			// Chain drained: the next base is the merged snapshot.
			sh.head, sh.headVer = nil, req.epoch
		}
		sh.commits++
		sh.hmu.Unlock()
	}
}

// overlay lays a routed commit's staged decomposition onto another state
// with the same schema: the certain relations in rels and the components
// in wset (by stable ID) come from next; everything else keeps base's
// pointers. Publication overlays onto the current merged snapshot, and
// a staged transaction that passed validation is rebased onto its
// shards' head the same way. Routed commits never create components, so
// the overlay only replaces or drops — the component order is base's
// with touched entries substituted in place, which keeps publication
// order-independent across relations and shards.
func overlay(base, next *wsd.DecompDB, rels map[int]bool, wset map[uint64]bool) *wsd.DecompDB {
	out := &wsd.DecompDB{
		Names:   base.Names,
		Schemas: base.Schemas,
		Certain: append([]*relation.Relation{}, base.Certain...),
	}
	for ri := range rels {
		out.Certain[ri] = next.Certain[ri]
	}
	repl := map[uint64]wsd.DBComponent{}
	for _, comp := range next.Components {
		if wset[comp.ID] {
			repl[comp.ID] = comp
		}
	}
	out.Components = make([]wsd.DBComponent, 0, len(base.Components))
	for _, comp := range base.Components {
		if wset[comp.ID] {
			if nc, hit := repl[comp.ID]; hit {
				out.Components = append(out.Components, nc)
			}
			continue // absent in next: the commit folded or emptied it
		}
		out.Components = append(out.Components, comp)
	}
	return out
}

// drain blocks until no group commit is queued or mid-flush on the
// shard. Callers hold sh.mu, so nothing new can be enqueued meanwhile;
// once drained, the shard's head is nil and the published snapshot is
// current for it.
func (sh *shardState) drain() {
	sh.qmu.Lock()
	for sh.flushing || len(sh.queue) > 0 {
		sh.qcond.Wait()
	}
	sh.qmu.Unlock()
}

// WaitPublished blocks until the catalog's durable, reader-visible
// version reaches v, or until every shard's group-commit queue is idle
// (the commit that would have produced v was aborted). It is an
// advisory wait: conflict retry uses it so a transaction that lost
// first-committer-wins re-bases on the winner's published state instead
// of spinning its retry budget against a version still waiting on the
// group-commit fsync.
func (c *Catalog) WaitPublished(v uint64) {
	for c.cur.Load().Version < v {
		busy := false
		for _, sh := range c.shards {
			sh.qmu.Lock()
			if sh.flushing || len(sh.queue) > 0 {
				busy = true
				if c.cur.Load().Version < v {
					sh.qcond.Wait() // woken after every flushed batch
				}
			}
			sh.qmu.Unlock()
			if busy {
				break
			}
		}
		if !busy {
			return
		}
	}
}

// PendingCommits reports how many commits are enqueued for group
// commit but not yet durable (statistics and tests).
func (c *Catalog) PendingCommits() int {
	n := 0
	for _, sh := range c.shards {
		sh.qmu.Lock()
		n += len(sh.queue)
		sh.qmu.Unlock()
	}
	return n
}

// ShardStat is one shard's commit statistics.
type ShardStat struct {
	Shard     int    `json:"shard"`
	Version   uint64 `json:"version"`   // newest published epoch
	Commits   uint64 `json:"commits"`   // commits published
	Conflicts uint64 `json:"conflicts"` // staged commits refused on a relation homed here
	Pending   int    `json:"pending"`   // queued for group commit
	Syncs     uint64 `json:"syncs"`     // WAL fsyncs on this segment
}

// ShardObs exposes one shard's latency histograms: group-commit queue
// wait and WAL fsync. Fsync is nil when the shard is not durable.
type ShardObs struct {
	Shard int
	Queue *obs.Histogram
	Fsync *obs.Histogram
}

// ObsShards returns the live latency histograms per shard. The
// histograms are the catalog's own — concurrent commits keep updating
// them — so callers snapshot before exporting.
func (c *Catalog) ObsShards() []ShardObs {
	out := make([]ShardObs, len(c.shards))
	for i, sh := range c.shards {
		out[i] = ShardObs{Shard: i, Queue: &sh.queueHist, Fsync: sh.wal.FsyncHist()}
	}
	return out
}

// ShardStats reports per-shard commit statistics.
func (c *Catalog) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i, sh := range c.shards {
		sh.hmu.Lock()
		out[i] = ShardStat{Shard: i, Version: sh.pubVer, Commits: sh.commits, Conflicts: sh.conflicts}
		sh.hmu.Unlock()
		sh.qmu.Lock()
		out[i].Pending = len(sh.queue)
		sh.qmu.Unlock()
		if sh.wal != nil {
			out[i].Syncs = sh.wal.Syncs()
		}
	}
	return out
}
