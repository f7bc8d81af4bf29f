package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"worldsetdb/internal/obs"
)

// Write-ahead log: durability for the catalog without whole-snapshot
// saves. The log is one segment per shard (wal-<shard>.log under the
// WAL directory). Every committed transaction appends one record to the
// segment of each shard it wrote — the commit epoch, a page delta
// (delta.go) describing the commit's effect on durable state, and the
// I-SQL statement texts that produced it — and fsyncs before the
// version becomes visible (see commit in shard.go). Recovery (Open)
// loads the last checkpoint — one page file per shard — merges the
// segments by epoch and replays the tail: a record's delta is patched
// straight into the decomposition; statement re-execution (pure, hence
// deterministic: replaying record e against the state before e
// reproduces the state after it, byte for byte through Save) is the
// per-record fallback, counted in DurabilityStats.
//
// # On-disk format
//
// One JSON object per line:
// {"v":<epoch>,"stmts":[...],"shard":<i>,"parts":[...],"m":<marker>,
// "delta":{...},"crc":<sum>} with empty fields omitted, where crc is
// the IEEE CRC-32 of the record content (crcOfRecord). A torn tail
// (crash mid-append) fails the CRC or the JSON decode; OpenWAL truncates
// the file back to the last intact record. Checkpointing commits the
// page files and then truncates the segments; records are filtered by
// epoch on replay, so a crash between those two steps only leaves
// already-checkpointed records that replay skips.

// WALRecord is one committed transaction in the log.
type WALRecord struct {
	// Version is the global commit epoch the transaction committed as.
	Version uint64
	// Stmts are the statement texts that produced it, in execution order.
	Stmts []string
	// Shard is the shard whose segment holds the record.
	Shard int
	// Parts, when the commit spans shards, lists every participant
	// shard. A cross-shard record is staged once per participant
	// segment and is only valid if its epoch's commit marker exists.
	Parts []int
	// Marker marks the commit record of a cross-shard epoch: appended
	// to the coordinator segment after every participant's stage record
	// is durable. A staged cross-shard epoch without its marker is
	// discarded by recovery — the commit rolls back on all shards.
	Marker bool
	// Delta, when present, is the commit's effect on durable state
	// (delta.go); recovery applies it directly instead of re-executing
	// Stmts. Records written before deltas existed replay by statement.
	Delta *CommitDelta

	// deltaRaw is Delta's verbatim JSON as stored on disk — the CRC
	// covers these exact bytes, so a re-marshal can never invalidate a
	// record.
	deltaRaw []byte
}

// walLine is the on-disk framing of a record. The shard fields are
// omitted when empty, so shard 0's single-participant records keep the
// historical single-log format byte-for-byte (and such logs replay).
type walLine struct {
	Version uint64          `json:"v"`
	Stmts   []string        `json:"stmts"`
	Shard   int             `json:"shard,omitempty"`
	Parts   []int           `json:"parts,omitempty"`
	Marker  bool            `json:"m,omitempty"`
	Delta   json.RawMessage `json:"delta,omitempty"`
	CRC     uint32          `json:"crc"`
}

// crcOf sums the record content: version plus length-prefixed statement
// texts (the prefix keeps ["ab","c"] distinct from ["a","bc"]), plus —
// only when present, so historical records keep their sums — the
// cross-shard participant list, the marker flag and the delta bytes.
func crcOfRecord(rec WALRecord) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], rec.Version)
	h.Write(buf[:])
	for _, s := range rec.Stmts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		io.WriteString(h, s)
	}
	if len(rec.Parts) > 0 || rec.Marker {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(rec.Parts)))
		h.Write(buf[:])
		for _, p := range rec.Parts {
			binary.LittleEndian.PutUint64(buf[:], uint64(p))
			h.Write(buf[:])
		}
		if rec.Marker {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	if len(rec.deltaRaw) > 0 {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(rec.deltaRaw)))
		h.Write(buf[:])
		h.Write(rec.deltaRaw)
	}
	return h.Sum32()
}

// WAL is one open log segment. Attached to a catalog shard (Open, or
// SetShardLoggers), the shard's flush leader persists every waiting
// committer's record with one AppendBatch, one fsync. Safe for
// concurrent use (appends serialize on the WAL mutex; a checkpoint's
// truncate may race a commit from another goroutine).
type WAL struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	appended int    // records appended since open or last checkpoint
	tail     int    // records currently in the log (survivors at open + appends)
	syncs    uint64 // fsyncs issued for record appends (not checkpoints)

	// Checkpoint bookkeeping for the durability gauges: the catalog
	// version the last checkpoint persisted and when it completed. Both
	// are zero until the first checkpoint after open.
	lastCkptVer uint64
	lastCkptAt  time.Time

	// fsync measures the latency of each record-append fsync — the
	// durability cost the group-commit leader amortizes. Zero-value
	// usable; exported at isqld /metrics per shard segment.
	fsync obs.Histogram
}

// OpenWAL opens (creating if absent) the log at path and returns the
// intact records it holds. A torn tail — a final record interrupted by
// a crash — is detected by CRC/framing and truncated away so appending
// resumes from the last durable record.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	records, valid, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if info.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &WAL{f: f, path: path, tail: len(records)}, records, nil
}

// scanWAL reads records from the start of f, stopping (without error)
// at the first torn or corrupt line, and returns the records plus the
// byte length of the intact prefix. Lines are read without a length
// cap: a large committed record must never be mistaken for a torn tail.
func scanWAL(f *os.File) ([]WALRecord, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var records []WALRecord
	var valid int64
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A final line without its newline is a torn append.
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store: scanning WAL: %w", err)
		}
		var rec walLine
		if err := json.Unmarshal(line[:len(line)-1], &rec); err != nil {
			break // torn or corrupt tail
		}
		decoded := WALRecord{Version: rec.Version, Stmts: rec.Stmts,
			Shard: rec.Shard, Parts: rec.Parts, Marker: rec.Marker, deltaRaw: rec.Delta}
		if rec.CRC != crcOfRecord(decoded) {
			break
		}
		if len(decoded.deltaRaw) > 0 {
			d, err := decodeDelta(decoded.deltaRaw)
			if err != nil {
				break // CRC-intact but undecodable delta: treat as torn
			}
			decoded.Delta = d
		}
		records = append(records, decoded)
		valid += int64(len(line))
	}
	return records, valid, nil
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// AppendBatch writes a batch of committed transactions as one append
// and one fsync — the hook behind group commit. The batch is
// all-or-nothing from the caller's perspective: on a write or fsync
// failure the log is truncated back to its pre-append length and every
// record in the batch is aborted together — a half-durable record must
// not shadow a later successful commit. (A crash between the
// write and the fsync can still leave a durable prefix of the batch on
// disk; recovery replays exactly that intact prefix — those commits
// were never acknowledged, and replaying un-acked but durable records
// is indistinguishable from the commit having happened.)
func (w *WAL) AppendBatch(recs []WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	var buf []byte
	for _, rec := range recs {
		if len(rec.Stmts) == 0 && !rec.Marker {
			// A record with no statements cannot replay to a new version;
			// logging it would brick recovery. The caller staged changes
			// without Tx.Log — surface the bug at commit time. (Marker
			// records are the exception: they carry a decision, not
			// statements.)
			return fmt.Errorf("store: refusing to log commit v%d with no statement records (writer did not call Tx.Log)", rec.Version)
		}
		if rec.Delta != nil && len(rec.deltaRaw) == 0 {
			raw, err := json.Marshal(rec.Delta)
			if err != nil {
				return fmt.Errorf("store: encoding commit delta v%d: %w", rec.Version, err)
			}
			rec.deltaRaw = raw
		}
		line, err := json.Marshal(walLine{Version: rec.Version, Stmts: rec.Stmts,
			Shard: rec.Shard, Parts: rec.Parts, Marker: rec.Marker,
			Delta: json.RawMessage(rec.deltaRaw), CRC: crcOfRecord(rec)})
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	base, err := w.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	undo := func(cause error) error {
		if terr := w.f.Truncate(base); terr == nil {
			w.f.Seek(base, io.SeekStart)
		}
		return cause
	}
	if _, err := w.f.Write(buf); err != nil {
		return undo(fmt.Errorf("store: appending WAL batch of %d record(s): %w", len(recs), err))
	}
	syncStart := time.Now()
	if err := w.f.Sync(); err != nil {
		return undo(fmt.Errorf("store: fsyncing WAL batch of %d record(s): %w", len(recs), err))
	}
	w.fsync.Observe(time.Since(syncStart))
	w.appended += len(recs)
	w.tail += len(recs)
	w.syncs++
	return nil
}

// FsyncHist exposes the record-append fsync latency histogram.
func (w *WAL) FsyncHist() *obs.Histogram {
	if w == nil {
		return nil
	}
	return &w.fsync
}

// Syncs reports how many fsyncs record appends have issued. With group
// commit, concurrent committers share syncs: Syncs() can be far below
// the number of committed transactions (the amortization wsabench's
// TXN/group-commit ops record).
func (w *WAL) Syncs() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Appended reports the number of records appended since the log was
// opened or last checkpointed (the -checkpoint-every trigger).
func (w *WAL) Appended() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// TailRecords reports the number of records the log currently holds —
// the replay work a crash right now would cost. Unlike Appended it
// counts records that survived the last open, not just new appends.
func (w *WAL) TailRecords() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tail
}

// LastCheckpoint reports the catalog version and completion time of the
// last checkpoint taken through this log (zero values before the
// first). Feeds the wsdb_checkpoint_age_seconds gauge.
func (w *WAL) LastCheckpoint() (uint64, time.Time) {
	if w == nil {
		return 0, time.Time{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastCkptVer, w.lastCkptAt
}

// noteCheckpoint records that a checkpoint at version v completed.
func (w *WAL) noteCheckpoint(v uint64) {
	w.mu.Lock()
	w.lastCkptVer = v
	w.lastCkptAt = time.Now()
	w.mu.Unlock()
}

// reset truncates the log to empty after a checkpoint save.
func (w *WAL) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	if w.tail == 0 {
		// Already empty (torn tails are cut at open, failed appends on the
		// spot): a checkpoint with nothing logged since the last one pays
		// no truncate and no fsync.
		return nil
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL after checkpoint: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.appended = 0
	w.tail = 0
	return nil
}

// Checkpoint persists the merged snapshot as the new recovery base and
// truncates every shard segment, with all shard locks held and all
// queues drained so no commit can land (and then be lost to a truncate)
// between the snapshot read and the truncates — in-flight group commits
// finish first. Readers are unaffected; writers wait for the checkpoint.
//
// With paging enabled (Open / EnablePaging) the base is one page file
// per shard (the main file plus <wsdPath>.s<i> side files), each
// written incrementally — only pages of components touched since the
// previous checkpoint are rewritten, and a checkpoint at an
// already-persisted version writes nothing at all. Side files commit
// before the main file, so a crash mid-checkpoint leaves either the old
// base or a mixed set of per-shard epochs that recovery merges and
// heals from the WALs. Without paging the base is a v1 JSON document
// written atomically by SaveFile.
func (c *Catalog) Checkpoint(wsdPath string) error {
	all := c.allShards()
	c.lockShards(all)
	defer c.unlockShards(all)
	for _, sh := range c.shards {
		sh.drain()
	}
	snap := c.cur.Load()
	if len(c.pagers) == len(c.shards) && c.pagers[0] != nil && c.pagers[0].Path() == wsdPath {
		if err := c.checkpointPaged(snap, wsdPath); err != nil {
			return err
		}
	} else if err := SaveFile(wsdPath, snap); err != nil {
		return fmt.Errorf("store: writing checkpoint: %w", err)
	}
	for _, sh := range c.shards {
		if sh.wal == nil {
			continue
		}
		if err := sh.wal.reset(); err != nil {
			return err
		}
		sh.wal.noteCheckpoint(snap.Version)
	}
	return nil
}

// checkpointPaged writes the snapshot across the per-shard page
// files: side shards first (in parallel — they are independent files),
// the coordinating main file last. Every file records the full global
// version, so recovery can tell exactly which files a torn checkpoint
// advanced. Called with all shard locks held and queues drained.
func (c *Catalog) checkpointPaged(snap *Snapshot, wsdPath string) error {
	allNoop := true
	for _, ps := range c.pagers {
		if ps.Version() != snap.Version {
			allNoop = false
			break
		}
	}
	if allNoop {
		// Nothing committed since the last checkpoint on any shard: the
		// on-disk base already is this state. Zero writes.
		for _, ps := range c.pagers {
			ps.NoteNoop()
		}
		return nil
	}
	slices := ckptSlices(snap, len(c.shards), c.compID.Load())
	var wg sync.WaitGroup
	errs := make([]error, len(c.shards))
	for i := 1; i < len(c.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.pagers[i].WriteCheckpoint(slices[i])
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(c.shards); i++ {
		if errs[i] != nil {
			return fmt.Errorf("store: writing shard %d page checkpoint: %w", i, errs[i])
		}
	}
	if err := c.pagers[0].WriteCheckpoint(slices[0]); err != nil {
		return fmt.Errorf("store: writing shard 0 page checkpoint: %w", err)
	}
	// A previous run at a higher shard count can leave side files beyond
	// ours; they are stale the moment this full-set checkpoint commits.
	for i := len(c.shards); ; i++ {
		p := shardCkptPath(wsdPath, i)
		if _, err := os.Stat(p); err != nil {
			break
		}
		os.Remove(p)
	}
	return nil
}

// Close closes the log file. Appends after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Applier re-executes one committed WAL record against the catalog
// during recovery — the fallback for records that cannot replay by
// delta. It must apply the record's statements as a single transaction
// (isql.ReplayRecord is the canonical implementation — the store itself
// cannot parse I-SQL).
type Applier func(cat *Catalog, rec WALRecord) error

// SegmentPath returns the path of shard si's WAL segment under walDir.
func SegmentPath(walDir string, si int) string {
	return filepath.Join(walDir, fmt.Sprintf("wal-%d.log", si))
}

// adoptLegacyLog upgrades a WAL directory written by the pre-sharding
// single-log layout: its wal.log becomes shard 0's segment (the record
// format is the same — shard 0, no participant list — and the merged
// replay orders by epoch whatever the shard count). A non-empty wal.log
// next to a non-empty wal-0.log is ambiguous and refused: starting
// without either would silently drop committed transactions.
func adoptLegacyLog(walDir string) error {
	legacy := filepath.Join(walDir, "wal.log")
	li, err := os.Stat(legacy)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	seg := SegmentPath(walDir, 0)
	if si, err := os.Stat(seg); err == nil && si.Size() > 0 {
		if li.Size() > 0 {
			return fmt.Errorf("store: %s holds both a non-empty wal.log and a non-empty %s; refusing to pick one", walDir, filepath.Base(seg))
		}
		return os.Remove(legacy)
	}
	if err := os.Rename(legacy, seg); err != nil {
		return fmt.Errorf("store: adopting legacy wal.log as shard 0 segment: %w", err)
	}
	return fsyncDir(walDir)
}

// Open recovers a WAL-backed catalog partitioned nshards ways: load the
// last checkpoint from wsdPath (the empty catalog when none exists),
// scan every shard segment wal-<i>.log under walDir (torn tails
// truncated per segment), merge the intact records by epoch, discard
// cross-shard epochs whose commit marker is absent (the two-phase
// publish never finished — the transaction rolls back on every shard),
// replay the surviving epochs newer than the checkpoint in ascending
// order, and return the catalog with one WAL segment per shard
// attached, ready for new transactions. Epoch order is a valid
// serialization of the pre-crash execution: single-shard commits read
// only their shard and epochs are assigned under the shard locks, so
// replaying the merged sequence serially reproduces the per-shard
// states. The catalog after Open is byte-identical (through Save) to
// the last committed state before the crash: committed transactions
// survive, uncommitted ones vanish.
//
// A record replays by applying its page delta; a record without one,
// whose delta no longer applies, or that follows a gap in the epoch
// chain is re-executed through applier instead, and counted in
// DurabilityStats (ReplayFallbacks).
//
// The checkpoint base is one page file per shard (wsdPath plus
// wsdPath.s<i> side files) read through a buffer pool of poolPages
// frames per shard (<= 0 selects DefaultPoolPages; catalogs larger than
// the pool still recover). A torn multi-file checkpoint leaves the
// files at mixed epochs, so recovery merges them — each object from the
// newest file holding it — and replays every WAL epoch newer than the
// oldest file, which delta replay makes idempotent. A historical v1
// JSON document at wsdPath also loads; the first checkpoint through the
// returned catalog migrates it to the page format. A wal.log left by
// the pre-sharding single-log layout is adopted as shard 0's segment.
func Open(wsdPath, walDir string, nshards int, applier Applier, poolPages int) (*Catalog, []*WAL, error) {
	if err := adoptLegacyLog(walDir); err != nil {
		return nil, nil, err
	}
	cat, err := loadBase(wsdPath, nshards, poolPages)
	if err != nil {
		return nil, nil, err
	}
	wals := make([]*WAL, len(cat.shards))
	fail := func(err error) (*Catalog, []*WAL, error) {
		for _, w := range wals {
			if w != nil {
				w.Close()
			}
		}
		for _, ps := range cat.pagers {
			if ps != nil {
				ps.Close()
			}
		}
		return nil, nil, err
	}
	type epochRec struct {
		stmts  []string
		parts  []int
		delta  *CommitDelta
		home   int // lowest shard whose segment holds the stage record
		marked bool
	}
	epochs := map[uint64]*epochRec{}
	for si := range wals {
		wal, records, err := OpenWAL(SegmentPath(walDir, si))
		if err != nil {
			return fail(err)
		}
		wals[si] = wal
		for _, rec := range records {
			er := epochs[rec.Version]
			if er == nil {
				er = &epochRec{home: si}
				epochs[rec.Version] = er
			}
			if rec.Marker {
				er.marked = true
				continue
			}
			er.stmts = rec.Stmts
			er.parts = rec.Parts
			if rec.Delta != nil {
				er.delta = rec.Delta
			}
		}
	}
	base := cat.Snapshot().Version
	var order []uint64
	for e, er := range epochs {
		if e <= base {
			continue // already in the checkpoint (crash between save and truncate)
		}
		if len(er.parts) > 1 && !er.marked {
			continue // unmarked cross-shard prefix: rolls back everywhere
		}
		if len(er.stmts) == 0 {
			continue // marker without any surviving stage record
		}
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	// Delta replay is only sound while the surviving epoch chain is
	// dense: a delta captures whole objects as of its commit, so applying
	// one after an earlier epoch was discarded (torn segment, rolled-back
	// cross-shard commit, epoch burned by a failed fsync) would resurrect
	// that epoch's effects. The first gap switches the rest of the replay
	// to statement re-execution — the reference semantics for arbitrary
	// surviving subsets.
	dense := true
	expected := base + 1
	for _, e := range order {
		er := epochs[e]
		if e != expected {
			dense = false
		}
		expected = e + 1
		if dense && er.delta != nil {
			cur := cat.Snapshot()
			if db, views, aerr := applyDelta(cur.DB, cur.Views, er.delta); aerr == nil {
				cat.reset(&Snapshot{Version: e, DB: db, Views: views})
				continue
			}
			dense = false
		}
		cat.shards[er.home].replayFallbacks++
		if err := applier(cat, WALRecord{Version: e, Stmts: er.stmts}); err != nil {
			return fail(fmt.Errorf("store: replaying WAL epoch e%d: %w", e, err))
		}
	}
	// Re-stamp the catalog at the last durable epoch so the recovered
	// Version (which Save persists) matches the pre-crash published
	// state rather than the compressed replay count.
	last := base
	if len(order) > 0 {
		last = order[len(order)-1]
	}
	cat.reset(&Snapshot{Version: last, DB: cat.Snapshot().DB, Views: cat.Snapshot().Views})
	cat.SetShardLoggers(wals)
	return cat, wals, nil
}

// loadBase loads the checkpoint base into an nshards-way catalog with
// one PageStore per shard attached (uninitialized stores for files that
// do not exist yet — the first checkpoint creates them).
// With a page-file main base, side files are probed past nshards too: a
// catalog checkpointed at a higher shard count keeps its objects in
// files the current count does not write, and the merge must still see
// them.
func loadBase(wsdPath string, nshards, poolPages int) (*Catalog, error) {
	nshards = max(nshards, 1)
	pagers := make([]*PageStore, nshards)
	var extras []*PageStore
	done := func(cat *Catalog) (*Catalog, error) {
		cat.shard(nshards)
		cat.pagers = pagers
		return cat, nil
	}
	fail := func(err error) (*Catalog, error) {
		for _, ps := range pagers {
			if ps != nil {
				ps.Close()
			}
		}
		for _, ps := range extras {
			ps.Close()
		}
		return nil, err
	}
	main, loaded, err := OpenPageStore(wsdPath, 0, true, poolPages)
	if err != nil {
		return fail(fmt.Errorf("store: loading checkpoint: %w", err))
	}
	pagers[0] = main
	if loaded == nil {
		// Legacy v1 JSON (or no file at all): load it whole; the pagers
		// stay uninitialized until the first checkpoint migrates the base
		// to the page format.
		var cat *Catalog
		switch _, serr := os.Stat(wsdPath); {
		case serr == nil:
			cat, err = LoadFile(wsdPath)
			if err != nil {
				return fail(fmt.Errorf("store: loading checkpoint: %w", err))
			}
		case os.IsNotExist(serr):
			cat = New(nil)
		default:
			return fail(serr)
		}
		for i := 1; i < nshards; i++ {
			ps, _, perr := OpenPageStore(shardCkptPath(wsdPath, i), i, false, poolPages)
			if perr != nil {
				return fail(fmt.Errorf("store: opening shard %d page store: %w", i, perr))
			}
			pagers[i] = ps
		}
		return done(cat)
	}
	files := []*loadedShard{loaded}
	for i := 1; ; i++ {
		p := shardCkptPath(wsdPath, i)
		if _, serr := os.Stat(p); os.IsNotExist(serr) {
			if i < nshards {
				ps, _, perr := OpenPageStore(p, i, false, poolPages)
				if perr != nil {
					return fail(fmt.Errorf("store: opening shard %d page store: %w", i, perr))
				}
				pagers[i] = ps
				continue
			}
			break
		}
		ps, sl, perr := OpenPageStore(p, i, false, poolPages)
		if perr != nil {
			return fail(fmt.Errorf("store: loading shard %d checkpoint: %w", i, perr))
		}
		if sl == nil {
			ps.Close()
			return fail(fmt.Errorf("store: shard checkpoint %s exists but is not a page file", p))
		}
		files = append(files, sl)
		if i < nshards {
			pagers[i] = ps
		} else {
			// Stale file from a higher shard count: its objects join the
			// merge, but the store closes now — the next checkpoint
			// deletes the file.
			extras = append(extras, ps)
		}
	}
	snap, compID, err := mergeLoaded(files)
	if err != nil {
		return fail(fmt.Errorf("store: merging shard checkpoints: %w", err))
	}
	for _, ps := range extras {
		ps.Close()
	}
	return done(newCatalog(snap, compID))
}
