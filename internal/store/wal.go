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
// segments by epoch and replays the tail by patching each record's
// delta straight into the decomposition. A record replays only if it
// links: on every participant shard it was staged on exactly the
// version recovery has reached there (prev). Anything else — a broken
// link, a committed record without a delta, a delta that does not apply
// — is a *RecoveryError, never a silently different world-set. The
// statement texts are provenance (slow-query logs, and the oracle the
// crash tests compare delta replay against); recovery never runs them.
//
// # On-disk format
//
// One JSON object per line:
// {"v":<epoch>,"stmts":[...],"shard":<i>,"parts":[...],"m":<marker>,
// "prev":[...],"delta":{...},"crc":<sum>} with empty fields omitted,
// where crc is the IEEE CRC-32 of the record content (crcOfRecord). A
// torn tail (crash mid-append) fails the CRC or the JSON decode; Open
// truncates the file back to the last intact record. Checkpointing
// commits the page files and then truncates the segments; records are
// filtered by epoch on replay, so a crash between those two steps only
// leaves already-checkpointed records that replay skips.

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
	// Prev is, per participant shard (aligned with Parts, or the one
	// entry for Shard when Parts is empty), the shard version the commit
	// was staged on. Recovery applies the record only where every entry
	// matches the version it has reached on that shard. Absent on records
	// written before it existed, which link by epoch density instead.
	Prev []uint64
	// Delta is the commit's effect on durable state (delta.go) — what
	// recovery applies. Absent only on markers.
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
	Prev    []uint64        `json:"prev,omitempty"`
	Delta   json.RawMessage `json:"delta,omitempty"`
	CRC     uint32          `json:"crc"`
}

// crcOf sums the record content: version plus length-prefixed statement
// texts (the prefix keeps ["ab","c"] distinct from ["a","bc"]), plus —
// only when present, so historical records keep their sums — the
// cross-shard participant list, the marker flag, the staged-on shard
// versions and the delta bytes.
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
	if len(rec.Prev) > 0 {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(rec.Prev)))
		h.Write(buf[:])
		for _, v := range rec.Prev {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	if len(rec.deltaRaw) > 0 {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(rec.deltaRaw)))
		h.Write(buf[:])
		h.Write(rec.deltaRaw)
	}
	return h.Sum32()
}

// WAL is one open log segment, attached to a catalog shard by Open: the
// shard's flush leader persists every waiting committer's record with
// one AppendBatch, one fsync. Safe for concurrent use (appends
// serialize on the WAL mutex; a checkpoint's truncate may race a commit
// from another goroutine).
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

// RecoveryError reports durable state Open cannot recover without
// guessing: a record that does not link to the version recovery reached
// on one of its shards, a committed record without a page delta, a
// delta that does not apply, or a CRC-intact record that does not
// decode. The directory is left as found.
type RecoveryError struct {
	Shard  int    // shard (segment) the offending record belongs to
	Epoch  uint64 // its commit epoch
	Reason string
}

func (e *RecoveryError) Error() string {
	return fmt.Sprintf("store: recovery refused at shard %d, epoch e%d: %s", e.Shard, e.Epoch, e.Reason)
}

// segmentName is the file name of shard si's WAL segment.
func segmentName(si int) string { return fmt.Sprintf("wal-%d.log", si) }

func segmentPath(walDir string, si int) string { return filepath.Join(walDir, segmentName(si)) }

// openWAL opens (creating if absent) shard si's segment under walDir
// and returns the intact records it holds. A torn tail — a final record
// interrupted by a crash — is detected by CRC/framing and truncated
// away so appending resumes from the last durable record.
func openWAL(walDir string, si int) (*WAL, []WALRecord, error) {
	path := segmentPath(walDir, si)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	records, valid, err := scanWAL(f, si)
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

// scanWAL reads shard si's records from r, stopping (without error) at
// the first torn or corrupt line, and returns the records plus the byte
// length of the intact prefix. Lines are read without a length cap: a
// large committed record must never be mistaken for a torn tail. A line
// whose CRC holds was written whole, so a delta in it that does not
// decode is format skew or a bug, not a tear: that is a *RecoveryError,
// and nothing behind it is touched.
func scanWAL(r io.Reader, si int) ([]WALRecord, int64, error) {
	var records []WALRecord
	var valid int64
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, err := br.ReadBytes('\n')
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
		decoded := WALRecord{Version: rec.Version, Stmts: rec.Stmts, Shard: rec.Shard,
			Parts: rec.Parts, Marker: rec.Marker, Prev: rec.Prev, deltaRaw: rec.Delta}
		if rec.CRC != crcOfRecord(decoded) {
			break
		}
		if len(decoded.deltaRaw) > 0 {
			d, err := decodeDelta(decoded.deltaRaw)
			if err != nil {
				return nil, 0, &RecoveryError{Shard: si, Epoch: rec.Version,
					Reason: fmt.Sprintf("%s holds a CRC-intact record whose delta does not decode: %v", segmentName(si), err)}
			}
			decoded.Delta = d
		}
		records = append(records, decoded)
		valid += int64(len(line))
	}
	return records, valid, nil
}

// frameRecord renders rec as its log line, newline included: the delta
// is encoded once and the CRC sums those exact bytes.
func frameRecord(rec WALRecord) ([]byte, error) {
	if rec.Delta != nil && len(rec.deltaRaw) == 0 {
		raw, err := json.Marshal(rec.Delta)
		if err != nil {
			return nil, fmt.Errorf("store: encoding commit delta v%d: %w", rec.Version, err)
		}
		rec.deltaRaw = raw
	}
	line, err := json.Marshal(walLine{Version: rec.Version, Stmts: rec.Stmts,
		Shard: rec.Shard, Parts: rec.Parts, Marker: rec.Marker, Prev: rec.Prev,
		Delta: json.RawMessage(rec.deltaRaw), CRC: crcOfRecord(rec)})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
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
		switch {
		case rec.Marker: // carries a decision, not a change
		case len(rec.Stmts) == 0:
			// The statement texts are the record's provenance; a commit
			// without them was staged by a writer that skipped Tx.Log —
			// surface the bug at commit time.
			return fmt.Errorf("store: refusing to log commit v%d with no statement records (writer did not call Tx.Log)", rec.Version)
		case rec.Delta == nil && len(rec.deltaRaw) == 0:
			// Recovery replays deltas and nothing else: logging a commit
			// without one would make Open refuse the directory.
			return fmt.Errorf("store: refusing to log commit v%d with no page delta", rec.Version)
		}
		line, err := frameRecord(rec)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
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
// The base is the page files Open attached, one per shard (the main
// file plus <wsdPath>.s<i> side files), each written incrementally —
// only pages of components touched since the previous checkpoint are
// rewritten, and a checkpoint at an already-persisted version writes
// nothing at all. Side files commit before the main file, so a crash
// mid-checkpoint leaves either the old base or a mixed set of per-shard
// epochs that recovery merges and heals from the WALs.
func (c *Catalog) Checkpoint() error {
	if len(c.pagers) == 0 {
		return fmt.Errorf("store: Checkpoint on a catalog that was not opened with Open")
	}
	all := c.allShards()
	c.lockShards(all)
	defer c.unlockShards(all)
	for _, sh := range c.shards {
		sh.drain()
	}
	snap := c.cur.Load()
	if err := c.checkpointPaged(snap); err != nil {
		return err
	}
	for _, sh := range c.shards {
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
func (c *Catalog) checkpointPaged(snap *Snapshot) error {
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
		p := shardCkptPath(c.pagers[0].Path(), i)
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
	seg := segmentPath(walDir, 0)
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

// holdsState reports whether the directory already holds a durable
// catalog: a checkpoint at wsdPath or a non-empty log segment. Empty
// files are what a crash before the seed checkpoint committed leaves
// behind, and count as fresh.
func holdsState(wsdPath, walDir string) (bool, error) {
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil {
		return false, err
	}
	for _, p := range append(segs, wsdPath) {
		fi, err := os.Stat(p)
		if err == nil && fi.Size() > 0 {
			return true, nil
		}
		if err != nil && !os.IsNotExist(err) {
			return false, err
		}
	}
	return false, nil
}

// Open is the one way a durable catalog comes into being: it creates or
// recovers the catalog rooted at walDir (created if absent), partitioned
// nshards ways, with its checkpoint base at wsdPath and one WAL segment
// wal-<i>.log per shard attached, ready for new transactions.
//
// A directory that holds no state is seeded: seed() (nil = the empty
// catalog) becomes the first version and is checkpointed before Open
// returns, so the seed itself is durable. A directory that holds state
// — a checkpoint or a non-empty segment; a wal.log left by the
// pre-sharding single-log layout is adopted as shard 0's segment — is
// recovered and seed is never called: load the last checkpoint, scan
// every segment (torn tails truncated per segment) and replay the tail
// by patching page deltas (see replay). The catalog after Open is
// byte-identical (through Save) to the last committed state before the
// crash: committed transactions survive, uncommitted ones vanish. A
// record that does not link, carries no delta, or whose delta does not
// apply makes Open fail with a *RecoveryError and leaves the directory
// as found.
//
// The checkpoint base is one page file per shard (wsdPath plus
// wsdPath.s<i> side files) read through a buffer pool of poolPages
// frames per shard (<= 0 selects DefaultPoolPages; catalogs larger than
// the pool still recover). A torn multi-file checkpoint leaves the
// files at mixed epochs, so recovery merges them — each object from the
// newest file holding it — and re-applies every WAL epoch newer than
// the oldest file, which is idempotent. Anything else at wsdPath (a
// .wsd JSON export, say) is refused: import it into a fresh directory
// through the seed.
func Open(wsdPath, walDir string, nshards, poolPages int, seed func() (*Catalog, error)) (*Catalog, []*WAL, error) {
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := adoptLegacyLog(walDir); err != nil {
		return nil, nil, err
	}
	recovering, err := holdsState(wsdPath, walDir)
	if err != nil {
		return nil, nil, err
	}
	var cat *Catalog
	var newest uint64 // newest checkpoint file version; above it deltas apply strictly
	if recovering {
		if cat, newest, err = loadBase(wsdPath, nshards, poolPages); err != nil {
			return nil, nil, err
		}
	}
	if cat == nil {
		// Nothing checkpointed: a fresh directory starts from the seed, one
		// that holds only log segments from the empty catalog. The first
		// checkpoint creates (or atomically replaces) the page files.
		cat = New(nil)
		if !recovering && seed != nil {
			if cat, err = seed(); err != nil {
				return nil, nil, err
			}
		}
		cat.shard(nshards)
		cat.pagers = make([]*PageStore, len(cat.shards))
		for i := range cat.pagers {
			cat.pagers[i] = newPageStore(shardCkptPath(wsdPath, i), i, poolPages)
		}
	}
	wals := make([]*WAL, len(cat.shards))
	fail := func(err error) (*Catalog, []*WAL, error) {
		for _, w := range wals {
			if w != nil {
				w.Close()
			}
		}
		for _, ps := range cat.pagers {
			ps.Close()
		}
		return nil, nil, err
	}
	segs := make([][]WALRecord, len(wals))
	for si := range wals {
		if wals[si], segs[si], err = openWAL(walDir, si); err != nil {
			return fail(err)
		}
	}
	if err := cat.replay(segs, newest); err != nil {
		return fail(err)
	}
	for i, sh := range cat.shards {
		sh.log, sh.wal = wals[i], wals[i]
	}
	if !recovering {
		// Replay starts from the checkpoint, so the seed must be in one
		// before the first transaction is acknowledged.
		if err := cat.Checkpoint(); err != nil {
			return fail(fmt.Errorf("store: checkpointing seed: %w", err))
		}
	}
	return cat, wals, nil
}

// loggedCommit is one commit as the segments describe it: the stage
// records of its participants merged, plus whether its marker was seen.
type loggedCommit struct {
	epoch  uint64
	home   int      // lowest shard whose segment holds a stage record
	parts  []int    // participant shards
	prev   []uint64 // per participant, the shard version it was staged on; nil on legacy records
	delta  *CommitDelta
	staged bool
	marked bool
}

// replay applies the surviving log tail in segs (one record slice per
// shard segment) to the freshly loaded base and republishes the result
// with every shard at the version replay reached on it, so the next
// commit's prev links on the next recovery whether or not a checkpoint
// comes first.
//
// Records are grouped into commits by epoch and participant list — a
// stale stage record of a rolled-back epoch can never merge with a live
// commit that was later numbered the same — and a staged cross-shard
// commit without its marker is discarded: the two-phase publish never
// finished, the transaction rolls back on every shard. The survivors
// newer than the checkpoint apply in epoch order, a valid serialization
// of the pre-crash execution (single-shard commits read only their
// shard, and epochs are assigned under the shard locks). A commit links
// if, on every participant shard p, the version it was staged on is the
// version replay has reached on p (a predecessor at or below the
// checkpoint is in the base). Routed deltas are shard-scoped, so only
// the per-shard chain matters: an epoch missing elsewhere (burned by a
// failed fsync, rolled back, or torn off another segment) does not
// break it. Records written before prev existed link by density of the
// global epoch chain instead. Deltas at or below newest — the newest
// file of a torn mixed-epoch checkpoint — may already be in the base
// and re-apply leniently.
func (c *Catalog) replay(segs [][]WALRecord, newest uint64) error {
	type key struct {
		epoch uint64
		parts string
	}
	commits := map[key]*loggedCommit{}
	base := c.cur.Load()
	top := base.Version // the epoch counter resumes above every epoch seen, discarded or not
	for si, records := range segs {
		for _, rec := range records {
			top = max(top, rec.Version)
			parts := rec.Parts
			if len(parts) == 0 {
				parts = []int{si}
			}
			k := key{rec.Version, fmt.Sprint(parts)}
			lc := commits[k]
			if lc == nil {
				lc = &loggedCommit{epoch: rec.Version, home: si, parts: parts}
				commits[k] = lc
			}
			if rec.Marker {
				lc.marked = true
				continue
			}
			// Every stage record of a commit carries the same delta and
			// links; between a stale and a live one, the later is live.
			lc.staged = true
			lc.delta, lc.prev = rec.Delta, rec.Prev
		}
	}
	var order []*loggedCommit
	for _, lc := range commits {
		if lc.epoch <= base.Version {
			continue // already in the checkpoint (crash between save and truncate)
		}
		if len(lc.parts) > 1 && !lc.marked {
			continue // unmarked cross-shard prefix: rolls back everywhere
		}
		if !lc.staged {
			return &RecoveryError{Shard: lc.home, Epoch: lc.epoch, Reason: "commit marker without a surviving stage record"}
		}
		order = append(order, lc)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].epoch < order[j].epoch })

	ver := make([]uint64, len(c.shards))
	for p := range ver {
		ver[p] = base.Version
	}
	db, views, last := base.DB, base.Views, base.Version
	for _, lc := range order {
		refuse := func(shard int, format string, a ...any) error {
			return &RecoveryError{Shard: shard, Epoch: lc.epoch, Reason: fmt.Sprintf(format, a...)}
		}
		if lc.epoch == last {
			return refuse(lc.home, "two committed records claim the epoch")
		}
		if lc.prev != nil && len(lc.prev) != len(lc.parts) {
			return refuse(lc.home, "record lists %d staged-on versions for %d participant shard(s)", len(lc.prev), len(lc.parts))
		}
		for i, p := range lc.parts {
			switch {
			case p < 0 || p >= len(ver):
				return refuse(lc.home, "participant shard %d does not exist at %d shard(s); recover at the shard count that wrote the log", p, len(ver))
			case lc.prev == nil && lc.epoch != last+1:
				return refuse(p, "record from a build that predates per-shard links does not follow e%d densely; recover with the build that wrote it, shut that down cleanly, then reopen", last)
			case lc.prev != nil && max(lc.prev[i], base.Version) != ver[p]:
				return refuse(p, "staged on shard version e%d, but recovery reached e%d there: a predecessor is missing from %s", lc.prev[i], ver[p], segmentName(p))
			}
		}
		if lc.delta == nil {
			return refuse(lc.home, "committed record carries no page delta (written by a build that replayed statements); recover with that build, shut it down cleanly, then reopen")
		}
		var err error
		if db, views, err = applyDelta(db, views, lc.delta, lc.epoch <= newest); err != nil {
			return refuse(lc.home, "page delta does not apply: %v", err)
		}
		for _, u := range lc.delta.Upserts {
			c.raiseCompID(u.ID)
		}
		for _, p := range lc.parts {
			ver[p] = lc.epoch
		}
		last = lc.epoch
	}
	c.reset(&Snapshot{Version: last, DB: db, Views: views}, ver)
	c.epoch.Store(top)
	return nil
}

// loadBase loads the checkpoint base into an nshards-way catalog with
// one PageStore per shard attached, and returns the newest version any
// of its files holds (the catalog's own version is the oldest); a nil
// catalog when there is no main file — a directory holding only log
// segments. Side files are probed past nshards too: a catalog
// checkpointed at a higher shard count keeps its objects in files the
// current count does not write, and the merge must still see them.
func loadBase(wsdPath string, nshards, poolPages int) (*Catalog, uint64, error) {
	nshards = max(nshards, 1)
	var opened []*PageStore
	fail := func(err error) (*Catalog, uint64, error) {
		for _, ps := range opened {
			ps.Close()
		}
		return nil, 0, err
	}
	var files []*loadedShard
	for i := 0; ; i++ {
		ps, ls, err := openPageStore(shardCkptPath(wsdPath, i), i, poolPages)
		if err != nil {
			return fail(fmt.Errorf("store: loading shard %d checkpoint: %w", i, err))
		}
		if ls == nil {
			if i == 0 {
				return nil, 0, nil
			}
			if i >= nshards {
				break
			}
		}
		opened = append(opened, ps)
		if ls != nil {
			files = append(files, ls)
		}
	}
	snap, compID, err := mergeLoaded(files)
	if err != nil {
		return fail(fmt.Errorf("store: merging shard checkpoints: %w", err))
	}
	newest := snap.Version
	for _, f := range files {
		newest = max(newest, f.Version)
	}
	// Files past nshards are stale the moment the next checkpoint
	// commits (it deletes them); their objects joined the merge above.
	for _, ps := range opened[nshards:] {
		ps.Close()
	}
	cat := newCatalog(snap, compID)
	cat.shard(nshards)
	cat.pagers = opened[:nshards]
	return cat, newest, nil
}
