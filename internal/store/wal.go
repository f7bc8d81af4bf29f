package store

import (
	"bufio"
	"bytes"
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
// WAL directory). Every committed transaction appends exactly one
// record — the commit epoch, its participant shards with the version it
// was staged on at each, a page delta (delta.go) of what it touched
// (for a schema change too: never the rest of the catalog), and the
// I-SQL statement texts that produced it — to the segment of its lowest
// participant shard, and fsyncs it before the version becomes visible
// (see commit in shard.go). Segments stay per shard so group commit and
// fsync run in parallel on disjoint shards; the checkpoint they are
// replayed over is one page file at every shard count. Recovery (Open)
// loads that checkpoint, merges the segments by epoch and replays the
// tail by patching each record's delta straight into the
// decomposition. A record replays only if it
// links: on every participant shard it was staged on exactly the
// version recovery has reached there (prev). Anything else — a broken
// link, a record without a delta, a delta that does not apply, a record
// in another build's format — is a *RecoveryError, never a silently
// different world-set. The statement texts are provenance (slow-query
// logs, and the oracle the crash tests compare delta replay against);
// recovery never runs them.
//
// # On-disk format
//
// One JSON object per line:
// {"f":3,"v":<epoch>,"stmts":[...],"parts":[...],"prev":[...],
// "delta":{...},"crc":<sum>}, where f is the log format (walFormat),
// parts is omitted when the commit has one participant — the shard whose
// segment holds it — and crc is the IEEE CRC-32 of the record content
// (crcOfRecord). A torn tail (crash mid-append) fails the CRC or the
// JSON decode; Open truncates the file back to the last intact record.
// A whole line in any other format is refused, never cut. Checkpointing
// commits the page file and then truncates the segments; records are
// filtered by epoch on replay, so a crash between those two steps only
// leaves already-checkpointed records that replay skips.

// walFormat is the log format this build writes and reads. Logs of
// other formats are refused: recover them with the build that wrote
// them and shut it down cleanly, which leaves the segments empty. Format
// 2 logged a schema change as the whole catalog ("full"); 3 as a patch.
const walFormat = 3

// WALRecord is one committed transaction in the log.
type WALRecord struct {
	// Version is the global commit epoch the transaction committed as.
	Version uint64
	// Stmts are the statement texts that produced it, in execution order.
	Stmts []string
	// Parts lists the participant shards, sorted, when the commit spans
	// several; the record sits on the lowest one's segment. Empty: the
	// commit's one participant is the shard whose segment holds it.
	Parts []int
	// Prev is, per participant shard (aligned with Parts, or the one
	// entry when Parts is empty), the shard version the commit was
	// staged on. Recovery applies the record only where every entry
	// matches the version it has reached on that shard.
	Prev []uint64
	// Delta is the commit's effect on durable state (delta.go) — what
	// recovery applies.
	Delta *CommitDelta

	// deltaRaw is Delta's verbatim JSON as stored on disk — the CRC
	// covers these exact bytes, so a re-marshal can never invalidate a
	// record.
	deltaRaw []byte
}

// walLine is the on-disk framing of a record.
type walLine struct {
	Format  int             `json:"f"`
	Version uint64          `json:"v"`
	Stmts   []string        `json:"stmts"`
	Parts   []int           `json:"parts,omitempty"`
	Prev    []uint64        `json:"prev,omitempty"`
	Delta   json.RawMessage `json:"delta,omitempty"`
	CRC     uint32          `json:"crc"`
}

// crcOfRecord sums the record content: the format number, the version,
// the length-prefixed statement texts (the prefix keeps ["ab","c"]
// distinct from ["a","bc"]), the participant list, the staged-on shard
// versions and the delta bytes.
func crcOfRecord(rec WALRecord) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(walFormat)
	put(rec.Version)
	put(uint64(len(rec.Stmts)))
	for _, s := range rec.Stmts {
		put(uint64(len(s)))
		io.WriteString(h, s)
	}
	put(uint64(len(rec.Parts)))
	for _, p := range rec.Parts {
		put(uint64(p))
	}
	put(uint64(len(rec.Prev)))
	for _, v := range rec.Prev {
		put(v)
	}
	put(uint64(len(rec.deltaRaw)))
	h.Write(rec.deltaRaw)
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

	// fsync measures the latency of each record-append fsync — the
	// durability cost the group-commit leader amortizes. Zero-value
	// usable; exported at isqld /metrics per shard segment.
	fsync obs.Histogram
}

// RecoveryError reports durable state Open cannot recover without
// guessing: a record that does not link to the version recovery reached
// on one of its shards, a record without a page delta, a delta that
// does not apply, a CRC-intact record that does not decode, a record in
// another log format, or a log Open would not read. The directory is
// left as found.
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
// and returns the intact records it holds and their byte length. A torn
// tail behind them — a final record interrupted by a crash — stays in
// place: Open cuts it (cutTail) only once recovery has succeeded, so a
// refused directory is left as found.
func openWAL(walDir string, si int) (*WAL, []WALRecord, int64, error) {
	path := segmentPath(walDir, si)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: opening WAL: %w", err)
	}
	records, valid, err := scanWAL(f, si)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return &WAL{f: f, path: path, tail: len(records)}, records, valid, nil
}

// cutTail truncates the segment to its intact prefix of valid bytes, so
// appending resumes after the last durable record.
func (w *WAL) cutTail(valid int64) error {
	info, err := w.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() > valid {
		if err := w.f.Truncate(valid); err != nil {
			return fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	_, err = w.f.Seek(valid, io.SeekStart)
	return err
}

// scanWAL reads shard si's records from r, stopping (without error) at
// the first torn or corrupt line, and returns the records plus the byte
// length of the intact prefix. Lines are read without a length cap: a
// large committed record must never be mistaken for a torn tail. A
// whole line that decodes is not a tear, so one in another log format
// is a *RecoveryError — checked before the CRC, whose layout is the
// format's — and so is a CRC-intact delta that does not decode (format
// skew or a bug). Nothing behind a refusal is touched.
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
		if rec.Format != walFormat {
			return nil, 0, &RecoveryError{Shard: si, Epoch: rec.Version,
				Reason: fmt.Sprintf("%s holds a record in log format %d, not %d: recover with the build that wrote it, shut that down cleanly, then reopen", segmentName(si), rec.Format, walFormat)}
		}
		decoded := WALRecord{Version: rec.Version, Stmts: rec.Stmts, Parts: rec.Parts, Prev: rec.Prev, deltaRaw: rec.Delta}
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
	line, err := json.Marshal(walLine{Format: walFormat, Version: rec.Version, Stmts: rec.Stmts,
		Parts: rec.Parts, Prev: rec.Prev, Delta: json.RawMessage(rec.deltaRaw), CRC: crcOfRecord(rec)})
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
		if len(rec.Stmts) == 0 {
			// The statement texts are the record's provenance; a commit
			// without them was staged by a writer that skipped Tx.Log —
			// surface the bug at commit time.
			return fmt.Errorf("store: refusing to log commit v%d with no statement records (writer did not call Tx.Log)", rec.Version)
		}
		if rec.Delta == nil && len(rec.deltaRaw) == 0 {
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
// The base is the one page file Open attached, written incrementally —
// only pages of objects touched since the previous checkpoint are
// rewritten, and a checkpoint at an already-persisted version writes
// nothing at all. It commits with one meta-slot flip, so a crash
// mid-checkpoint leaves the previous base, whole, and the segments
// still holding everything since.
func (c *Catalog) Checkpoint() error {
	if c.pager == nil {
		return fmt.Errorf("store: Checkpoint on a catalog that was not opened with Open")
	}
	all := c.allShards()
	c.lockShards(all)
	defer c.unlockShards(all)
	for _, sh := range c.shards {
		sh.drain()
	}
	if err := c.pager.WriteCheckpoint(c.cur.Load(), c.compID.Load()); err != nil {
		return fmt.Errorf("store: writing the page checkpoint: %w", err)
	}
	for _, sh := range c.shards {
		if err := sh.wal.reset(); err != nil {
			return err
		}
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

// refuseUnreadLogs refuses a directory holding commits Open would never
// read, which would otherwise vanish silently: a non-empty wal.log, the
// single log of builds before per-shard segments, or a non-empty
// segment past the shard count, logged at a higher count (Open creates
// every segment of its count, so the files present tell which). The
// refusal names the epoch of the log's first line.
func refuseUnreadLogs(walDir string, nshards int) error {
	paths := []string{filepath.Join(walDir, "wal.log")}
	for si := nshards; ; si++ {
		if _, err := os.Stat(segmentPath(walDir, si)); err != nil {
			break
		}
		paths = append(paths, segmentPath(walDir, si))
	}
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) || err == nil && len(data) == 0 {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", path, err)
		}
		var first walLine
		line, _, _ := bytes.Cut(data, []byte("\n"))
		_ = json.Unmarshal(line, &first) // best effort: the epoch only locates the refused log
		re := &RecoveryError{Epoch: first.Version,
			Reason: "wal.log is the log of a build before per-shard segments: recover with that build, shut it down cleanly, then reopen"}
		if i > 0 {
			re.Shard = nshards + i - 1
			re.Reason = fmt.Sprintf("%s holds commits logged at %d shards: recover at that shard count", segmentName(re.Shard), nshards+len(paths)-1)
		}
		return re
	}
	return nil
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
// — a checkpoint or a non-empty segment — is recovered and seed is never
// called: load the last checkpoint, scan every segment and replay the
// tail by patching page deltas (see replay), then truncate each
// segment's torn tail. The catalog after Open is byte-identical (through
// Save) to the last committed state before the crash: committed
// transactions survive, uncommitted ones vanish. A record that does not
// link, carries no delta, or whose delta does not apply, a record in
// another log format, a non-empty wal.log, a non-empty segment past
// nshards, or a checkpoint in an older page-file format makes Open fail
// with a *RecoveryError and leaves the directory as found.
//
// The checkpoint base is one page file at every shard count, read
// through a buffer pool of poolPages frames (<= 0 selects
// DefaultPoolPages; catalogs larger than the pool still recover). A
// checkpoint commits whole or not at all, so replay starts from exactly
// its version. Anything else at wsdPath (a .wsd JSON export, say) is
// refused: import it into a fresh directory through the seed.
func Open(wsdPath, walDir string, nshards, poolPages int, seed func() (*Catalog, error)) (*Catalog, []*WAL, error) {
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := refuseUnreadLogs(walDir, max(nshards, 1)); err != nil {
		return nil, nil, err
	}
	recovering, err := holdsState(wsdPath, walDir)
	if err != nil {
		return nil, nil, err
	}
	pager, base, err := openPageStore(wsdPath, poolPages)
	if err != nil {
		return nil, nil, err
	}
	var cat *Catalog
	switch {
	case base != nil:
		cat = newCatalog(base, base.compID)
	case !recovering && seed != nil:
		if cat, err = seed(); err != nil {
			return nil, nil, err
		}
	default:
		// Nothing checkpointed and no seed, or a directory holding only log
		// segments from the empty catalog.
		cat = New(nil)
	}
	cat.shard(nshards)
	cat.pager = pager
	wals := make([]*WAL, len(cat.shards))
	fail := func(err error) (*Catalog, []*WAL, error) {
		for _, w := range wals {
			if w != nil {
				w.Close()
			}
		}
		pager.Close()
		return nil, nil, err
	}
	segs := make([][]WALRecord, len(wals))
	valid := make([]int64, len(wals))
	for si := range wals {
		if wals[si], segs[si], valid[si], err = openWAL(walDir, si); err != nil {
			return fail(err)
		}
	}
	if err := cat.replay(segs); err != nil {
		return fail(err)
	}
	for i, sh := range cat.shards {
		if err := wals[i].cutTail(valid[i]); err != nil {
			return fail(err)
		}
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

// replay applies the surviving log tail in segs (one record slice per
// shard segment) to the freshly loaded base and republishes the result
// with every shard at the version replay reached on it, so the next
// commit's prev links on the next recovery whether or not a checkpoint
// comes first.
//
// Every commit is one record, so replay sorts the records newer than
// the checkpoint by epoch — a valid serialization of the pre-crash
// execution (single-shard commits read only their shard, and epochs are
// assigned under the shard locks) — and applies each in turn, strictly.
// A record links if, on every participant shard p, the version it was
// staged on is the version replay has reached on p (a predecessor at or
// below the checkpoint is in the base); one that does not is refused.
// Routed deltas are shard-scoped, so only the per-shard chain matters:
// an epoch missing elsewhere (burned by a failed write, or torn off
// another segment) does not break it. Every record is applied or
// refused, so the epoch counter resumes at the last one applied.
func (c *Catalog) replay(segs [][]WALRecord) error {
	base := c.cur.Load()
	var order []WALRecord
	for si, records := range segs {
		for _, rec := range records {
			if rec.Version <= base.Version {
				continue // already in the checkpoint (crash between save and truncate)
			}
			if len(rec.Parts) == 0 {
				rec.Parts = []int{si}
			}
			order = append(order, rec)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Version < order[j].Version })

	ver := make([]uint64, len(c.shards))
	for p := range ver {
		ver[p] = base.Version
	}
	db, views, last := base.DB, base.Views, base.Version
	for _, rec := range order {
		home := rec.Parts[0] // the segment holding the record
		refuse := func(shard int, format string, a ...any) error {
			return &RecoveryError{Shard: shard, Epoch: rec.Version, Reason: fmt.Sprintf(format, a...)}
		}
		if rec.Version == last {
			return refuse(home, "two committed records claim the epoch")
		}
		if len(rec.Prev) != len(rec.Parts) {
			return refuse(home, "record lists %d staged-on versions for %d participant shard(s)", len(rec.Prev), len(rec.Parts))
		}
		for i, p := range rec.Parts {
			switch {
			case p < 0 || p >= len(ver):
				return refuse(home, "participant shard %d does not exist at %d shard(s); recover at the shard count that wrote the log", p, len(ver))
			case max(rec.Prev[i], base.Version) != ver[p]:
				return refuse(p, "staged on shard version e%d, but recovery reached e%d there: a predecessor is missing from %s", rec.Prev[i], ver[p], segmentName(p))
			}
		}
		if rec.Delta == nil {
			return refuse(home, "record carries no page delta")
		}
		var err error
		if db, views, err = applyDelta(db, views, rec.Delta); err != nil {
			return refuse(home, "page delta does not apply: %v", err)
		}
		for _, u := range rec.Delta.Upserts {
			c.raiseCompID(u.ID)
		}
		for _, p := range rec.Parts {
			ver[p] = rec.Version
		}
		last = rec.Version
	}
	c.reset(&Snapshot{Version: last, DB: db, Views: views}, ver)
	return nil
}
