package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"worldsetdb/internal/bufpool"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/page"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsd"
)

// Paged checkpoint storage (format v3), the one base format recovery
// reads. The catalog's recovery base is one page file — fixed-size
// CRC-framed pages (see internal/page) read through a buffer pool
// (internal/bufpool) — whose objects are the snapshot's certain
// relations and components, each stored as a chain of data pages.
// Because the catalog's copy-on-write commits share untouched relations
// by pointer and carry components by stable ID, a checkpoint can tell
// exactly which objects changed since the last one and rewrite only
// those chains: checkpoint cost is O(dirty), not O(catalog). The file
// is the same at every shard count (the shard layout is a runtime
// property), so the base is always at exactly one version.
//
// # File layout
//
// Pages 0 and 1 are alternating meta slots; checkpoint N commits by
// writing slot N%2, so the previous checkpoint's meta (and every page
// it reaches) stays intact until the new one is durable. The meta
// payload names the directory chain head; the directory lists the
// catalog schema, views, the chain head of every non-empty certain
// relation and one (ID → chain head) entry per component, in snapshot
// order. All payloads are the same JSON encodings the .wsd export uses
// (encodeRelation / encodeAlternatives), so both persist
// byte-compatible content.
//
// # Crash safety
//
// A checkpoint allocates pages only from the free list, which never
// contains a page reachable from the last durable meta: pages are freed
// in memory only after the new meta slot is fsynced, and a checkpoint
// that fails before then hands back every page it took. The write order
// is data chains → directory chain → file fsync → meta slot → fsync; a
// crash anywhere before the meta write leaves the previous checkpoint
// untouched, and a torn meta write is caught by the page CRC, falling
// back to the other slot. The first checkpoint of a file writes the
// same way into a temp file that is renamed over the path once durable
// (writeFileAtomic), so a torn first attempt leaves nothing at the path.

// pageFamily prefixes the magic of every page-file format; pageMagic is
// the one this build reads and writes. A file of another format in the
// family is refused, never guessed at: a v2 base kept the objects of
// shards beyond the first in side files this build never reads.
const (
	pageFamily = "worldsetdb-pages/"
	pageMagic  = pageFamily + "v3"
)

// DefaultPoolPages is the buffer-pool capacity used when the caller
// does not choose one: 1024 frames × 8 KiB = 8 MiB of page cache.
const DefaultPoolPages = 1024

// pageFile is the bufpool.Backend over the checkpoint file: page id i
// lives at byte offset i*page.Size.
type pageFile struct{ f *os.File }

func (p *pageFile) ReadPage(id uint64, buf []byte) error {
	_, err := p.f.ReadAt(buf, int64(id)*page.Size)
	return err
}

func (p *pageFile) WritePage(id uint64, buf []byte) error {
	_, err := p.f.WriteAt(buf, int64(id)*page.Size)
	return err
}

// pageMeta is the payload of a meta slot — the commit point of one
// checkpoint.
type pageMeta struct {
	Magic   string `json:"magic"`
	Epoch   uint64 `json:"epoch"`   // checkpoint sequence number (slot = epoch%2)
	Version uint64 `json:"version"` // catalog version the checkpoint captured
	DirHead uint64 `json:"dir"`     // head page of the directory chain
	Pages   uint64 `json:"pages"`   // file length in pages at commit time
	CompID  uint64 `json:"comp_id"` // component ID counter at commit time
}

// pageDir is the payload of the directory chain: the catalog layout
// plus one entry per stored object.
type pageDir struct {
	Names   []string          `json:"names"`
	Schemas [][]string        `json:"schemas"`
	Views   map[string]string `json:"views"`
	// Certain holds, aligned with Names, the head page of each certain
	// relation's chain; 0 (a meta slot, never a chain page) marks an
	// empty relation, which recovery rebuilds from the schema.
	Certain []uint64  `json:"certain"`
	Comps   []dirComp `json:"comps,omitempty"`
}

type dirComp struct {
	ID   uint64 `json:"id"`
	Head uint64 `json:"head"`
}

// certState / compState remember, per stored object, the exact value
// persisted by the last checkpoint and the page chain holding it (head
// first) — the dirty check (pointer identity for relations, shape
// identity for components) and the free-list bookkeeping both run
// against them.
type certState struct {
	rel   *relation.Relation
	pages []uint64
}

type compState struct {
	comp  wsd.DBComponent
	pages []uint64
}

// PageStore is the catalog's paged checkpoint file. Empty (no file
// written yet) until the first WriteCheckpoint, which creates the file
// atomically; after that, checkpoints are in-place and incremental.
// Methods are serialized by the store's checkpoint path (every shard
// lock held); the stats counters are atomic so /metrics can read them
// concurrently.
type PageStore struct {
	mu        sync.Mutex
	path      string
	poolPages int

	file   pageFile // the pool's backend; file.f is nil until a checkpoint exists
	pool   *bufpool.Pool
	epoch  uint64
	vers   uint64
	npages uint64
	free   []uint64

	certs    map[string]*certState
	comps    map[uint64]*compState
	dirPages []uint64

	lastCkpt  atomic64Time
	pagesW    obs.Counter
	bytesW    obs.Counter
	ckpts     obs.Counter
	noops     obs.Counter
	bytesHist obs.Histogram // checkpoint size in bytes (1 unit = 1 byte)

	// failBeforeMeta, when set (crash tests), runs after the data pages
	// are flushed and fsynced but before the meta slot commits the
	// checkpoint — the window where a crash must fall back to the
	// previous checkpoint.
	failBeforeMeta func() error
}

// atomic64Time is a unix-nano timestamp readable without the PageStore
// mutex.
type atomic64Time struct{ v atomic.Int64 }

func (t *atomic64Time) set(now time.Time) { t.v.Store(now.UnixNano()) }
func (t *atomic64Time) get() time.Time {
	ns := t.v.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// newPageStore returns an empty store for path, whatever the path
// currently holds.
func newPageStore(path string, poolPages int) *PageStore {
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	ps := &PageStore{path: path, poolPages: poolPages}
	ps.reset()
	return ps
}

// reset forgets every checkpoint: no file, an empty pool, only the two
// meta slots allocated.
func (ps *PageStore) reset() {
	ps.file.f = nil
	ps.pool = bufpool.New(&ps.file, ps.poolPages, page.Size)
	ps.epoch, ps.vers, ps.npages, ps.free = 0, 0, 2, nil
	ps.certs, ps.comps, ps.dirPages = map[string]*certState{}, map[uint64]*compState{}, nil
}

// openPageStore opens the checkpoint file at path and returns it with
// the snapshot it holds (its compID set), or an empty store and a nil
// snapshot when the file is missing or empty. Both meta slots are
// probed and the newest fully loadable checkpoint wins — a torn
// in-place checkpoint (newer meta never written, or its chains
// unreadable) falls back to the previous one. A page file of another
// format is refused with a *RecoveryError, and any other file without a
// valid meta slot as not a checkpoint; both are left as found.
func openPageStore(path string, poolPages int) (*PageStore, *Snapshot, error) {
	ps := newPageStore(path, poolPages)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return ps, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening page file: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if info.Size() == 0 {
		f.Close()
		return ps, nil, nil
	}
	var metas []*pageMeta
	var other *pageMeta
	buf := make([]byte, page.Size)
	for slot := uint64(0); slot < 2; slot++ {
		if _, err := f.ReadAt(buf, int64(slot)*page.Size); err != nil {
			continue
		}
		kind, _, payload, err := page.Decode(buf)
		if err != nil || kind != page.KindMeta {
			continue
		}
		var m pageMeta
		switch {
		case json.Unmarshal(payload, &m) != nil:
		case m.Magic == pageMagic:
			metas = append(metas, &m)
		case strings.HasPrefix(m.Magic, pageFamily):
			other = &m
		}
	}
	// Newest epoch first; fall back to the other slot if its chains do
	// not load (data is fsynced before its meta, so only a corrupt file
	// gets here, and it should still recover what it can).
	sort.Slice(metas, func(i, j int) bool { return metas[i].Epoch > metas[j].Epoch })
	var lastErr error
	for _, m := range metas {
		snap, err := ps.loadMeta(f, m)
		if err == nil {
			return ps, snap, nil
		}
		lastErr = err
	}
	f.Close()
	switch {
	case lastErr != nil:
		return nil, nil, fmt.Errorf("store: %s: loading page file: %w", path, lastErr)
	case other != nil:
		return nil, nil, &RecoveryError{Epoch: other.Version, Reason: fmt.Sprintf(
			"%s is a page file in format %s, not %s, and may keep objects in side files this build never reads: export it with -save from the build that wrote it, then -load the export into a fresh directory",
			filepath.Base(path), other.Magic, pageMagic)}
	}
	return nil, nil, fmt.Errorf("store: %s has no valid page-file meta slot, so it is not a checkpoint; if it is a .wsd JSON catalog, import it with -load into a fresh directory", path)
}

// loadMeta loads the checkpoint m describes from f and adopts it as the
// store's current state (remembered objects, free list, pool).
func (ps *PageStore) loadMeta(f *os.File, m *pageMeta) (*Snapshot, error) {
	ps.file.f = f
	ps.pool = bufpool.New(&ps.file, ps.poolPages, page.Size)
	reach := map[uint64]bool{}
	dirPayload, dirPages, err := readChain(ps.pool, m.DirHead, page.KindDir, m.Pages, reach)
	if err != nil {
		return nil, fmt.Errorf("directory chain: %w", err)
	}
	var dir pageDir
	if err := json.Unmarshal(dirPayload, &dir); err != nil {
		return nil, fmt.Errorf("directory payload: %w", err)
	}
	if len(dir.Names) != len(dir.Schemas) || len(dir.Names) != len(dir.Certain) {
		return nil, fmt.Errorf("directory lists %d names, %d schemas, %d certain heads", len(dir.Names), len(dir.Schemas), len(dir.Certain))
	}
	schemas := make([]relation.Schema, len(dir.Schemas))
	for i, s := range dir.Schemas {
		schemas[i] = relation.NewSchema(s...)
	}
	db := wsd.NewDecompDB(dir.Names, schemas)
	certs := map[string]*certState{}
	for ri, head := range dir.Certain {
		if head == 0 {
			continue
		}
		name := dir.Names[ri]
		payload, pages, err := readChain(ps.pool, head, page.KindData, m.Pages, reach)
		if err != nil {
			return nil, fmt.Errorf("certain %q: %w", name, err)
		}
		var rows []jsonTuple
		if err := unmarshalUseNumber(payload, &rows); err != nil {
			return nil, fmt.Errorf("certain %q: %w", name, err)
		}
		rel, err := decodeRelation(schemas[ri], rows)
		if err != nil {
			return nil, fmt.Errorf("certain %q: %w", name, err)
		}
		db.Certain[ri] = rel
		certs[name] = &certState{rel: rel, pages: pages}
	}
	comps := map[uint64]*compState{}
	for _, dc := range dir.Comps {
		payload, pages, err := readChain(ps.pool, dc.Head, page.KindData, m.Pages, reach)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", dc.ID, err)
		}
		var rows []jsonAlternative
		if err := unmarshalUseNumber(payload, &rows); err != nil {
			return nil, fmt.Errorf("component %d: %w", dc.ID, err)
		}
		alts, err := decodeAlternatives(db, rows)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", dc.ID, err)
		}
		comp := wsd.DBComponent{ID: dc.ID, Alternatives: alts}
		db.Components = append(db.Components, comp)
		comps[dc.ID] = &compState{comp: comp, pages: pages}
	}
	if dir.Views == nil {
		dir.Views = map[string]string{}
	}
	// Adopt: free list = everything past the meta slots that no chain
	// of this checkpoint reaches.
	ps.epoch, ps.vers, ps.npages = m.Epoch, m.Version, m.Pages
	ps.certs, ps.comps, ps.dirPages = certs, comps, dirPages
	ps.free = nil
	for id := uint64(2); id < m.Pages; id++ {
		if !reach[id] {
			ps.free = append(ps.free, id)
		}
	}
	ps.lastCkpt.set(time.Now())
	return &Snapshot{Version: m.Version, DB: db, Views: dir.Views, compID: m.CompID}, nil
}

// unmarshalUseNumber decodes with UseNumber, matching the .wsd
// decoder's number handling.
func unmarshalUseNumber(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// readChain walks a page chain from head, concatenating payloads. Every
// visited page is recorded in reach; npages bounds the walk so a
// corrupt next pointer cannot loop or run off the file.
func readChain(pool *bufpool.Pool, head uint64, kind page.Kind, npages uint64, reach map[uint64]bool) ([]byte, []uint64, error) {
	var payload []byte
	var pages []uint64
	id := head
	for id != 0 {
		if id < 2 || id >= npages {
			return nil, nil, fmt.Errorf("chain page %d out of range [2,%d)", id, npages)
		}
		if reach[id] {
			return nil, nil, fmt.Errorf("chain revisits page %d", id)
		}
		reach[id] = true
		pages = append(pages, id)
		fr, err := pool.Get(id)
		if err != nil {
			return nil, nil, err
		}
		k, next, chunk, err := page.Decode(fr.Data())
		if err != nil {
			fr.Release()
			return nil, nil, fmt.Errorf("page %d: %w", id, err)
		}
		if k != kind {
			fr.Release()
			return nil, nil, fmt.Errorf("page %d: kind %d, want %d", id, k, kind)
		}
		payload = append(payload, chunk...)
		fr.Release()
		id = next
	}
	return payload, pages, nil
}

// Version reports the catalog version of the last durable checkpoint
// (0 before the first).
func (ps *PageStore) Version() uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.vers
}

// Path returns the checkpoint file path.
func (ps *PageStore) Path() string { return ps.path }

// WriteCheckpoint persists snap as the new recovery base, with compID
// the component ID counter recovery resumes from. It writes the chains
// of the objects that changed since the previous checkpoint, plus the
// directory, and commits them with one meta-slot write; a checkpoint at
// the version already persisted writes nothing. The first one writes
// into a temp file renamed over the path once durable. On failure the
// previous checkpoint stays the base and every page the attempt took
// returns to the free list.
func (ps *PageStore) WriteCheckpoint(snap *Snapshot, compID uint64) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	fresh := ps.file.f == nil
	if !fresh && ps.vers == snap.Version {
		ps.noops.Inc()
		ps.lastCkpt.set(time.Now())
		return nil
	}
	// Before the commit point an attempt only pops the free list (freed
	// pages are appended after it) and advances npages, so restoring the
	// two lengths is the whole undo.
	nfree, npages := len(ps.free), ps.npages
	var commit func()
	var err error
	if fresh {
		err = writeFileAtomic(ps.path, func(f *os.File) (err error) {
			ps.file.f = f
			commit, err = ps.stage(snap, compID)
			return err
		})
		if err == nil {
			ps.file.f, err = os.OpenFile(ps.path, os.O_RDWR, 0)
		}
	} else if commit, err = ps.stage(snap, compID); err == nil {
		if err = ps.file.f.Sync(); err != nil {
			err = fmt.Errorf("store: fsyncing checkpoint meta slot: %w", err)
		}
	}
	if err != nil {
		ps.free, ps.npages = ps.free[:nfree], npages
		if fresh {
			ps.reset()
		}
		return err
	}
	commit()
	return nil
}

// stage writes everything of a checkpoint up to and including its meta
// slot, which the caller makes durable, and returns the adoption of the
// new state to run once it is.
func (ps *PageStore) stage(snap *Snapshot, compID uint64) (func(), error) {
	db := snap.DB
	var freed []uint64
	written := uint64(0)
	dir := pageDir{Names: db.Names, Views: snap.Views, Certain: make([]uint64, len(db.Names))}
	for _, s := range db.Schemas {
		dir.Schemas = append(dir.Schemas, []string(s))
	}

	newCerts := make(map[string]*certState, len(ps.certs))
	for ri, rel := range db.Certain {
		if rel == nil || rel.Len() == 0 {
			continue
		}
		name := db.Names[ri]
		st := ps.certs[name]
		if st == nil || st.rel != rel {
			payload, err := json.Marshal(encodeRelation(rel))
			if err != nil {
				return nil, err
			}
			pages, err := ps.writeChain(page.KindData, payload)
			if err != nil {
				return nil, err
			}
			written += uint64(len(pages))
			st = &certState{rel: rel, pages: pages}
		}
		newCerts[name] = st
		dir.Certain[ri] = st.pages[0]
	}
	for name, st := range ps.certs {
		if newCerts[name] != st {
			freed = append(freed, st.pages...)
		}
	}

	newComps := make(map[uint64]*compState, len(db.Components))
	for _, comp := range db.Components {
		st := ps.comps[comp.ID]
		if st != nil && wsd.SameComponentShape(st.comp, comp) {
			// Unchanged shape, but remember the new container (the shape
			// check walks the remembered value's relation pointers, which
			// the current snapshot shares).
			st = &compState{comp: comp, pages: st.pages}
		} else {
			payload, err := json.Marshal(encodeAlternatives(db.Names, comp))
			if err != nil {
				return nil, err
			}
			pages, err := ps.writeChain(page.KindData, payload)
			if err != nil {
				return nil, err
			}
			written += uint64(len(pages))
			st = &compState{comp: comp, pages: pages}
		}
		newComps[comp.ID] = st
		dir.Comps = append(dir.Comps, dirComp{ID: comp.ID, Head: st.pages[0]})
	}
	for id, st := range ps.comps {
		if ns := newComps[id]; ns == nil || ns.pages[0] != st.pages[0] {
			freed = append(freed, st.pages...)
		}
	}

	dirPayload, err := json.Marshal(dir)
	if err != nil {
		return nil, err
	}
	dirPages, err := ps.writeChain(page.KindDir, dirPayload)
	if err != nil {
		return nil, err
	}
	written += uint64(len(dirPages))
	freed = append(freed, ps.dirPages...)

	if err := ps.pool.FlushDirty(); err != nil {
		return nil, err
	}
	if err := ps.file.f.Sync(); err != nil {
		return nil, fmt.Errorf("store: fsyncing checkpoint data pages: %w", err)
	}
	if ps.failBeforeMeta != nil {
		if err := ps.failBeforeMeta(); err != nil {
			return nil, err
		}
	}
	// The meta slot goes by direct file I/O, not the pool: it is never
	// part of a chain and must reach the file after every data page.
	meta, err := json.Marshal(pageMeta{Magic: pageMagic, Epoch: ps.epoch + 1, Version: snap.Version,
		DirHead: dirPages[0], Pages: ps.npages, CompID: compID})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, page.Size)
	if err := page.Encode(buf, page.KindMeta, 0, meta); err != nil {
		return nil, err
	}
	if err := ps.file.WritePage((ps.epoch+1)%2, buf); err != nil {
		return nil, fmt.Errorf("store: writing checkpoint meta slot: %w", err)
	}
	written++

	return func() {
		ps.epoch++
		ps.vers = snap.Version
		ps.certs, ps.comps, ps.dirPages = newCerts, newComps, dirPages
		ps.free = append(ps.free, freed...)
		sort.Slice(ps.free, func(i, j int) bool { return ps.free[i] < ps.free[j] })
		ps.pagesW.Add(written)
		ps.bytesW.Add(written * page.Size)
		ps.ckpts.Inc()
		ps.bytesHist.Observe(time.Duration(written * page.Size))
		ps.lastCkpt.set(time.Now())
	}, nil
}

// writeChain stages one object's payload as a chain of dirty pool
// frames (flushed by stage's FlushDirty) and returns its pages, head
// first. Pages come from the free list — which never holds a page the
// previous checkpoint reaches — or extend the file.
func (ps *PageStore) writeChain(kind page.Kind, payload []byte) ([]uint64, error) {
	chunks := page.Chunks(payload)
	ids := make([]uint64, len(chunks))
	for i := range ids {
		ids[i] = ps.alloc()
	}
	for i, chunk := range chunks {
		next := uint64(0)
		if i+1 < len(chunks) {
			next = ids[i+1]
		}
		fr, err := ps.pool.NewFrame(ids[i])
		if err != nil {
			return nil, err
		}
		if err := page.Encode(fr.Data(), kind, next, chunk); err != nil {
			fr.Release()
			return nil, err
		}
		fr.MarkDirty()
		fr.Release()
	}
	return ids, nil
}

func (ps *PageStore) alloc() uint64 {
	if n := len(ps.free); n > 0 {
		id := ps.free[n-1]
		ps.free = ps.free[:n-1]
		return id
	}
	id := ps.npages
	ps.npages++
	return id
}

// Close releases the file handle. The store becomes unusable.
func (ps *PageStore) Close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.file.f == nil {
		return nil
	}
	err := ps.file.f.Close()
	ps.file.f = nil
	return err
}

// PoolStats exposes the buffer pool's counters.
func (ps *PageStore) PoolStats() bufpool.Stats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.pool.Stats()
}

// CkptStats is a PageStore's cumulative checkpoint I/O accounting.
type CkptStats struct {
	PagesWritten uint64    // pages written across all checkpoints
	BytesWritten uint64    // PagesWritten * page.Size
	Checkpoints  uint64    // checkpoints that wrote at least one page
	NoopSkips    uint64    // checkpoint requests skipped with zero writes
	LastCkptAt   time.Time // completion time of the last checkpoint, skip or load
}

// Stats reports the store's checkpoint I/O counters. Safe to call
// concurrently with checkpoints (the counters are atomic).
func (ps *PageStore) Stats() CkptStats {
	if ps == nil {
		return CkptStats{}
	}
	return CkptStats{
		PagesWritten: ps.pagesW.Value(),
		BytesWritten: ps.bytesW.Value(),
		Checkpoints:  ps.ckpts.Value(),
		NoopSkips:    ps.noops.Value(),
		LastCkptAt:   ps.lastCkpt.get(),
	}
}

// BytesHist exposes the checkpoint-size histogram: one observation per
// page-writing checkpoint, in bytes (the obs.Histogram's power-of-two
// buckets read as byte sizes here, not durations).
func (ps *PageStore) BytesHist() *obs.Histogram {
	if ps == nil {
		return nil
	}
	return &ps.bytesHist
}
