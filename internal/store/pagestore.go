package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"worldsetdb/internal/bufpool"
	"worldsetdb/internal/obs"
	"worldsetdb/internal/page"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsd"
)

// Paged checkpoint storage (format v2), the one base format recovery
// reads. The catalog's recovery base is a page file — fixed-size
// CRC-framed pages (see
// internal/page) read through a buffer pool (internal/bufpool) — whose
// objects are the snapshot's certain relations and components, each
// stored as a chain of data pages. Because the catalog's copy-on-write
// commits share untouched relations by pointer and carry components by
// stable ID, a checkpoint can tell exactly which objects changed since
// the last one and rewrite only those chains: checkpoint cost is
// O(dirty), not O(catalog).
//
// # File layout
//
// Pages 0 and 1 are alternating meta slots; checkpoint N commits by
// writing slot N%2, so the previous checkpoint's meta (and every page
// it reaches) stays intact until the new one is durable. The meta
// payload names the directory chain head; the directory lists the
// catalog schema, views, and one (name|ID → chain head) entry per
// stored object. All payloads are the same JSON encodings the .wsd
// export uses (encodeRelation / encodeAlternatives), so both persist
// byte-compatible content.
//
// # Crash safety
//
// An incremental checkpoint allocates pages only from the free list,
// which never contains a page reachable from the last durable meta:
// pages are freed in memory only after the new meta slot is fsynced.
// The write order is data chains → directory chain → file fsync → meta
// slot → fsync; a crash anywhere before the meta write leaves the
// previous checkpoint untouched, and a torn meta write is caught by
// the page CRC, falling back to the other slot. The first checkpoint
// of a file goes through a temp file + atomic rename instead (there is
// no previous page state to preserve).
//
// # Sharding
//
// A sharded catalog checkpoints one page file per shard —
// shardCkptPath(wsdPath, i) — each holding the objects homed at that
// shard (certain relations by name hash, components by their lowest
// contributing relation), plus the full schema. Shard 0 is the
// coordinator: its directory additionally records the global component
// order. Files commit independently (parallel incremental writes), so
// a crash can leave them at mixed checkpoint versions; recovery merges
// by taking each object from the newest file holding it and replays
// the WAL tail from the oldest file version — page-delta replay is
// idempotent (records replace whole objects), so re-applying an epoch
// a newer file already contains is harmless.

// pageMagic identifies a v2 page-file meta slot.
const pageMagic = "worldsetdb-pages/v2"

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
	Shard   int    `json:"shard"`
	Coord   bool   `json:"coord,omitempty"`
}

// pageDir is the payload of the directory chain: the catalog layout
// plus one entry per stored object.
type pageDir struct {
	Names   []string          `json:"names"`
	Schemas [][]string        `json:"schemas"`
	Views   map[string]string `json:"views"`
	Certain []dirCert         `json:"certain,omitempty"`
	Comps   []dirComp         `json:"comps,omitempty"`
	// Order, on the coordinator file, lists every component ID in the
	// snapshot's global order (the per-shard files only know their own).
	Order []uint64 `json:"order,omitempty"`
}

type dirCert struct {
	Name   string   `json:"name"`
	Schema []string `json:"schema"`
	Head   uint64   `json:"head"`
}

type dirComp struct {
	ID   uint64 `json:"id"`
	Head uint64 `json:"head"`
}

// certState / compState remember, per stored object, the exact value
// persisted by the last checkpoint and the page chain holding it —
// the dirty check (pointer identity for relations, shape identity for
// components) and the free-list bookkeeping both run against them.
type certState struct {
	rel    *relation.Relation
	schema []string
	head   uint64
	pages  []uint64
}

type compState struct {
	comp  wsd.DBComponent
	head  uint64
	pages []uint64
}

// PageStore is one shard's paged checkpoint file. Uninitialized (no
// page-format file on disk yet) until the first WriteCheckpoint, which
// creates the file atomically; after that, checkpoints are in-place
// and incremental. Methods are serialized by the store's checkpoint
// paths (catalog writer/shard locks); the stats counters are atomic so
// /metrics can read them concurrently.
type PageStore struct {
	mu        sync.Mutex
	path      string
	shard     int
	coord     bool
	poolPages int

	f      *os.File
	pool   *bufpool.Pool
	inited bool
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

// shardCkptPath returns the checkpoint file of shard si: the main path
// for shard 0 (the coordinator — the only file of a one-shard catalog,
// so the layout is shard-count agnostic), path + ".s<i>" beyond.
func shardCkptPath(wsdPath string, si int) string {
	if si == 0 {
		return wsdPath
	}
	return fmt.Sprintf("%s.s%d", wsdPath, si)
}

// loadedShard is one page file's decoded contents, in the file's own
// schema (merge remaps by name when files disagree).
type loadedShard struct {
	Version uint64
	CompID  uint64
	Shard   int
	Coord   bool
	Names   []string
	Schemas []relation.Schema
	Views   map[string]string
	Certs   []loadedCert
	Comps   []loadedComp
	Order   []uint64
}

type loadedCert struct {
	Name string
	Rel  *relation.Relation
}

type loadedComp struct {
	ID   uint64
	Comp wsd.DBComponent
}

// newPageStore returns shard's uninitialized store for path, whatever
// the path currently holds.
func newPageStore(path string, shard, poolPages int) *PageStore {
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	return &PageStore{path: path, shard: shard, coord: shard == 0, poolPages: poolPages,
		certs: map[string]*certState{}, comps: map[uint64]*compState{}}
}

// openPageStore opens the checkpoint file at path. When the file is
// missing or empty it returns an uninitialized store (and a nil
// loadedShard). Otherwise both meta slots are probed and the newest
// fully loadable checkpoint wins — a torn in-place checkpoint (valid
// newer meta never written, or written but its chains unreadable) falls
// back to the previous one. A non-empty file without a valid meta slot
// is not a checkpoint and is refused.
func openPageStore(path string, shard, poolPages int) (*PageStore, *loadedShard, error) {
	ps := newPageStore(path, shard, poolPages)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return ps, nil, nil
		}
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
	pf := &pageFile{f: f}
	metas := make([]*pageMeta, 2)
	buf := make([]byte, page.Size)
	for slot := uint64(0); slot < 2; slot++ {
		if err := pf.ReadPage(slot, buf); err != nil {
			continue
		}
		kind, _, payload, err := page.Decode(buf)
		if err != nil || kind != page.KindMeta {
			continue
		}
		var m pageMeta
		if json.Unmarshal(payload, &m) != nil || m.Magic != pageMagic {
			continue
		}
		metas[slot] = &m
	}
	if metas[0] == nil && metas[1] == nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: %s has no valid page-file meta slot, so it is not a checkpoint; if it is a .wsd JSON catalog, import it with -load into a fresh directory", path)
	}
	// Newest epoch first; fall back to the other slot if its chains do
	// not load (crash between the meta write and its data becoming
	// readable cannot happen — data is fsynced first — but a corrupt
	// file should still recover what it can).
	order := []*pageMeta{metas[0], metas[1]}
	if metas[0] == nil || (metas[1] != nil && metas[1].Epoch > metas[0].Epoch) {
		order = []*pageMeta{metas[1], metas[0]}
	}
	var lastErr error
	for _, m := range order {
		if m == nil {
			continue
		}
		ls, err := ps.loadMeta(f, m)
		if err != nil {
			lastErr = err
			continue
		}
		return ps, ls, nil
	}
	f.Close()
	return nil, nil, fmt.Errorf("store: %s: loading page file: %w", path, lastErr)
}

// loadMeta loads the checkpoint m describes and adopts it as the
// store's current state (remembered objects, free list, pool).
func (ps *PageStore) loadMeta(f *os.File, m *pageMeta) (*loadedShard, error) {
	pool := bufpool.New(&pageFile{f: f}, ps.poolPages, page.Size)
	reach := map[uint64]bool{}
	dirPayload, dirPages, err := readChain(pool, m.DirHead, page.KindDir, m.Pages, reach)
	if err != nil {
		return nil, fmt.Errorf("directory chain: %w", err)
	}
	var dir pageDir
	if err := json.Unmarshal(dirPayload, &dir); err != nil {
		return nil, fmt.Errorf("directory payload: %w", err)
	}
	if len(dir.Names) != len(dir.Schemas) {
		return nil, fmt.Errorf("directory lists %d names, %d schemas", len(dir.Names), len(dir.Schemas))
	}
	ls := &loadedShard{Version: m.Version, CompID: m.CompID, Shard: m.Shard, Coord: m.Coord,
		Names: dir.Names, Views: dir.Views, Order: dir.Order}
	if ls.Views == nil {
		ls.Views = map[string]string{}
	}
	for _, s := range dir.Schemas {
		ls.Schemas = append(ls.Schemas, relation.NewSchema(s...))
	}
	// Skeleton decomposition for decodeAlternatives' name resolution.
	skel := wsd.NewDecompDB(ls.Names, ls.Schemas)
	certs := map[string]*certState{}
	for _, dc := range dir.Certain {
		payload, pages, err := readChain(pool, dc.Head, page.KindData, m.Pages, reach)
		if err != nil {
			return nil, fmt.Errorf("certain %q: %w", dc.Name, err)
		}
		rows, err := decodeTupleRows(payload)
		if err != nil {
			return nil, fmt.Errorf("certain %q: %w", dc.Name, err)
		}
		rel, err := decodeRelation(relation.NewSchema(dc.Schema...), rows)
		if err != nil {
			return nil, fmt.Errorf("certain %q: %w", dc.Name, err)
		}
		ls.Certs = append(ls.Certs, loadedCert{Name: dc.Name, Rel: rel})
		certs[dc.Name] = &certState{rel: rel, schema: dc.Schema, head: dc.Head, pages: pages}
	}
	comps := map[uint64]*compState{}
	for _, dc := range dir.Comps {
		payload, pages, err := readChain(pool, dc.Head, page.KindData, m.Pages, reach)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", dc.ID, err)
		}
		alts, err := decodeAltRows(skel, payload)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", dc.ID, err)
		}
		comp := wsd.DBComponent{ID: dc.ID, Alternatives: alts}
		ls.Comps = append(ls.Comps, loadedComp{ID: dc.ID, Comp: comp})
		comps[dc.ID] = &compState{comp: comp, head: dc.Head, pages: pages}
	}
	// Adopt: free list = everything past the meta slots that no chain
	// of this checkpoint reaches.
	ps.f, ps.pool, ps.inited = f, pool, true
	ps.epoch, ps.vers, ps.npages = m.Epoch, m.Version, m.Pages
	ps.certs, ps.comps, ps.dirPages = certs, comps, dirPages
	ps.free = ps.free[:0]
	for id := uint64(2); id < m.Pages; id++ {
		if !reach[id] {
			ps.free = append(ps.free, id)
		}
	}
	ps.lastCkpt.set(time.Now())
	return ls, nil
}

// decodeTupleRows parses a certain relation's payload ([]jsonTuple)
// with UseNumber, matching the .wsd decoder's number handling.
func decodeTupleRows(payload []byte) ([]jsonTuple, error) {
	var rows []jsonTuple
	if err := unmarshalUseNumber(payload, &rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// decodeAltRows parses a component payload ([]jsonAlternative) and
// decodes it against db's schema (strict: the file's own directory
// defines the names the payload references).
func decodeAltRows(db *wsd.DecompDB, payload []byte) ([]wsd.DBAlternative, error) {
	var alts []jsonAlternative
	if err := unmarshalUseNumber(payload, &alts); err != nil {
		return nil, err
	}
	return decodeAlternatives(db, alts)
}

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

// ckptData is one shard's slice of a snapshot, handed to
// WriteCheckpoint: the full catalog layout plus the objects homed at
// the shard.
type ckptData struct {
	Version uint64
	CompID  uint64
	Names   []string
	Schemas []relation.Schema
	Views   map[string]string
	Certs   []ckptCert
	Comps   []wsd.DBComponent
	Order   []uint64 // coordinator only: every component ID in global order
}

type ckptCert struct {
	Name string
	Rel  *relation.Relation
}

// ckptSlices splits snap into per-shard checkpoint inputs. Certain
// relations home by name hash; components by the shard of their lowest
// contributing relation (shard 0 when they contribute nowhere) — the
// same rule as Snapshot.CompShards. Empty relations are skipped:
// recovery rebuilds them from the schema.
func ckptSlices(snap *Snapshot, nshards int, compID uint64) []ckptData {
	out := make([]ckptData, nshards)
	order := make([]uint64, len(snap.DB.Components))
	for i := range out {
		out[i] = ckptData{Version: snap.Version, CompID: compID,
			Names: snap.DB.Names, Views: snap.Views}
		for _, s := range snap.DB.Schemas {
			out[i].Schemas = append(out[i].Schemas, s)
		}
	}
	for ri, rel := range snap.DB.Certain {
		if rel == nil || rel.Len() == 0 {
			continue
		}
		home := shardOfName(snap.DB.Names[ri], nshards)
		out[home].Certs = append(out[home].Certs, ckptCert{Name: snap.DB.Names[ri], Rel: rel})
	}
	for ci, comp := range snap.DB.Components {
		order[ci] = comp.ID
		home, first := 0, -1
		for _, a := range comp.Alternatives {
			for ri, r := range a.Rels {
				if r == nil || r.Len() == 0 {
					continue
				}
				if first < 0 || ri < first {
					first = ri
				}
			}
		}
		if first >= 0 {
			home = shardOfName(snap.DB.Names[first], nshards)
		}
		out[home].Comps = append(out[home].Comps, comp)
	}
	out[0].Order = order
	return out
}

// Version reports the catalog version of the last durable checkpoint
// (0 when uninitialized).
func (ps *PageStore) Version() uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.vers
}

// Path returns the checkpoint file path.
func (ps *PageStore) Path() string { return ps.path }

// NoteNoop records a checkpoint request that was skipped because
// nothing changed since the last one.
func (ps *PageStore) NoteNoop() {
	ps.noops.Inc()
	ps.lastCkpt.set(time.Now())
}

// WriteCheckpoint persists d as the shard's new recovery base. The
// first call writes a complete page file through a temp file + atomic
// rename; later calls rewrite only the
// chains of objects that changed since the previous checkpoint, plus
// the directory, and commit with one meta-slot write.
func (ps *PageStore) WriteCheckpoint(d ckptData) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.inited {
		return ps.writeFresh(d)
	}
	if ps.vers == d.Version {
		ps.noops.Inc()
		ps.lastCkpt.set(time.Now())
		return nil
	}

	var freed []uint64
	written := uint64(0)

	newCerts := make(map[string]*certState, len(d.Certs))
	for _, c := range d.Certs {
		schema := []string(c.Rel.Schema())
		if st, ok := ps.certs[c.Name]; ok && st.rel == c.Rel && sameStrs(st.schema, schema) {
			newCerts[c.Name] = st
			continue
		}
		payload, err := json.Marshal(encodeRelation(c.Rel))
		if err != nil {
			return err
		}
		head, pages, err := ps.writeChain(page.KindData, payload)
		if err != nil {
			return err
		}
		written += uint64(len(pages))
		newCerts[c.Name] = &certState{rel: c.Rel, schema: schema, head: head, pages: pages}
	}
	for name, st := range ps.certs {
		if ns, ok := newCerts[name]; !ok || ns != st {
			freed = append(freed, st.pages...)
		}
	}

	newComps := make(map[uint64]*compState, len(d.Comps))
	dirComps := make([]dirComp, 0, len(d.Comps))
	for _, comp := range d.Comps {
		if st, ok := ps.comps[comp.ID]; ok && wsd.SameComponentShape(st.comp, comp) {
			// Unchanged shape, but remember the new container (the shape
			// check walks the remembered value's relation pointers, which
			// the current snapshot shares).
			ns := &compState{comp: comp, head: st.head, pages: st.pages}
			newComps[comp.ID] = ns
			dirComps = append(dirComps, dirComp{ID: comp.ID, Head: st.head})
			continue
		}
		payload, err := json.Marshal(encodeAlternatives(d.Names, comp))
		if err != nil {
			return err
		}
		head, pages, err := ps.writeChain(page.KindData, payload)
		if err != nil {
			return err
		}
		written += uint64(len(pages))
		newComps[comp.ID] = &compState{comp: comp, head: head, pages: pages}
		dirComps = append(dirComps, dirComp{ID: comp.ID, Head: head})
	}
	for id, st := range ps.comps {
		if ns, ok := newComps[id]; !ok || ns.head != st.head {
			freed = append(freed, st.pages...)
		}
	}

	dir := pageDir{Names: d.Names, Views: d.Views, Comps: dirComps, Order: d.Order}
	for _, s := range d.Schemas {
		dir.Schemas = append(dir.Schemas, []string(s))
	}
	for _, c := range d.Certs {
		st := newCerts[c.Name]
		dir.Certain = append(dir.Certain, dirCert{Name: c.Name, Schema: st.schema, Head: st.head})
	}
	dirPayload, err := json.Marshal(dir)
	if err != nil {
		return err
	}
	dirHead, dirPages, err := ps.writeChain(page.KindDir, dirPayload)
	if err != nil {
		return err
	}
	written += uint64(len(dirPages))
	freed = append(freed, ps.dirPages...)

	if err := ps.pool.FlushDirty(); err != nil {
		return err
	}
	if err := ps.f.Sync(); err != nil {
		return fmt.Errorf("store: fsyncing checkpoint data pages: %w", err)
	}
	if ps.failBeforeMeta != nil {
		if err := ps.failBeforeMeta(); err != nil {
			return err
		}
	}
	if err := ps.writeMeta(pageMeta{Magic: pageMagic, Epoch: ps.epoch + 1, Version: d.Version,
		DirHead: dirHead, Pages: ps.npages, CompID: d.CompID, Shard: ps.shard, Coord: ps.coord}); err != nil {
		return err
	}
	written++ // the meta page

	// Commit point passed: adopt the new state and recycle the old
	// chains.
	ps.epoch++
	ps.vers = d.Version
	ps.certs, ps.comps, ps.dirPages = newCerts, newComps, dirPages
	ps.free = append(ps.free, freed...)
	sort.Slice(ps.free, func(i, j int) bool { return ps.free[i] < ps.free[j] })
	ps.noteWrite(written)
	return nil
}

func (ps *PageStore) noteWrite(pages uint64) {
	ps.pagesW.Add(pages)
	ps.bytesW.Add(pages * page.Size)
	ps.ckpts.Inc()
	ps.bytesHist.Observe(time.Duration(pages * page.Size))
	ps.lastCkpt.set(time.Now())
}

// writeMeta writes and fsyncs one meta slot — the checkpoint's commit
// point. Direct file I/O, not the pool: meta pages are never part of
// any chain and must hit disk immediately and in order.
func (ps *PageStore) writeMeta(m pageMeta) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	buf := make([]byte, page.Size)
	if err := page.Encode(buf, page.KindMeta, 0, payload); err != nil {
		return err
	}
	pf := &pageFile{f: ps.f}
	if err := pf.WritePage(m.Epoch%2, buf); err != nil {
		return fmt.Errorf("store: writing checkpoint meta slot: %w", err)
	}
	if err := ps.f.Sync(); err != nil {
		return fmt.Errorf("store: fsyncing checkpoint meta slot: %w", err)
	}
	return nil
}

// writeChain stages one object's payload as a chain of dirty pool
// frames (flushed by WriteCheckpoint's FlushDirty). Pages come from
// the free list — which never holds a page the previous checkpoint
// reaches — or extend the file.
func (ps *PageStore) writeChain(kind page.Kind, payload []byte) (uint64, []uint64, error) {
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
			return 0, nil, err
		}
		if err := page.Encode(fr.Data(), kind, next, chunk); err != nil {
			fr.Release()
			return 0, nil, err
		}
		fr.MarkDirty()
		fr.Release()
	}
	return ids[0], ids, nil
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

// writeFresh writes a complete page file for d through a temp file +
// atomic rename — the first checkpoint (the rename replaces whatever a
// torn earlier attempt left at path).
func (ps *PageStore) writeFresh(d ckptData) error {
	var (
		certs    map[string]*certState
		comps    map[uint64]*compState
		dirPages []uint64
		next     = uint64(2)
	)
	err := writeFileAtomic(ps.path, func(tmpf *os.File) error {
		// Sequential writer over the temp file: pages 0/1 reserved for the
		// meta slots, chains appended from page 2.
		pf := &pageFile{f: tmpf}
		buf := make([]byte, page.Size)
		writeChain := func(kind page.Kind, payload []byte) (uint64, []uint64, error) {
			chunks := page.Chunks(payload)
			ids := make([]uint64, len(chunks))
			for i := range ids {
				ids[i] = next
				next++
			}
			for i, chunk := range chunks {
				nxt := uint64(0)
				if i+1 < len(chunks) {
					nxt = ids[i+1]
				}
				if err := page.Encode(buf, kind, nxt, chunk); err != nil {
					return 0, nil, err
				}
				if err := pf.WritePage(ids[i], buf); err != nil {
					return 0, nil, err
				}
			}
			return ids[0], ids, nil
		}

		// Zero meta slots first so the file always spans at least 2 pages.
		zero := make([]byte, page.Size)
		if err := pf.WritePage(0, zero); err != nil {
			return err
		}
		if err := pf.WritePage(1, zero); err != nil {
			return err
		}

		certs = make(map[string]*certState, len(d.Certs))
		var dirCerts []dirCert
		for _, c := range d.Certs {
			payload, err := json.Marshal(encodeRelation(c.Rel))
			if err != nil {
				return err
			}
			head, pages, err := writeChain(page.KindData, payload)
			if err != nil {
				return err
			}
			schema := []string(c.Rel.Schema())
			certs[c.Name] = &certState{rel: c.Rel, schema: schema, head: head, pages: pages}
			dirCerts = append(dirCerts, dirCert{Name: c.Name, Schema: schema, Head: head})
		}
		comps = make(map[uint64]*compState, len(d.Comps))
		var dirComps []dirComp
		for _, comp := range d.Comps {
			payload, err := json.Marshal(encodeAlternatives(d.Names, comp))
			if err != nil {
				return err
			}
			head, pages, err := writeChain(page.KindData, payload)
			if err != nil {
				return err
			}
			comps[comp.ID] = &compState{comp: comp, head: head, pages: pages}
			dirComps = append(dirComps, dirComp{ID: comp.ID, Head: head})
		}
		dir := pageDir{Names: d.Names, Views: d.Views, Certain: dirCerts, Comps: dirComps, Order: d.Order}
		for _, s := range d.Schemas {
			dir.Schemas = append(dir.Schemas, []string(s))
		}
		dirPayload, err := json.Marshal(dir)
		if err != nil {
			return err
		}
		dirHead, pages, err := writeChain(page.KindDir, dirPayload)
		if err != nil {
			return err
		}
		dirPages = pages

		// Meta into slot 1 (epoch 1); slot 0 stays zeroed and invalid.
		metaPayload, err := json.Marshal(pageMeta{Magic: pageMagic, Epoch: 1, Version: d.Version,
			DirHead: dirHead, Pages: next, CompID: d.CompID, Shard: ps.shard, Coord: ps.coord})
		if err != nil {
			return err
		}
		if err := page.Encode(buf, page.KindMeta, 0, metaPayload); err != nil {
			return err
		}
		return pf.WritePage(1, buf)
	})
	if err != nil {
		return err
	}

	f, err := os.OpenFile(ps.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if ps.f != nil {
		ps.f.Close()
	}
	ps.f = f
	ps.pool = bufpool.New(&pageFile{f: f}, ps.poolPages, page.Size)
	ps.inited = true
	ps.epoch, ps.vers, ps.npages = 1, d.Version, next
	ps.certs, ps.comps, ps.dirPages = certs, comps, dirPages
	ps.free = nil
	ps.noteWrite(next)
	return nil
}

// Close releases the file handle. The store becomes unusable.
func (ps *PageStore) Close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.f == nil {
		return nil
	}
	err := ps.f.Close()
	ps.f = nil
	return err
}

// PoolStats exposes the buffer pool's counters (zero when the store is
// uninitialized).
func (ps *PageStore) PoolStats() bufpool.Stats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.pool == nil {
		return bufpool.Stats{}
	}
	return ps.pool.Stats()
}

// mergeLoaded assembles a snapshot from per-shard page files, possibly
// at mixed checkpoint versions after a torn multi-file checkpoint.
// files[0] must be the coordinator: its schema, views and component
// order are authoritative. Each object is taken from the newest file
// holding it; the returned version is the OLDEST file version — the
// replay base — since only epochs newer than every file are guaranteed
// absent, and re-applying epochs a newer file already contains is safe
// (delta replay replaces whole objects).
func mergeLoaded(files []*loadedShard) (*Snapshot, uint64, error) {
	coord := files[0]
	if !coord.Coord {
		return nil, 0, fmt.Errorf("store: checkpoint file 0 is not the coordinator")
	}
	version := coord.Version
	compID := coord.CompID
	for _, f := range files[1:] {
		if f.Version < version {
			version = f.Version
		}
		if f.CompID > compID {
			compID = f.CompID
		}
	}
	db := wsd.NewDecompDB(coord.Names, coord.Schemas)
	certVer := map[string]uint64{}
	for _, f := range files {
		for _, c := range f.Certs {
			ri := db.IndexOf(c.Name)
			if ri < 0 {
				continue // relation the coordinator no longer (or does not yet) know; replay heals
			}
			if !sameStrs([]string(db.Schemas[ri]), []string(c.Rel.Schema())) {
				continue // stale schema; replay heals
			}
			if v, ok := certVer[c.Name]; ok && v >= f.Version {
				continue
			}
			db.Certain[ri] = c.Rel
			certVer[c.Name] = f.Version
		}
	}
	type pick struct {
		comp wsd.DBComponent
		ver  uint64
	}
	picked := map[uint64]pick{}
	for _, f := range files {
		remap := buildRemap(f, db)
		for _, c := range f.Comps {
			if p, ok := picked[c.ID]; ok && p.ver >= f.Version {
				continue
			}
			comp, ok := remapComp(c.Comp, remap)
			if !ok {
				continue
			}
			picked[c.ID] = pick{comp: comp, ver: f.Version}
		}
	}
	// Order: the coordinator's global list first, then components it
	// does not know (created after its epoch — a full-delta replay will
	// reposition them) by ascending ID for determinism.
	used := map[uint64]bool{}
	for _, id := range coord.Order {
		p, ok := picked[id]
		if !ok {
			continue
		}
		db.Components = append(db.Components, p.comp)
		used[id] = true
	}
	var rest []uint64
	for id := range picked {
		if !used[id] {
			rest = append(rest, id)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, id := range rest {
		db.Components = append(db.Components, picked[id].comp)
	}
	return &Snapshot{Version: version, DB: db, Views: coord.Views}, compID, nil
}

// buildRemap maps file-local relation indices to the merged catalog's
// (-1 = the merged catalog does not have the relation, or disagrees on
// its schema — the contribution is dropped and replay heals it).
func buildRemap(f *loadedShard, db *wsd.DecompDB) []int {
	remap := make([]int, len(f.Names))
	for i, name := range f.Names {
		remap[i] = -1
		ri := db.IndexOf(name)
		if ri < 0 {
			continue
		}
		if !sameStrs([]string(db.Schemas[ri]), []string(f.Schemas[i])) {
			continue
		}
		remap[i] = ri
	}
	return remap
}

func remapComp(c wsd.DBComponent, remap []int) (wsd.DBComponent, bool) {
	identity := true
	for i := range remap {
		if remap[i] != i {
			identity = false
			break
		}
	}
	if identity {
		return c, true
	}
	out := wsd.DBComponent{ID: c.ID, Alternatives: make([]wsd.DBAlternative, len(c.Alternatives))}
	for ai, a := range c.Alternatives {
		alt := wsd.DBAlternative{Rels: map[int]*relation.Relation{}}
		for ri, r := range a.Rels {
			if ri < len(remap) && remap[ri] >= 0 {
				alt.Rels[remap[ri]] = r
			}
		}
		out.Alternatives[ai] = alt
	}
	return out, true
}

func sameStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CkptStats is a PageStore's cumulative checkpoint I/O accounting.
type CkptStats struct {
	PagesWritten uint64    // pages written across all checkpoints
	BytesWritten uint64    // PagesWritten * page.Size
	Checkpoints  uint64    // checkpoints that wrote at least one page
	NoopSkips    uint64    // checkpoint requests skipped with zero writes
	LastCkptAt   time.Time // completion time of the last checkpoint or skip
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
