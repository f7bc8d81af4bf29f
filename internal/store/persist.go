package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// Catalog import/export: a snapshot round-trips through a JSON ".wsd"
// document holding the decomposition (certain tuples plus components,
// with alternative contributions keyed by relation name) and the view
// definitions. The format stores the factored form directly — a
// 2^40-world catalog persists in space linear in its decomposition
// size. Import/export only (cmd/isql and isqld -load/-save, seeds):
// durable catalogs checkpoint to a page file (pagestore.go) and Open
// reads nothing else; the tuple and alternative encodings below are
// shared with the page and WAL-delta payloads.

// formatTag identifies the persisted format.
const formatTag = "worldsetdb-catalog/v1"

type jsonCatalog struct {
	Format     string            `json:"format"`
	Version    uint64            `json:"version"`
	Names      []string          `json:"names"`
	Schemas    [][]string        `json:"schemas"`
	Certain    [][]jsonTuple     `json:"certain"`
	Components []jsonComponent   `json:"components,omitempty"`
	Views      map[string]string `json:"views,omitempty"`
	// CompID persists the component-ID allocator so IDs stay stable
	// across restarts — WAL delta records and page chains address
	// components by these IDs. Absent in historical files; the loader
	// then seeds the allocator past the highest assigned ID.
	CompID uint64 `json:"comp_id,omitempty"`
}

type jsonComponent struct {
	Alternatives []jsonAlternative `json:"alternatives"`
	// ID is the component's stable identity (see wsd.DBComponent.ID);
	// omitted in files written before IDs were persisted.
	ID uint64 `json:"id,omitempty"`
}

type jsonAlternative struct {
	// Rels maps relation name → contributed tuples.
	Rels map[string][]jsonTuple `json:"rels,omitempty"`
}

type jsonTuple []any

// encodeTuple converts a tuple to its JSON cells. Ints and floats
// encode as numbers that decode to their own kind: an integral float
// carries an exponent, which an int never does. Values JSON cannot
// carry natively use tagged objects.
func encodeTuple(t relation.Tuple) jsonTuple {
	out := make(jsonTuple, len(t))
	for i, v := range t {
		out[i] = encodeValue(v)
	}
	return out
}

func encodeValue(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindBool:
		return v.AsBool()
	case value.KindInt:
		// int64 encodes as a JSON number with full decimal precision and
		// decodes through json.Number, so the round trip is exact.
		return v.AsInt()
	case value.KindFloat:
		f := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return map[string]any{"$float": strconv.FormatFloat(f, 'g', -1, 64)}
		}
		if f == math.Trunc(f) {
			return json.Number(strconv.FormatFloat(f, 'e', -1, 64))
		}
		return f
	case value.KindString:
		return v.AsString()
	case value.KindPad:
		return map[string]any{"$pad": true}
	}
	return nil
}

func decodeValue(raw any) (value.Value, error) {
	switch x := raw.(type) {
	case nil:
		return value.Null(), nil
	case bool:
		return value.Bool(x), nil
	case string:
		return value.Str(x), nil
	case json.Number:
		if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
			return value.Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return value.Value{}, fmt.Errorf("store: unparsable number %q", x)
		}
		return value.Float(f), nil
	case map[string]any:
		if s, ok := x["$int"].(string); ok {
			i, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return value.Value{}, fmt.Errorf("store: bad $int %q", s)
			}
			return value.Int(i), nil
		}
		if s, ok := x["$float"].(string); ok {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return value.Value{}, fmt.Errorf("store: bad $float %q", s)
			}
			return value.Float(f), nil
		}
		if _, ok := x["$pad"]; ok {
			return value.Pad(), nil
		}
	}
	return value.Value{}, fmt.Errorf("store: cannot decode value %v (%T)", raw, raw)
}

func encodeRelation(r *relation.Relation) []jsonTuple {
	tuples := r.Tuples()
	out := make([]jsonTuple, len(tuples))
	for i, t := range tuples {
		out[i] = encodeTuple(t)
	}
	return out
}

// encodeAlternatives converts a component's alternatives to their JSON
// form, contributions keyed by relation name (empty contributions are
// skipped — they carry no durable state). Shared by Save, the WAL's
// page-delta records and the page store's object payloads, so all three
// persist byte-compatible content.
func encodeAlternatives(names []string, comp wsd.DBComponent) []jsonAlternative {
	out := make([]jsonAlternative, len(comp.Alternatives))
	for ai, a := range comp.Alternatives {
		ja := jsonAlternative{}
		for ri, rel := range a.Rels {
			if rel == nil || rel.Len() == 0 {
				continue
			}
			if ja.Rels == nil {
				ja.Rels = map[string][]jsonTuple{}
			}
			ja.Rels[names[ri]] = encodeRelation(rel)
		}
		out[ai] = ja
	}
	return out
}

// decodeAlternatives rebuilds a component's alternatives against db's
// schema.
func decodeAlternatives(db *wsd.DecompDB, alts []jsonAlternative) ([]wsd.DBAlternative, error) {
	out := make([]wsd.DBAlternative, len(alts))
	for ai, ja := range alts {
		alt := wsd.DBAlternative{Rels: map[int]*relation.Relation{}}
		for name, rows := range ja.Rels {
			ri := db.IndexOf(name)
			if ri < 0 {
				return nil, fmt.Errorf("store: component references unknown relation %q", name)
			}
			rel, err := decodeRelation(db.Schemas[ri], rows)
			if err != nil {
				return nil, fmt.Errorf("store: component relation %q: %w", name, err)
			}
			alt.Rels[ri] = rel
		}
		out[ai] = alt
	}
	return out, nil
}

func decodeTuple(schema relation.Schema, row jsonTuple) (relation.Tuple, error) {
	if len(row) != len(schema) {
		return nil, fmt.Errorf("store: arity-%d tuple under schema %v", len(row), schema)
	}
	t := make(relation.Tuple, len(row))
	for i, cell := range row {
		v, err := decodeValue(cell)
		if err != nil {
			return nil, err
		}
		t[i] = v
	}
	return t, nil
}

func decodeRelation(schema relation.Schema, rows []jsonTuple) (*relation.Relation, error) {
	r := relation.New(schema)
	for _, row := range rows {
		t, err := decodeTuple(schema, row)
		if err != nil {
			return nil, err
		}
		r.Insert(t)
	}
	return r, nil
}

// Save writes the snapshot as a .wsd JSON document.
func Save(w io.Writer, snap *Snapshot) error {
	doc := jsonCatalog{
		Format:  formatTag,
		Version: snap.Version,
		Names:   snap.DB.Names,
		Views:   snap.Views,
		CompID:  snap.compID,
	}
	if doc.CompID == 0 {
		doc.CompID = snap.DB.MaxComponentID()
	}
	for _, s := range snap.DB.Schemas {
		doc.Schemas = append(doc.Schemas, []string(s))
	}
	for _, r := range snap.DB.Certain {
		doc.Certain = append(doc.Certain, encodeRelation(r))
	}
	for _, c := range snap.DB.Components {
		doc.Components = append(doc.Components, jsonComponent{
			Alternatives: encodeAlternatives(snap.DB.Names, c), ID: c.ID})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Load reads a .wsd JSON document and returns a catalog seeded with the
// decoded snapshot (the persisted version number is preserved).
func Load(r io.Reader) (*Catalog, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var doc jsonCatalog
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("store: decoding catalog: %w", err)
	}
	if doc.Format != formatTag {
		return nil, fmt.Errorf("store: unknown catalog format %q (want %q)", doc.Format, formatTag)
	}
	if len(doc.Names) != len(doc.Schemas) || len(doc.Names) != len(doc.Certain) {
		return nil, fmt.Errorf("store: inconsistent catalog: %d names, %d schemas, %d certain relations",
			len(doc.Names), len(doc.Schemas), len(doc.Certain))
	}
	schemas := make([]relation.Schema, len(doc.Schemas))
	for i, s := range doc.Schemas {
		schemas[i] = relation.NewSchema(s...)
	}
	db := wsd.NewDecompDB(doc.Names, schemas)
	for i, rows := range doc.Certain {
		rel, err := decodeRelation(schemas[i], rows)
		if err != nil {
			return nil, fmt.Errorf("store: certain relation %q: %w", doc.Names[i], err)
		}
		db.Certain[i] = rel
	}
	for ci, jc := range doc.Components {
		alts, err := decodeAlternatives(db, jc.Alternatives)
		if err != nil {
			return nil, fmt.Errorf("store: component %d: %w", ci, err)
		}
		db.Components = append(db.Components, wsd.DBComponent{Alternatives: alts, ID: jc.ID})
	}
	views := doc.Views
	if views == nil {
		views = map[string]string{}
	}
	version := doc.Version
	if version == 0 {
		version = 1
	}
	compID := doc.CompID
	if m := db.MaxComponentID(); m > compID {
		compID = m
	}
	return newCatalog(&Snapshot{Version: version, DB: db, Views: views}, compID), nil
}

// SaveFile writes the snapshot to path atomically: the document goes to
// a temp file in the same directory, is fsynced, and replaces path with
// one rename — a crash mid-save can no longer truncate an existing
// catalog file to a torn prefix.
func SaveFile(path string, snap *Snapshot) error {
	return writeFileAtomic(path, func(f *os.File) error { return Save(f, snap) })
}

// writeFileAtomic creates or replaces path durably and in one step: fill
// writes the content into a temp file in the same directory, which is
// fsynced, closed and renamed over path before the directory itself is
// fsynced. A failure at any step removes the temp file and leaves
// whatever was at path untouched.
func writeFileAtomic(path string, fill func(*os.File) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = fill(f)
	if err == nil {
		// CreateTemp makes 0600 files; keep the historical os.Create
		// mode so other readers of the file are unaffected by the
		// atomic rename path.
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return fsyncDir(dir)
}

// fsyncDir makes a rename in dir durable: without the directory fsync a
// crash can forget the rename, leaving the previous file — or, for a
// first save, nothing — at the path. A checkpoint that is not durable
// must not report success, so the error propagates; excused are only
// platforms that genuinely cannot fsync a directory (Windows rejects it
// outright; some filesystems report EINVAL/ENOTSUP).
func fsyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening directory for fsync after rename: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("store: fsyncing directory after rename: %w", err)
	}
	return nil
}

// LoadFile reads a catalog from path.
func LoadFile(path string) (*Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
