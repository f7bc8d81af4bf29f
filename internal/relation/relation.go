package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"worldsetdb/internal/hashkey"
	"worldsetdb/internal/value"
)

// Tuple is an ordered list of values conforming to some schema.
type Tuple []value.Value

// Key returns an injective encoding of the tuple, usable as a map key.
// Hot paths should prefer Hash plus Equal verification; Key is kept for
// the places that need injectivity (ContentKey, deterministic ordering
// of world enumerations).
func (t Tuple) Key() string {
	var b []byte
	for _, v := range t {
		b = v.AppendKey(b)
		b = append(b, 0x1f) // field separator; never produced by AppendKey payloads of equal length ambiguity
	}
	return string(b)
}

// Hash returns the FNV-1a digest of the whole tuple, allocation-free.
// Equal tuples (per value.Compare) hash identically; unequal tuples may
// collide, so callers must verify candidates with Equal.
func (t Tuple) Hash() uint64 {
	h := hashkey.Offset
	for _, v := range t {
		h = v.Hash(h)
		h = hashkey.Byte(h, 0x1f)
	}
	return h
}

// HashOn returns the FNV-1a digest of the columns at idx, in that order.
// A nil idx means all columns (identity projection).
func (t Tuple) HashOn(idx []int) uint64 {
	if idx == nil {
		return t.Hash()
	}
	h := hashkey.Offset
	for _, i := range idx {
		h = t[i].Hash(h)
		h = hashkey.Byte(h, 0x1f)
	}
	return h
}

// Equal reports value-wise equality (value.Compare == 0 per field).
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i].Compare(u[i]) != 0 {
			return false
		}
	}
	return true
}

// EqualOn reports whether t's columns at tIdx equal u's columns at uIdx.
// A nil index list means all columns of the respective tuple. The two
// lists must have the same effective length.
func (t Tuple) EqualOn(u Tuple, tIdx, uIdx []int) bool {
	if tIdx == nil && uIdx == nil {
		return t.Equal(u)
	}
	n := len(tIdx)
	if tIdx == nil {
		n = len(t)
	}
	for p := 0; p < n; p++ {
		ti, ui := p, p
		if tIdx != nil {
			ti = tIdx[p]
		}
		if uIdx != nil {
			ui = uIdx[p]
		}
		if t[ti].Compare(u[ui]) != 0 {
			return false
		}
	}
	return true
}

// Project returns the tuple's columns at idx, in that order, as a new
// tuple.
func (t Tuple) Project(idx []int) Tuple {
	p := make(Tuple, len(idx))
	for i, j := range idx {
		p[i] = t[j]
	}
	return p
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Less orders tuples lexicographically.
func (t Tuple) Less(u Tuple) bool { return t.Compare(u) < 0 }

// Compare orders tuples lexicographically: negative when t sorts before
// u, positive after, zero when they compare equal.
func (t Tuple) Compare(u Tuple) int {
	n := min(len(t), len(u))
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	return len(t) - len(u)
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "⟨" + strings.Join(parts, ", ") + "⟩"
}

// Relation is a set of tuples over a schema. The zero Relation is not
// usable; construct with New. Relations are mutable until shared; all
// algebra operators in package ra allocate fresh results. Once a
// relation is shared (stored in a world-set, passed to a parallel
// operator) it must not be mutated: concurrent readers rely on it.
// Deriving a version from a shared relation goes through Clone, which
// copies no rows: the clone and its first mutation cost O(segments).
//
// Rows are stored in hash buckets keyed by the tuples' FNV-1a digest
// with exact value comparison on collision, so membership tests and
// inserts allocate no key strings. The buckets live in copy-on-write
// storage: a list of frozen segments, shared with the versions that
// Clone derives, plus one tail map that takes the inserts. A relation
// never cloned keeps everything in its tail — one map, as a plain hash
// set. Cloning shares the tail and marks it frozen; the next mutation
// on either side moves the frozen tail onto its own segment list and
// starts a new tail, so a version costs the rows it adds, not the rows
// it shares. Adjacent segments merge while the newer holds at least
// half the rows of the older (a binary counter), so a relation has
// O(log n) segments and a row is copied O(log n) times over its life.
type Relation struct {
	schema Schema
	// segs are the frozen segments, oldest first. Neither the list nor a
	// segment's map or buckets is ever written in place: a change builds
	// a new list, and a delete from a segment moves a copy of its rows
	// into the tail.
	segs []segment
	// rows is the tail. While shared is unset no other version reads it
	// (a WithSchema sibling is the same version), and Insert and Delete
	// write it in place; shared marks it read by a clone, and the next
	// mutation moves it onto segs.
	rows   map[uint64][]Tuple
	shared atomic.Bool
	n      int

	// mu guards the lazily computed caches below. The row storage itself
	// is not guarded: mutation is only legal before the relation is
	// shared.
	mu      sync.Mutex
	ck      string
	ckValid bool
	chash   uint64
	chValid bool
	// memo caches what depends on the rows alone, never on attribute
	// names — the IndexOn indexes and ContentHash's row-set digest — so
	// the WithSchema siblings of a relation share one: an index built, or
	// a digest taken, through any rename of a catalog relation is found
	// through every other, and a rename is never re-hashed.
	memo atomic.Pointer[rowMemo]
}

// segment is one frozen, shared part of a relation's row storage.
type segment struct {
	rows map[uint64][]Tuple
	n    int
}

// New returns an empty relation over the given schema.
func New(schema Schema) *Relation {
	return &Relation{schema: schema, rows: make(map[uint64][]Tuple)}
}

// NewSized returns an empty relation with room for n tuples, for a
// caller that knows how many it will insert: filling it never rehashes.
func NewSized(schema Schema, n int) *Relation {
	return &Relation{schema: schema, rows: make(map[uint64][]Tuple, n)}
}

// FromRows builds a relation over schema containing the given tuples.
// Each row must have exactly len(schema) values.
func FromRows(schema Schema, rows ...Tuple) *Relation {
	r := New(schema)
	for _, t := range rows {
		r.Insert(t)
	}
	return r
}

// Schema returns the relation's schema. Callers must not mutate it.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.n == 0 }

// invalidate drops memoized caches after a mutation.
func (r *Relation) invalidate() {
	if r.ckValid || r.chValid {
		r.mu.Lock()
		r.ck, r.ckValid = "", false
		r.chash, r.chValid = 0, false
		r.mu.Unlock()
	}
	if r.memo.Load() != nil {
		r.memo.Store(nil) // detach, not clear: the memo may be shared with siblings
	}
}

// own makes the tail writable before a mutation: a tail another version
// shares is moved onto the segment list, merging segments by the
// binary-counter rule, and replaced by an empty one.
func (r *Relation) own() {
	if !r.shared.Load() {
		return
	}
	tail := r.n
	for _, s := range r.segs {
		tail -= s.n
	}
	if tail > 0 {
		segs := make([]segment, len(r.segs), len(r.segs)+1)
		copy(segs, r.segs)
		segs = append(segs, segment{r.rows, tail})
		for k := len(segs); k >= 2 && 2*segs[k-1].n >= segs[k-2].n; k-- {
			segs = append(segs[:k-2], merge(segs[k-2], segs[k-1]))
		}
		r.segs = segs
	}
	r.rows = make(map[uint64][]Tuple)
	r.shared.Store(false)
}

// merge returns one segment holding the rows of a and b, which are
// disjoint. Buckets present in one of them only are shared, not copied:
// segment buckets are never written in place.
func merge(a, b segment) segment {
	m := make(map[uint64][]Tuple, a.n+b.n)
	for _, s := range [2]segment{a, b} {
		for h, bucket := range s.rows {
			if old, ok := m[h]; ok {
				bucket = append(old[:len(old):len(old)], bucket...)
			}
			m[h] = bucket
		}
	}
	return segment{m, a.n + b.n}
}

// indexIn returns the position of t in bucket, or -1.
func indexIn(bucket []Tuple, t Tuple) int {
	for i, u := range bucket {
		if t.Equal(u) {
			return i
		}
	}
	return -1
}

// has reports whether t, whose digest is h, is stored in any segment or
// the tail.
func (r *Relation) has(t Tuple, h uint64) bool {
	if indexIn(r.rows[h], t) >= 0 {
		return true
	}
	for i := range r.segs {
		if indexIn(r.segs[i].rows[h], t) >= 0 {
			return true
		}
	}
	return false
}

// Insert adds a tuple, reporting whether it was new. It panics if the
// arity does not match the schema: arity mismatches are program bugs, not
// data errors.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != len(r.schema) {
		panic(fmt.Sprintf("relation: inserting arity-%d tuple into schema %v", len(t), r.schema))
	}
	h := t.Hash()
	if r.has(t, h) {
		return false
	}
	r.add(t, h)
	return true
}

// InsertDistinct adds a tuple the caller guarantees is not already
// present, skipping the membership scan. Packages wsdexec, inline and
// wsa use it where the rows come from a set already: a selection's
// survivors, the rows of one hash group, or one group's rows with the
// shared id columns dropped. Anywhere that guarantee does not hold, use
// Insert.
func (r *Relation) InsertDistinct(t Tuple) {
	if len(t) != len(r.schema) {
		panic(fmt.Sprintf("relation: inserting arity-%d tuple into schema %v", len(t), r.schema))
	}
	r.add(t, t.Hash())
}

// add appends t, whose digest is h, to the tail.
func (r *Relation) add(t Tuple, h uint64) {
	r.own()
	r.rows[h] = append(r.rows[h], t)
	r.n++
	r.invalidate()
}

// InsertValues is Insert with a variadic convenience signature.
func (r *Relation) InsertValues(vs ...value.Value) bool { return r.Insert(Tuple(vs)) }

// Delete removes a tuple if present, reporting whether it was there. A
// tuple in a frozen segment moves that segment's rows into the tail —
// a copy of that segment only — so further deletes from those rows cost
// what a delete from an unshared relation does.
func (r *Relation) Delete(t Tuple) bool {
	h := t.Hash()
	if !r.has(t, h) {
		return false
	}
	r.own()
	if indexIn(r.rows[h], t) < 0 {
		s := slices.IndexFunc(r.segs, func(s segment) bool { return indexIn(s.rows[h], t) >= 0 })
		if len(r.rows) == 0 {
			r.rows = make(map[uint64][]Tuple, len(r.segs[s].rows))
		}
		for k, bucket := range r.segs[s].rows {
			r.rows[k] = append(r.rows[k], bucket...) // a fresh bucket when the tail has none
		}
		r.segs = slices.Delete(slices.Clone(r.segs), s, s+1)
	}
	bucket := r.rows[h]
	i := indexIn(bucket, t)
	bucket[i] = bucket[len(bucket)-1]
	if bucket = bucket[:len(bucket)-1]; len(bucket) == 0 {
		delete(r.rows, h)
	} else {
		r.rows[h] = bucket
	}
	r.n--
	r.invalidate()
	return true
}

// Contains reports tuple membership.
func (r *Relation) Contains(t Tuple) bool { return r.has(t, t.Hash()) }

// ContainsProj reports whether some tuple of r equals t's columns at
// idx. r's tuples are compared in full, so idx must have length
// len(r.Schema()). Used to probe set membership with a projection of a
// wider tuple without materializing it.
func (r *Relation) ContainsProj(t Tuple, idx []int) bool {
	h := t.HashOn(idx)
	for _, u := range r.rows[h] {
		if u.EqualOn(t, nil, idx) {
			return true
		}
	}
	for i := range r.segs {
		for _, u := range r.segs[i].rows[h] {
			if u.EqualOn(t, nil, idx) {
				return true
			}
		}
	}
	return false
}

// Each calls f for every tuple in unspecified order. f must not mutate
// the relation.
func (r *Relation) Each(f func(Tuple)) {
	for i := range r.segs {
		for _, bucket := range r.segs[i].rows {
			for _, t := range bucket {
				f(t)
			}
		}
	}
	for _, bucket := range r.rows {
		for _, t := range bucket {
			f(t)
		}
	}
}

// Tuples returns the tuples sorted lexicographically, for deterministic
// printing and comparison in tests.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.n)
	r.Each(func(t Tuple) { out = append(out, t) })
	slices.SortFunc(out, Tuple.Compare)
	return out
}

// Clone returns a new version of r. It shares r's row storage and copies
// no rows: the shared tail is marked frozen, and whichever of the two is
// mutated first moves it onto its own segment list, at O(segments).
// Tuples are immutable by convention. Concurrent readers may clone one
// published relation; the clone stays mutable, like a relation fresh
// from New, until it is shared in turn.
func (r *Relation) Clone() *Relation {
	if !r.shared.Load() {
		r.shared.Store(true)
	}
	c := &Relation{schema: r.schema.Clone(), segs: r.segs, rows: r.rows, n: r.n}
	c.shared.Store(true)
	return c
}

// WithSchema returns a relation with the same rows but attribute names
// replaced by the given schema (same arity). Used for renaming. The
// result is r's version under other names: it shares the row storage,
// tail included, and the row memo: its IndexOn indexes and the row-set
// digest under its ContentHash. Mutate at most one of the two,
// and only once the other is no longer used — as an operator extends
// the rename of its own fresh output; Clone derives a version either
// side may mutate.
func (r *Relation) WithSchema(s Schema) *Relation {
	if len(s) != len(r.schema) {
		panic("relation: WithSchema arity mismatch")
	}
	out := &Relation{schema: s, segs: r.segs, rows: r.rows, n: r.n}
	out.shared.Store(r.shared.Load())
	out.memo.Store(r.rowMemo())
	return out
}

// Equal reports set equality of tuples and order-sensitive schema
// equality.
func (r *Relation) Equal(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.n != o.n {
		return false
	}
	equal := true
	r.Each(func(t Tuple) {
		if equal && !o.Contains(t) {
			equal = false
		}
	})
	return equal
}

// EqualContents reports set equality of tuples after aligning o's columns
// to r's schema by name. Schemas must contain the same attribute names.
func (r *Relation) EqualContents(o *Relation) bool {
	if len(r.schema) != len(o.schema) || r.n != o.n {
		return false
	}
	perm, err := o.schema.Indexes(r.schema)
	if err != nil {
		return false
	}
	equal := true
	o.Each(func(t Tuple) {
		if equal && !r.ContainsProj(t, perm) {
			equal = false
		}
	})
	return equal
}

// ContentKey returns an injective encoding of the relation's contents
// (schema + sorted tuple keys): the sort key that orders listed answers
// and worlds (SortByContent, worldset.World.Key). Set membership goes
// through ContentHash plus Equal instead. The key is memoized,
// invalidated by Insert/Delete and safe under concurrent readers.
func (r *Relation) ContentKey() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ckValid {
		return r.ck
	}
	var b strings.Builder
	b.WriteString(strings.Join(r.schema, ","))
	b.WriteByte('|')
	keys := make([]string, 0, r.n)
	r.Each(func(t Tuple) { keys = append(keys, t.Key()) })
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(0x1e)
	}
	r.ck, r.ckValid = b.String(), true
	return r.ck
}

// SortByContent orders rs by ContentKey: the deterministic order in
// which distinct answers and instances are listed. ContentKey is
// memoised, so the sort keys each relation once.
func SortByContent(rs []*Relation) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].ContentKey() < rs[j].ContentKey() })
}

// ContentHash returns a digest of the relation's contents (schema plus
// the set of tuples), memoized like ContentKey. Equal relations hash
// equally; unequal relations may collide, so consumers (world-set
// deduplication) must verify candidates with Equal. Tuple digests are
// avalanched and combined with XOR, so the digest is independent of
// iteration order without sorting — unlike ContentKey, computing it
// allocates nothing. The row-set part is memoized on the row memo, so
// a WithSchema rename hashes its schema only.
func (r *Relation) ContentHash() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.chValid {
		return r.chash
	}
	h := hashkey.Offset
	for _, name := range r.schema {
		h = hashkey.String(h, name)
		h = hashkey.Byte(h, ',')
	}
	var set uint64
	if m := r.rowMemo(); m.digestOK.Load() {
		set = m.digest.Load()
	} else {
		r.Each(func(t Tuple) { set ^= hashkey.Finalize(t.Hash()) })
		m.digest.Store(set)
		m.digestOK.Store(true)
	}
	h = hashkey.Mix(h, set)
	h = hashkey.Uint64(h, uint64(r.n))
	r.chash, r.chValid = h, true
	return h
}

// Project returns a new relation keeping the columns at the given
// indexes, in that order, with the given output names. Duplicate rows
// collapse (set semantics).
func (r *Relation) Project(idx []int, names Schema) *Relation {
	out := New(names)
	r.Each(func(t Tuple) { out.Insert(t.Project(idx)) })
	return out
}

// String renders the relation as an ASCII table in the style of the
// paper's figures: header row of attribute names, one row per tuple,
// sorted.
func (r *Relation) String() string { return r.Render("") }

// Render renders the relation with an optional caption.
func (r *Relation) Render(caption string) string { return string(r.AppendRender(nil, caption)) }

// AppendRender appends Render's bytes to b. Cells are formatted twice —
// once to size the columns, once to write them — rather than held as
// strings, so rendering an answer allocates only its sorted row list.
func (r *Relation) AppendRender(b []byte, caption string) []byte {
	var wbuf [8]int
	widths := wbuf[:0]
	for _, n := range r.schema {
		widths = append(widths, utf8.RuneCountInString(n))
	}
	tuples := r.Tuples()
	var cbuf [64]byte
	for _, t := range tuples {
		for i, v := range t {
			widths[i] = max(widths[i], utf8.RuneCount(v.AppendString(cbuf[:0])))
		}
	}
	if caption != "" {
		b = append(append(b, caption...), '\n')
	}
	pad := func(b []byte, cell, width int) []byte {
		for ; cell < width; cell++ {
			b = append(b, ' ')
		}
		return b
	}
	for i, n := range r.schema {
		if i > 0 {
			b = append(b, "  "...)
		}
		b = pad(append(b, n...), utf8.RuneCountInString(n), widths[i])
	}
	b = append(b, '\n')
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	for i := 2; i < total; i++ {
		b = append(b, '-')
	}
	if total > 2 {
		b = append(b, '\n')
	}
	for _, t := range tuples {
		for i, v := range t {
			if i > 0 {
				b = append(b, "  "...)
			}
			start := len(b)
			b = v.AppendString(b)
			b = pad(b, utf8.RuneCount(b[start:]), widths[i])
		}
		b = append(b, '\n')
	}
	if len(tuples) == 0 {
		b = append(b, "(empty)\n"...)
	}
	return b
}
