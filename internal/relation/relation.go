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
// operator) it must not be mutated: concurrent readers rely on it, and
// sibling relations created by WithSchema share the row storage.
//
// Rows are stored in hash buckets keyed by the tuples' FNV-1a digest
// with exact value comparison on collision, so membership tests and
// inserts allocate no key strings.
type Relation struct {
	schema Schema
	rows   map[uint64][]Tuple
	n      int

	// mu guards the lazily computed caches below. The row storage itself
	// is not guarded: mutation is only legal before the relation is
	// shared.
	mu      sync.Mutex
	ck      string
	ckValid bool
	chash   uint64
	chValid bool
	// ix caches the IndexOn indexes. An index depends on the rows and on
	// column positions only, never on attribute names, so the WithSchema
	// siblings of a relation share one cache: an index built through any
	// rename of a catalog relation is found through every other.
	ix atomic.Pointer[indexCache]
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
	if r.ix.Load() != nil {
		r.ix.Store(nil) // detach, not clear: the cache may be shared with siblings
	}
}

// Insert adds a tuple, reporting whether it was new. It panics if the
// arity does not match the schema: arity mismatches are program bugs, not
// data errors.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != len(r.schema) {
		panic(fmt.Sprintf("relation: inserting arity-%d tuple into schema %v", len(t), r.schema))
	}
	h := t.Hash()
	for _, u := range r.rows[h] {
		if t.Equal(u) {
			return false
		}
	}
	r.rows[h] = append(r.rows[h], t)
	r.n++
	r.invalidate()
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
	h := t.Hash()
	r.rows[h] = append(r.rows[h], t)
	r.n++
	r.invalidate()
}

// InsertValues is Insert with a variadic convenience signature.
func (r *Relation) InsertValues(vs ...value.Value) bool { return r.Insert(Tuple(vs)) }

// Delete removes a tuple if present, reporting whether it was there.
func (r *Relation) Delete(t Tuple) bool {
	h := t.Hash()
	bucket := r.rows[h]
	for i, u := range bucket {
		if t.Equal(u) {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			if len(bucket) == 0 {
				delete(r.rows, h)
			} else {
				r.rows[h] = bucket
			}
			r.n--
			r.invalidate()
			return true
		}
	}
	return false
}

// Contains reports tuple membership.
func (r *Relation) Contains(t Tuple) bool {
	for _, u := range r.rows[t.Hash()] {
		if t.Equal(u) {
			return true
		}
	}
	return false
}

// ContainsProj reports whether some tuple of r equals t's columns at
// idx. r's tuples are compared in full, so idx must have length
// len(r.Schema()). Used to probe set membership with a projection of a
// wider tuple without materializing it.
func (r *Relation) ContainsProj(t Tuple, idx []int) bool {
	for _, u := range r.rows[t.HashOn(idx)] {
		if u.EqualOn(t, nil, idx) {
			return true
		}
	}
	return false
}

// Each calls f for every tuple in unspecified order. f must not mutate
// the relation.
func (r *Relation) Each(f func(Tuple)) {
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
	for _, bucket := range r.rows {
		out = append(out, bucket...)
	}
	slices.SortFunc(out, Tuple.Compare)
	return out
}

// Clone returns a deep-enough copy (tuples are immutable by convention).
func (r *Relation) Clone() *Relation {
	c := &Relation{schema: r.schema.Clone(), rows: make(map[uint64][]Tuple, len(r.rows)), n: r.n}
	for h, bucket := range r.rows {
		c.rows[h] = append([]Tuple(nil), bucket...)
	}
	return c
}

// WithSchema returns a relation with the same rows but attribute names
// replaced by the given schema (same arity). Used for renaming. The
// result shares row storage and the IndexOn cache with r; neither may
// be mutated afterwards.
func (r *Relation) WithSchema(s Schema) *Relation {
	if len(s) != len(r.schema) {
		panic("relation: WithSchema arity mismatch")
	}
	out := &Relation{schema: s, rows: r.rows, n: r.n}
	out.ix.Store(r.indexCache())
	return out
}

// Equal reports set equality of tuples and order-sensitive schema
// equality.
func (r *Relation) Equal(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.n != o.n {
		return false
	}
	for _, bucket := range r.rows {
		for _, t := range bucket {
			if !o.Contains(t) {
				return false
			}
		}
	}
	return true
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
	for _, bucket := range r.rows {
		for _, t := range bucket {
			keys = append(keys, t.Key())
		}
	}
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
// allocates nothing.
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
	for _, bucket := range r.rows {
		for _, t := range bucket {
			set ^= hashkey.Finalize(t.Hash())
		}
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
	for _, bucket := range r.rows {
		for _, t := range bucket {
			out.Insert(t.Project(idx))
		}
	}
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
