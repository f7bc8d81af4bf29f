package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/wsd"
)

// WAL page-delta records. A CommitDelta captures a commit's effect on
// durable state — relations created and dropped, which certain relations
// changed, which components (by stable ID) were upserted or dropped, view
// changes — so store.Open replays a record by patching the decomposition
// directly, in time proportional to the touched data, never by running a
// query. The statement texts stay in the record as provenance.
//
// The delta is computed on the commit path by pointer/shape diffing
// (see wsd.SameComponentShape), relations paired by name: copy-on-write
// edits share *relation.Relation values for untouched data, so the diff
// never compares untouched relations, and a schema change logs what it
// touched, not the catalog. A false positive (rebuilt relation with
// equal content) only makes the record larger, never wrong. A touched
// relation is patched from the commit's recorded insert edit when it has
// one (certEdits), by diffRelation otherwise.

// CommitDelta is the durable description of one commit's effect.
type CommitDelta struct {
	// NewRels and DropRels describe a change to the relation list. The
	// post-commit list is the base's relations minus DropRels, in base
	// order, followed by NewRels, in order. A relation dropped and
	// created again under its name is in both; one neither names
	// survives, keeping its certain part and its index in every
	// untouched component. Both are empty when the list is unchanged.
	NewRels  []deltaRel `json:"new_rels,omitempty"`
	DropRels []string   `json:"drop_rels,omitempty"`

	// Certain maps relation name → complete post-commit tuple set for
	// each certain relation the commit touched.
	Certain map[string][]jsonTuple `json:"certain,omitempty"`

	// Patch maps relation name → tuple-level edit for touched certain
	// relations whose change is a small fraction of their rows. A
	// single-row insert into an n-row relation logs one tuple instead
	// of n — without this, insert-heavy workloads pay O(n) delta encode
	// per commit and O(n) decode per replayed record, and past a few
	// dozen rows that costs more than re-executing the statement.
	// Relations are tuple sets (serialization sorts), so an edit list
	// replays to byte-identical state.
	Patch map[string]*relPatch `json:"patch,omitempty"`

	// Upserts carries every created or modified component, keyed by
	// stable ID, in post-commit order. Drops lists IDs of components
	// the commit removed, in pre-commit order.
	Upserts []deltaComp `json:"upserts,omitempty"`
	Drops   []uint64    `json:"drops,omitempty"`

	// Order overrides the derived component order (base order with
	// drops removed, upserts substituted in place and new components
	// appended) when the commit reordered components beyond that rule.
	Order []uint64 `json:"order,omitempty"`

	// ViewsChanged/Views carry the complete post-commit view map when
	// the commit changed it (a nil-vs-empty distinction plain omitempty
	// cannot express).
	ViewsChanged bool              `json:"vch,omitempty"`
	Views        map[string]string `json:"views,omitempty"`
}

// deltaRel is a relation a commit created: its name and attributes.
type deltaRel struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
}

type deltaComp struct {
	ID   uint64            `json:"id"`
	Alts []jsonAlternative `json:"alts"`
}

// relPatch is a tuple-level edit to one certain relation: Ins are the
// tuples the commit added, Del the tuples it removed (both sorted for
// deterministic record bytes).
type relPatch struct {
	Ins []jsonTuple `json:"ins,omitempty"`
	Del []jsonTuple `json:"del,omitempty"`
}

// diffRelation computes a tuple-level patch base → next, or nil when a
// whole-relation capture is the better encoding. The budget is a
// quarter of the larger side's rows: below it the patch is strictly
// smaller than the capture; above it (bulk loads, rewrites) the
// capture costs about the same and skips the membership probes. The
// probe pass bails out as soon as the budget is exceeded, so the diff
// costs O(n) hash lookups, never O(n) encodes.
func diffRelation(base, next *relation.Relation) *relPatch {
	if base == nil || next == nil {
		return nil
	}
	budget := next.Len() / 4
	if b := base.Len() / 4; b > budget {
		budget = b
	}
	if budget == 0 {
		return nil
	}
	var ins, del []relation.Tuple
	over := false
	next.Each(func(t relation.Tuple) {
		if over || base.Contains(t) {
			return
		}
		ins = append(ins, t)
		over = len(ins) > budget
	})
	if over {
		return nil
	}
	// |base ∩ next| = next.Len() - len(ins), so the deletion count is
	// known before probing for the deleted tuples themselves.
	nDel := base.Len() - (next.Len() - len(ins))
	if len(ins)+nDel > budget {
		return nil
	}
	if nDel > 0 {
		base.Each(func(t relation.Tuple) {
			if !next.Contains(t) {
				del = append(del, t)
			}
		})
	}
	return &relPatch{Ins: encodeTuples(ins), Del: encodeTuples(del)}
}

// encodeTuples encodes an edit list in sorted order.
func encodeTuples(ts []relation.Tuple) []jsonTuple {
	if len(ts) == 0 {
		return nil
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	out := make([]jsonTuple, len(ts))
	for i, t := range ts {
		out[i] = encodeTuple(t)
	}
	return out
}

// decodeDelta parses a delta's raw JSON with UseNumber so tuple cells
// decode as json.Number (decodeValue's integer/float discrimination
// depends on it). A key this build does not know is an error: skipping
// it would replay a different change than the one logged.
func decodeDelta(raw []byte) (*CommitDelta, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var d CommitDelta
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("store: decoding commit delta: %w", err)
	}
	return &d, nil
}

func sameSchema(a, b *wsd.DecompDB) bool {
	return slices.Equal(a.Names, b.Names) && slices.EqualFunc(a.Schemas, b.Schemas, relation.Schema.Equal)
}

// diffRels logs the change of the relation list base → next and returns
// where each base relation went: to[i] is its index in next, -1 when the
// commit dropped it. Relations pair by name; a base relation survives
// when next holds its name with the same attributes, in base order and
// ahead of every relation the commit created — the only lists CREATE,
// CTAS and DROP produce. Any other list still logs exactly: what breaks
// the rule is logged as dropped and created again, with its content.
func (d *CommitDelta) diffRels(base, next *wsd.DecompDB) []int {
	to := make([]int, len(base.Names))
	if sameSchema(base, next) {
		for i := range to {
			to[i] = i
		}
		return to
	}
	byName := make(map[string]int, len(base.Names))
	for i, name := range base.Names {
		byName[name] = i
		to[i] = -1
	}
	last := -1
	for ni, name := range next.Names {
		if bi, ok := byName[name]; ok && bi > last && len(d.NewRels) == 0 && base.Schemas[bi].Equal(next.Schemas[ni]) {
			to[bi], last = ni, bi
			continue
		}
		d.NewRels = append(d.NewRels, deltaRel{Name: name, Attrs: next.Schemas[ni]})
	}
	for i, ni := range to {
		if ni < 0 {
			d.DropRels = append(d.DropRels, base.Names[i])
		}
	}
	return to
}

// carry re-keys a component's contributions from base relation indexes
// to post-commit ones (to, as diffRels returns it; nil when no index
// moved). It reports false when the component contributes a tuple to a
// dropped relation: such a component cannot be carried, only upserted.
func carry(c wsd.DBComponent, to []int) (wsd.DBComponent, bool) {
	if to == nil {
		return c, true
	}
	out := wsd.DBComponent{ID: c.ID, Alternatives: make([]wsd.DBAlternative, len(c.Alternatives))}
	for ai, a := range c.Alternatives {
		rels := make(map[int]*relation.Relation, len(a.Rels))
		for ri, r := range a.Rels {
			switch {
			case to[ri] >= 0:
				rels[to[ri]] = r
			case r != nil && r.Len() > 0:
				return wsd.DBComponent{}, false
			}
		}
		out.Alternatives[ai] = wsd.DBAlternative{Rels: rels}
	}
	return out, true
}

// moved returns to, or nil when every relation kept its index.
func moved(to []int) []int {
	for i, ni := range to {
		if ni != i {
			return to
		}
	}
	return nil
}

// logCertain records a touched certain relation: as the tuple-level
// patch p when there is one, else as its whole post-commit contents.
func (d *CommitDelta) logCertain(name string, next *relation.Relation, p *relPatch) {
	if p != nil {
		if d.Patch == nil {
			d.Patch = map[string]*relPatch{}
		}
		d.Patch[name] = p
		return
	}
	if d.Certain == nil {
		d.Certain = map[string][]jsonTuple{}
	}
	d.Certain[name] = encodeRelation(next)
}

// diffSnapshots computes the delta carrying base → next. Every component
// of both must carry its stable ID — commit assigns them before diffing
// and reset on every base — so a component without one is an error.
func diffSnapshots(base, next *Snapshot) (*CommitDelta, error) {
	for _, db := range []*wsd.DecompDB{base.DB, next.DB} {
		for i, c := range db.Components {
			if c.ID == 0 {
				return nil, fmt.Errorf("store: component %d has no stable ID", i)
			}
		}
	}
	d := &CommitDelta{}
	to := d.diffRels(base.DB, next.DB)
	from := make([]*relation.Relation, len(next.DB.Names))
	for bi, ni := range to {
		if ni >= 0 {
			from[ni] = base.DB.Certain[bi]
		}
	}
	for i, r := range next.DB.Certain {
		if r != from[i] && (from[i] != nil || r.Len() > 0) { // touched, or created non-empty
			d.logCertain(next.DB.Names[i], r, diffRelation(from[i], r))
		}
	}
	d.diffComps(base.DB, next.DB, moved(to), nil)

	// Derived order: base order minus drops, new IDs appended in upsert
	// order. Record an explicit order only when next deviates.
	actual := make([]uint64, len(next.DB.Components))
	for i := range next.DB.Components {
		actual[i] = next.DB.Components[i].ID
	}
	if !slices.Equal(deriveOrder(base.DB, d), actual) {
		d.Order = actual
	}
	if !maps.Equal(base.Views, next.Views) {
		d.ViewsChanged = true
		d.Views = next.Views
	}
	return d, nil
}

// diffComps logs by stable ID the components of next that changed shape
// or are new, and those of base that are gone, among the IDs the filter
// in accepts (nil: all). to re-keys base's contributions first (see
// carry), so a component whose relations only moved index is unchanged.
func (d *CommitDelta) diffComps(base, next *wsd.DecompDB, to []int, in func(uint64) bool) {
	baseByID := make(map[uint64]int, len(base.Components))
	for i, c := range base.Components {
		baseByID[c.ID] = i
	}
	nextIDs := map[uint64]bool{}
	for _, c := range next.Components {
		if in != nil && !in(c.ID) {
			continue
		}
		nextIDs[c.ID] = true
		if bi, ok := baseByID[c.ID]; ok {
			if bc, ok := carry(base.Components[bi], to); ok && wsd.SameComponentShape(bc, c) {
				continue
			}
		}
		d.Upserts = append(d.Upserts, deltaComp{ID: c.ID, Alts: encodeAlternatives(next.Names, c)})
	}
	for _, c := range base.Components {
		if (in == nil || in(c.ID)) && !nextIDs[c.ID] {
			d.Drops = append(d.Drops, c.ID)
		}
	}
}

// diffShard computes the routed delta for a sharded commit: certain
// relations of the commit's closure (rels) whose pointer changed, plus
// write-set components (by stable ID) that changed shape or dropped.
// Routed commits never create components, change schema or views, so
// the delta mirrors overlay exactly — replaying it with applyDelta's
// in-place substitution rule reproduces the publication. A relation
// with an exact edit in ins (an insert staged through
// Tx.InsertCertain) is patched from the edit without diffing; the rest
// go through diffRelation.
func diffShard(base, next *wsd.DecompDB, rels map[int]bool, wset map[uint64]bool, ins certEdits) *CommitDelta {
	d := &CommitDelta{}
	for i := range rels {
		if next.Certain[i] == base.Certain[i] {
			continue
		}
		var p *relPatch
		if added, ok := ins[i]; ok {
			p = editPatch(base.Certain[i], next.Certain[i], added)
			if audit := EditDeltaAudit; audit != nil {
				audit(base.Names[i], samePatch(p, diffRelation(base.Certain[i], next.Certain[i])))
			}
		} else {
			p = diffRelation(base.Certain[i], next.Certain[i])
		}
		d.logCertain(base.Names[i], next.Certain[i], p)
	}
	d.diffComps(base, next, nil, func(id uint64) bool { return wset[id] })
	return d
}

// certEdits are exact edits to certain parts relative to a base
// decomposition of the same schema: per relation index, the tuples the
// staged state added, with nothing removed. A relation whose certain
// part differs from the base's and has no entry changed some other way
// (a DELETE, an UPDATE, a re-normalization) that only diffing recovers.
type certEdits map[int][]relation.Tuple

// extend carries e, the edits base → prev, over one more step prev →
// next whose own exact edits are step: a relation the step changed
// keeps an exact edit only if it had one before (or was still base's)
// and the step's is exact too. A schema change ends the tracking.
func (e certEdits) extend(base, prev, next *wsd.DecompDB, step certEdits) certEdits {
	if !sameSchema(base, next) {
		return nil
	}
	for ri := range next.Certain {
		if next.Certain[ri] == prev.Certain[ri] {
			continue
		}
		added, exact := step[ri]
		if _, had := e[ri]; exact && (had || prev.Certain[ri] == base.Certain[ri]) {
			if e == nil {
				e = certEdits{}
			}
			e[ri] = append(e[ri], added...)
		} else {
			delete(e, ri)
		}
	}
	return e
}

// editPatch is diffRelation's answer for a relation whose edit is known
// — next is base plus the added tuples — under the same budget rule,
// at the cost of the edit instead of a probe per row.
func editPatch(base, next *relation.Relation, added []relation.Tuple) *relPatch {
	if base == nil || next == nil {
		return nil
	}
	budget := max(next.Len(), base.Len()) / 4
	if budget == 0 || len(added) > budget {
		return nil
	}
	return &relPatch{Ins: encodeTuples(append([]relation.Tuple{}, added...))}
}

// EditDeltaAudit, when non-nil, is called once for every certain
// relation a routed commit logs from its recorded edit instead of by
// diffing, with nil when the edit-carried patch equals the one
// diffRelation computes from the same two relation versions and an
// error describing the difference otherwise. Test suites install it to
// hold the edit path to the diff; left nil, no commit pays the diff.
// It is called concurrently from committing goroutines.
var EditDeltaAudit func(relation string, mismatch error)

func samePatch(got, want *relPatch) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("edit-carried patch %s, diff %s", g, w)
	}
	return nil
}

func deriveOrder(base *wsd.DecompDB, d *CommitDelta) []uint64 {
	dropped := map[uint64]bool{}
	for _, id := range d.Drops {
		dropped[id] = true
	}
	inBase := map[uint64]bool{}
	var out []uint64
	for _, c := range base.Components {
		inBase[c.ID] = true
		if !dropped[c.ID] {
			out = append(out, c.ID)
		}
	}
	for _, u := range d.Upserts {
		if !inBase[u.ID] {
			out = append(out, u.ID)
		}
	}
	return out
}

// isEmpty reports whether the delta carries no change at all (a commit
// whose statements had no durable effect).
func (d *CommitDelta) isEmpty() bool {
	return len(d.NewRels) == 0 && len(d.DropRels) == 0 && len(d.Certain) == 0 && len(d.Patch) == 0 &&
		len(d.Upserts) == 0 && len(d.Drops) == 0 && len(d.Order) == 0 && !d.ViewsChanged
}

// applyRels rebuilds the relation list d describes over db's: the
// survivors keep their certain parts by pointer, created relations start
// empty. It returns the new decomposition (no components yet) and where
// each of db's relations went, as diffRels does (nil when none moved).
// The bytes come from disk, so a name listed twice, an attribute listed
// twice or a drop of a relation db lacks is an error, never a panic.
func applyRels(db *wsd.DecompDB, d *CommitDelta) (*wsd.DecompDB, []int, error) {
	if len(d.NewRels) == 0 && len(d.DropRels) == 0 {
		return &wsd.DecompDB{Names: db.Names, Schemas: db.Schemas,
			Certain: append([]*relation.Relation{}, db.Certain...)}, nil, nil
	}
	dropped := make(map[string]bool, len(d.DropRels))
	for _, name := range d.DropRels {
		if dropped[name] || db.IndexOf(name) < 0 {
			return nil, nil, fmt.Errorf("store: delta drops unknown relation %q", name)
		}
		dropped[name] = true
	}
	out := &wsd.DecompDB{}
	to := make([]int, len(db.Names))
	for i, name := range db.Names {
		to[i] = -1
		if !dropped[name] {
			to[i] = len(out.Names)
			out.Names = append(out.Names, name)
			out.Schemas = append(out.Schemas, db.Schemas[i])
			out.Certain = append(out.Certain, db.Certain[i])
		}
	}
	for _, r := range d.NewRels {
		schema := relation.Schema(r.Attrs)
		if dup := schema.FirstDuplicate(); dup != "" {
			return nil, nil, fmt.Errorf("store: delta relation %q has attribute %q twice", r.Name, dup)
		}
		out.Names = append(out.Names, r.Name)
		out.Schemas = append(out.Schemas, schema)
		out.Certain = append(out.Certain, relation.New(schema))
	}
	if dup := relation.Schema(out.Names).FirstDuplicate(); dup != "" {
		return nil, nil, fmt.Errorf("store: delta lists relation %q twice", dup)
	}
	return out, moved(to), nil
}

// applyDelta patches (db, views) with d and returns the post-commit
// decomposition and view map. The inputs are never mutated; untouched
// relations and components are shared by pointer, exactly like the
// engine's own copy-on-write edits — a component is re-keyed by name when
// a dropped relation moved the indexes it contributes to. The result is
// NOT re-normalized — the writer's state already was, and skipping it
// keeps replayed snapshots byte-identical to the originals.
func applyDelta(db *wsd.DecompDB, views map[string]string, d *CommitDelta) (*wsd.DecompDB, map[string]string, error) {
	out, to, err := applyRels(db, d)
	if err != nil {
		return nil, nil, err
	}
	for name, rows := range d.Certain {
		ri := out.IndexOf(name)
		if ri < 0 {
			return nil, nil, fmt.Errorf("store: delta touches unknown relation %q", name)
		}
		rel, err := decodeRelation(out.Schemas[ri], rows)
		if err != nil {
			return nil, nil, fmt.Errorf("store: delta relation %q: %w", name, err)
		}
		out.Certain[ri] = rel
	}
	for name, p := range d.Patch {
		ri := out.IndexOf(name)
		if ri < 0 {
			return nil, nil, fmt.Errorf("store: delta patches unknown relation %q", name)
		}
		rel, err := applyPatch(out.Certain[ri], out.Schemas[ri], p)
		if err != nil {
			return nil, nil, fmt.Errorf("store: delta patch for %q: %w", name, err)
		}
		out.Certain[ri] = rel
	}

	dropped := map[uint64]bool{}
	for _, id := range d.Drops {
		dropped[id] = true
	}
	upserts := map[uint64]wsd.DBComponent{}
	for _, u := range d.Upserts {
		alts, err := decodeAlternatives(out, u.Alts)
		if err != nil {
			return nil, nil, fmt.Errorf("store: delta component %d: %w", u.ID, err)
		}
		upserts[u.ID] = wsd.DBComponent{ID: u.ID, Alternatives: alts}
	}

	inBase := map[uint64]bool{}
	out.Components = make([]wsd.DBComponent, 0, len(db.Components)+len(d.Upserts))
	for _, c := range db.Components {
		inBase[c.ID] = true
		if dropped[c.ID] {
			continue
		}
		if nc, ok := upserts[c.ID]; ok {
			out.Components = append(out.Components, nc)
			continue
		}
		nc, ok := carry(c, to)
		if !ok {
			return nil, nil, fmt.Errorf("store: delta drops a relation component %d contributes to, without upserting it", c.ID)
		}
		out.Components = append(out.Components, nc)
	}
	for _, u := range d.Upserts {
		if !inBase[u.ID] {
			out.Components = append(out.Components, upserts[u.ID])
		}
	}

	if len(d.Order) > 0 {
		byID := map[uint64]wsd.DBComponent{}
		for _, c := range out.Components {
			byID[c.ID] = c
		}
		if len(d.Order) != len(out.Components) {
			return nil, nil, fmt.Errorf("store: delta order lists %d components, state has %d", len(d.Order), len(out.Components))
		}
		reordered := make([]wsd.DBComponent, 0, len(out.Components))
		for _, id := range d.Order {
			c, ok := byID[id]
			if !ok {
				return nil, nil, fmt.Errorf("store: delta order references unknown component %d", id)
			}
			reordered = append(reordered, c)
			delete(byID, id)
		}
		out.Components = reordered
	}

	if d.ViewsChanged {
		views = copyViews(d.Views)
	}
	return out, views, nil
}

// applyPatch replays a tuple-level edit against the replay state's
// copy of the relation. A deletion of a missing tuple or an insertion
// of a present one means the patch was diffed against a different base
// than the one being replayed — that is an error (recovery refuses),
// never a silent divergence.
func applyPatch(base *relation.Relation, schema relation.Schema, p *relPatch) (*relation.Relation, error) {
	var rel *relation.Relation
	if base == nil {
		rel = relation.New(schema)
	} else {
		rel = base.Clone()
	}
	for _, row := range p.Del {
		t, err := decodeTuple(schema, row)
		if err != nil {
			return nil, err
		}
		if !rel.Delete(t) {
			return nil, fmt.Errorf("deleted tuple %v not in replay state", t)
		}
	}
	for _, row := range p.Ins {
		t, err := decodeTuple(schema, row)
		if err != nil {
			return nil, err
		}
		if !rel.Insert(t) {
			return nil, fmt.Errorf("inserted tuple %v already in replay state", t)
		}
	}
	return rel, nil
}

func copyViews(v map[string]string) map[string]string {
	out := make(map[string]string, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}
