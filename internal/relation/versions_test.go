package relation

import (
	"slices"
	"sync"
	"testing"

	"worldsetdb/internal/value"
)

// version is one relation under FuzzRelationVersions beside its model:
// the tuples it must hold, keyed by Tuple.Key.
type version struct {
	r     *Relation
	model map[string]Tuple
}

// Schemas FuzzRelationVersions renames between.
var versionSchemas = [2]Schema{NewSchema("A", "B"), NewSchema("X", "Y")}

// FuzzRelationVersions drives Insert, InsertDistinct, Delete, Clone and
// WithSchema from bytes over a relation and the versions Clone derives
// from it, and checks every version against its own map model after
// each step: a mutation on one version must never show through another.
// WithSchema renames a version in place of its source, the one way it
// may be mutated afterwards.
func FuzzRelationVersions(f *testing.F) {
	// Opcodes: 0 Insert, 1 InsertDistinct, 2 Delete, 3 Clone,
	// 4 WithSchema, 5 bulk Insert. Each is followed by a version byte,
	// then its operands.
	f.Add([]byte{5, 0, 40, 3, 0, 0, 1, 1, 2, 3, 1, 0, 2, 5, 6, 3, 2, 0, 3, 9, 3, 3, 1, 4, 4})
	// A deep clone chain: clone the newest, insert into it, repeat.
	chain := []byte{5, 0, 60}
	for i := byte(0); i < 12; i++ {
		chain = append(chain, 3, i%6, 0, i%6+1, 100+i, i)
	}
	f.Add(chain)
	// Deletes from frozen segments on both sides of a clone.
	f.Add([]byte{5, 0, 50, 3, 0, 0, 1, 7, 7, 3, 1, 5, 5, 5, 0, 20, 2, 0, 3, 1, 2, 1, 3, 1, 2, 2, 7, 7, 2, 0, 0, 0, 2, 1, 1, 1})
	// A clone of a version whose rows all lie in segments (its tail
	// emptied by a delete) deletes from a segment it shares.
	f.Add([]byte{5, 0, 40, 0, 3, 0, 0, 1, 15, 0, 2, 1, 15, 0, 3, 1, 2, 2, 1, 1})
	// Renames of cloned and uncloned versions, mutated after the rename.
	f.Add([]byte{5, 0, 30, 4, 0, 0, 1, 9, 9, 2, 0, 1, 1, 4, 1, 2, 1, 2, 2, 3, 2, 1, 9, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			return
		}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		tuple := func() Tuple {
			a, b := next(), next()
			tp := Tuple{value.Int(int64(a % 16)), value.Int(int64(b % 8))}
			if b&8 != 0 { // Float(2) is Int(2): both must land in one slot
				tp[1] = value.Float(float64(b % 8))
			}
			return tp
		}
		vs := []version{{New(versionSchemas[0]), map[string]Tuple{}}}
		insert := func(v *version, tp Tuple) {
			k := tp.Key()
			_, had := v.model[k]
			if got := v.r.Insert(tp); got == had {
				t.Fatalf("Insert(%v) reported %v with the tuple present=%v", tp, got, had)
			}
			if !had {
				v.model[k] = tp
			}
		}
		derive := func(r *Relation, model map[string]Tuple) {
			v := version{r, make(map[string]Tuple, len(model))}
			for k, tp := range model {
				v.model[k] = tp
			}
			if len(vs) < 6 {
				vs = append(vs, v)
			} else {
				vs[next()%len(vs)] = v
			}
		}
		for len(ops) > 0 {
			op, v := next()%6, &vs[next()%len(vs)]
			switch op {
			case 0:
				insert(v, tuple())
			case 1:
				if tp := tuple(); v.model[tp.Key()] == nil {
					v.r.InsertDistinct(tp)
					v.model[tp.Key()] = tp
				}
			case 2:
				tp := tuple()
				_, had := v.model[tp.Key()]
				if got := v.r.Delete(tp); got != had {
					t.Fatalf("Delete(%v) reported %v with the tuple present=%v", tp, got, had)
				}
				delete(v.model, tp.Key())
			case 3:
				derive(v.r.Clone(), v.model)
			case 4: // a rename replaces its source, as an operator renames its own output
				v.r = v.r.WithSchema(versionSchemas[next()%2])
			case 5:
				for n, seed := next()%64, next(); n > 0; n-- {
					insert(v, Tuple{value.Int(int64(seed*7+n) % 97), value.Int(int64(n))})
				}
			}
			for i := range vs {
				checkVersion(t, vs[i])
			}
		}
		for i := range vs {
			for j := range vs {
				a, b := vs[i], vs[j]
				if !a.r.Schema().Equal(b.r.Schema()) {
					continue
				}
				same := len(a.model) == len(b.model)
				for k := range a.model {
					if _, ok := b.model[k]; !ok {
						same = false
					}
				}
				if a.r.Equal(b.r) != same || b.r.Equal(a.r) != same {
					t.Fatalf("versions %d and %d: Equal disagrees with their models (same=%v)", i, j, same)
				}
			}
		}
	})
}

// checkVersion compares v.r with v.model and with a flat rebuild of the
// model: one map, never cloned.
func checkVersion(t *testing.T, v version) {
	t.Helper()
	r := v.r
	if r.Len() != len(v.model) {
		t.Fatalf("Len = %d, model holds %d", r.Len(), len(v.model))
	}
	want := make([]Tuple, 0, len(v.model))
	for _, tp := range v.model {
		want = append(want, tp)
	}
	slices.SortFunc(want, Tuple.Compare)
	flat := FromRows(r.Schema(), want...)

	seen := map[string]bool{}
	r.Each(func(tp Tuple) {
		k := tp.Key()
		if seen[k] || v.model[k] == nil {
			t.Fatalf("Each yields %v twice or outside the model", tp)
		}
		seen[k] = true
	})
	if len(seen) != len(v.model) {
		t.Fatalf("Each yields %d tuples, model holds %d", len(seen), len(v.model))
	}
	if got := r.Tuples(); !slices.EqualFunc(got, want, Tuple.Equal) {
		t.Fatalf("Tuples = %v, want %v", got, want)
	}
	for a := int64(0); a < 16; a++ {
		for b := int64(0); b < 8; b++ {
			tp := tup(a, b)
			if r.Contains(tp) != (v.model[tp.Key()] != nil) {
				t.Fatalf("Contains(%v) = %v against the model", tp, r.Contains(tp))
			}
		}
	}
	if !r.Equal(flat) || !flat.Equal(r) {
		t.Fatal("Equal disagrees with a flat rebuild")
	}
	if r.ContentHash() != flat.ContentHash() || r.ContentKey() != flat.ContentKey() {
		t.Fatal("ContentHash or ContentKey differs from a flat rebuild's")
	}
	ix := r.IndexOn([]int{1})
	for b := int64(0); b < 8; b++ {
		probe := tup(b)
		var scan []Tuple
		for _, tp := range want {
			if tp[1].Compare(probe[0]) == 0 {
				scan = append(scan, tp)
			}
		}
		got := slices.Clone(ix.Lookup(probe, nil))
		slices.SortFunc(got, Tuple.Compare)
		if !slices.EqualFunc(got, scan, Tuple.Equal) {
			t.Fatalf("IndexOn(B).Lookup(%d) = %v, a scan finds %v", b, got, scan)
		}
	}
}

// TestCloneSharedConcurrently: goroutines clone one published relation
// at once, mutate their clones and read the original meanwhile. Run
// under -race it checks the freeze mark and the share-then-copy paths;
// without, that no clone's insert or delete shows through the original.
func TestCloneSharedConcurrently(t *testing.T) {
	const rows, workers = 10000, 8
	r := New(NewSchema("A", "B"))
	for i := int64(0); i < rows/2; i++ {
		r.Insert(tup(i, i%10))
	}
	r = r.Clone() // the published relation holds a frozen segment and a tail
	for i := int64(rows / 2); i < rows; i++ {
		r.Insert(tup(i, i%10))
	}
	hash := r.ContentHash()
	var wg sync.WaitGroup
	for w := int64(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Clone()
			for i := int64(0); i < 100; i++ {
				c.Insert(tup(rows+w*100+i, 0))
				c.Delete(tup(w*600+i, (w*600+i)%10))               // from the segment
				c.Delete(tup(rows/2+w*500+i, (rows/2+w*500+i)%10)) // from the tail
				if !r.Contains(tup(w*600+i, (w*600+i)%10)) || r.Contains(tup(rows+w*100+i, 0)) {
					t.Errorf("worker %d: the clone's edits show through the original", w)
					return
				}
			}
			if c.Len() != rows-100 {
				t.Errorf("worker %d: clone holds %d rows, want %d", w, c.Len(), rows-100)
			}
			if n := len(r.IndexOn([]int{1}).Lookup(tup(3), nil)); n != rows/10 {
				t.Errorf("worker %d: original's index finds %d rows, want %d", w, n, rows/10)
			}
			if r.ContentHash() != hash {
				t.Errorf("worker %d: the original's content hash moved", w)
			}
		}()
	}
	wg.Wait()
	if r.Len() != rows || r.ContentHash() != hash {
		t.Fatalf("original holds %d rows after the clones' edits, want %d unchanged", r.Len(), rows)
	}
}
