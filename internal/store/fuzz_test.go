package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsd"
)

// Native fuzz targets for the two decoders recovery feeds with bytes
// from disk. Arbitrary input may be rejected; it must never panic and
// never produce a catalog the engine cannot normalize and save. The
// seeds are the delta_test.go fixtures (built live, so they follow the
// format) plus the committed corpus under testdata/fuzz; plain `go test`
// runs both.

// fuzzBase is the state fuzzed deltas apply to: relation A large enough
// for tuple patches, B small, three components.
func fuzzBase() *Snapshot {
	db := deltaDB()
	a := relation.New(db.Schemas[0])
	for i := int64(0); i < 8; i++ {
		a.Insert(relation.Tuple{value.Int(i)})
	}
	db.Certain[0] = a
	db.Components = []wsd.DBComponent{
		compOf(db, 1, "A", 10, 11),
		compOf(db, 2, "B", 20, 21),
		compOf(db, 3, "A", 30),
	}
	return &Snapshot{Version: 5, DB: db, Views: map[string]string{"V": "select 1"}}
}

// fuzzSeedDeltas diffs fuzzBase against one successor per delta shape:
// patch + upsert + drop + create, reorder, views, a deleting patch, a
// whole-relation capture, a drop alone, a created component ordered
// before a survivor, a created relation with content and a component,
// and a dropped relation that shifts a component-bearing one's index.
func fuzzSeedDeltas(tb testing.TB) [][]byte {
	base := fuzzBase()
	db := base.DB
	var nexts []*Snapshot

	edited := db.Certain[0].Clone()
	edited.Insert(relation.Tuple{value.Int(99)})
	inc := db.WithCertain(0, edited)
	inc.Components = []wsd.DBComponent{inc.Components[0], compOf(inc, 2, "B", 20, 21, 22), compOf(inc, 4, "A", 40)}
	nexts = append(nexts, &Snapshot{DB: inc, Views: base.Views})

	swapped := db.WithCertain(0, db.Certain[0])
	swapped.Components[0], swapped.Components[1] = swapped.Components[1], swapped.Components[0]
	nexts = append(nexts, &Snapshot{DB: swapped, Views: base.Views})

	nexts = append(nexts, &Snapshot{DB: db, Views: map[string]string{}})

	shrunk := db.Certain[0].Clone()
	shrunk.Delete(relation.Tuple{value.Int(0)})
	nexts = append(nexts, &Snapshot{DB: db.WithCertain(0, shrunk), Views: base.Views})

	grown := db.Certain[1].Clone()
	grown.Insert(relation.Tuple{value.Int(5)})
	grown.Insert(relation.Tuple{value.Int(6)})
	nexts = append(nexts, &Snapshot{DB: db.WithCertain(1, grown), Views: base.Views})

	dropped := db.WithCertain(0, db.Certain[0])
	dropped.Components = []wsd.DBComponent{dropped.Components[0], dropped.Components[2]}
	nexts = append(nexts, &Snapshot{DB: dropped, Views: base.Views})

	created := db.WithCertain(0, db.Certain[0])
	created.Components = []wsd.DBComponent{created.Components[0], compOf(created, 5, "B", 50), created.Components[1], created.Components[2]}
	nexts = append(nexts, &Snapshot{DB: created, Views: base.Views})

	c := relation.New(relation.NewSchema("Y"))
	c.Insert(relation.Tuple{value.Int(1)})
	withC := db.WithRelation("C", c.Schema(), c)
	withC.Components = append(withC.Components, compOf(withC, 6, "C", 60, 61))
	nexts = append(nexts, &Snapshot{DB: withC, Views: base.Views})

	nexts = append(nexts, &Snapshot{DB: db.DropRelation(0).Normalize(), Views: base.Views})

	var out [][]byte
	for _, next := range nexts {
		raw, err := json.Marshal(mustDiff(tb, base, next))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

func FuzzApplyDelta(f *testing.F) {
	for _, raw := range fuzzSeedDeltas(f) {
		f.Add(raw)
	}
	base := fuzzBase()
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := decodeDelta(raw)
		if err != nil {
			return
		}
		db, views, err := applyDelta(base.DB, base.Views, d)
		if err != nil {
			return
		}
		if err := Save(io.Discard, &Snapshot{DB: db.Normalize(), Views: views}); err != nil {
			t.Fatalf("accepted delta yields a catalog that does not save: %v", err)
		}
	})
}

// TestApplyDeltaCorpusRefused: committed FuzzApplyDelta entries that
// do not match fuzzBase are refused, not applied leniently — an order
// naming a component the state lacks, a patch of the wrong arity, and
// every malformed relation-list change: a created relation named like a
// survivor, rows of the wrong arity for one, an attribute listed twice,
// an upsert naming an unlisted relation, a drop of a relation an
// untouched component still contributes to, and a drop of a relation
// the state lacks.
func TestApplyDeltaCorpusRefused(t *testing.T) {
	base := fuzzBase()
	for _, name := range []string{"order-reapply-unknown-id", "patch-arity-mismatch",
		"new-rels-duplicate-names", "new-rels-arity-mismatch", "new-rels-duplicate-attribute",
		"upsert-unlisted-relation", "carried-component-on-dropped-relation", "drop-rels-unknown"} {
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzApplyDelta", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		raw, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, err := decodeDelta([]byte(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := applyDelta(base.DB, base.Views, d); err == nil {
			t.Errorf("%s: applied, want a refusal", name)
		}
	}
}

// frameLine is frameRecord for records that must encode.
func frameLine(tb testing.TB, rec WALRecord) []byte {
	line, err := frameRecord(rec)
	if err != nil {
		tb.Fatal(err)
	}
	return line
}

func FuzzScanWAL(f *testing.F) {
	// A log in the current format: one-participant and cross-shard
	// records, with links.
	var log bytes.Buffer
	for i, raw := range fuzzSeedDeltas(f) {
		rec := WALRecord{Version: uint64(i + 6), Stmts: []string{"s"}, Prev: []uint64{uint64(i + 5)}, deltaRaw: raw}
		if i%2 == 1 {
			rec.Parts, rec.Prev = []int{0, 2}, []uint64{uint64(i + 5), 1}
		}
		log.Write(frameLine(f, rec))
	}
	f.Add(log.Bytes())
	// A log in the format before it is refused, never cut as a torn tail.
	old := []byte(twoPhaseSegments[1])
	var re *RecoveryError
	if _, _, err := scanWAL(bytes.NewReader(old), 1); !errors.As(err, &re) || re.Shard != 1 || re.Epoch != 2 {
		f.Fatalf("old-format seed scanned with %v, want a *RecoveryError at shard 1, e2", err)
	}
	f.Add(old)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := scanWAL(bytes.NewReader(data), 0)
		if err == nil {
			if valid < 0 || valid > int64(len(data)) {
				t.Fatalf("intact prefix of %d bytes in a %d-byte log", valid, len(data))
			}
			// The intact prefix is stable: scanning it alone finds the
			// same records and nothing to cut.
			again, validAgain, err := scanWAL(bytes.NewReader(data[:valid]), 0)
			if err != nil || validAgain != valid || len(again) != len(recs) {
				t.Fatalf("rescan of the intact prefix: %d records, %d bytes, err %v; want %d, %d", len(again), validAgain, err, len(recs), valid)
			}
		}
		// Mutated bytes rarely keep a CRC, so also frame them as the delta
		// of a record whose CRC holds: the line was written whole, so it
		// either decodes or is refused — never cut off as a torn tail.
		raw, err := json.Marshal(json.RawMessage(data)) // compact and escaped, as Marshal leaves a delta
		if err != nil {
			return // not JSON
		}
		line := frameLine(t, WALRecord{Version: 2, Stmts: []string{"s"}, deltaRaw: raw})
		recs, valid, err = scanWAL(bytes.NewReader(line), 0)
		var re *RecoveryError
		if !errors.As(err, &re) && (err != nil || len(recs) != 1 || valid != int64(len(line))) {
			t.Fatalf("CRC-intact record: %d records, %d of %d bytes, err %v", len(recs), valid, len(line), err)
		}
	})
}
