package store

import (
	"fmt"
	"testing"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/wsa"
)

// TestCommitsCarryRelationIndexes: the hash index a selection caches on
// a snapshot's relation belongs to the relation, not the version. A
// commit that does not touch the relation hands the next snapshot the
// same relation object, index included; a commit that does touch it
// publishes a new relation, so no later read can be served from an index
// of the old rows — at 1 shard and through the 4-shard merged publish.
func TestCommitsCarryRelationIndexes(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := datagen.CensusRepairDecomp(200, 5, 1).
				WithRelation("Log0", relation.NewSchema("C", "S", "V"), nil)
			cat := NewSharded(db, shards)
			bySSN := func(snap *Snapshot, ssn int64) int {
				t.Helper()
				q := wsa.NewPoss(&wsa.Select{Pred: ra.EqConst("SSN", value.Int(ssn)), From: &wsa.Rel{Name: "Clean"}})
				out, _, err := Query(snap, "", q, 0)
				if err != nil {
					t.Fatal(err)
				}
				return out.Certain[len(out.Certain)-1].Len()
			}
			insert := func(table string, row relation.Tuple) {
				t.Helper()
				err := cat.UpdateRouted([]string{table}, func(tx *Tx) error {
					db, err := tx.DB().MapRelation(tx.DB().IndexOf(table), func(r *relation.Relation) (*relation.Relation, error) {
						c := r.Clone()
						c.Insert(row)
						return c, nil
					})
					tx.SetDB(db)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}

			snap0 := cat.Snapshot()
			ci := snap0.DB.IndexOf("Clean")
			clean := snap0.DB.Certain[ci]
			if clean.Len() < relation.IndexProbeMin {
				t.Fatalf("certain part of Clean has %d tuples: the read below would not probe", clean.Len())
			}
			if n := bySSN(snap0, 100100); n != 1 {
				t.Fatalf("by-SSN read: %d rows, want 1", n)
			}
			ix := clean.IndexOn([]int{0}) // built by the read above

			insert("Log0", relation.Tuple{value.Int(0), value.Int(1), value.Str("x")})
			snap1 := cat.Snapshot()
			if snap1.Version == snap0.Version {
				t.Fatal("insert into Log0 did not publish")
			}
			if snap1.DB.Certain[ci] != clean {
				t.Fatal("a commit that never touched Clean replaced its relation")
			}
			if snap1.DB.Certain[ci].IndexOn([]int{0}) != ix {
				t.Fatal("a commit that never touched Clean dropped its cached index")
			}

			insert("Clean", relation.Tuple{value.Int(999999), value.Str("New"), value.Str("NYC"), value.Str("LA")})
			snap2 := cat.Snapshot()
			if snap2.DB.Certain[ci] == clean {
				t.Fatal("a commit that touched Clean published the old relation object")
			}
			if n := bySSN(snap2, 999999); n != 1 {
				t.Fatalf("read after the insert: %d rows for the new SSN, want 1 (stale index?)", n)
			}
			if n := bySSN(snap1, 999999); n != 0 {
				t.Fatalf("the older snapshot sees the later insert: %d rows", n)
			}
			if clean.IndexOn([]int{0}) != ix {
				t.Fatal("the old relation's index changed under its readers")
			}
		})
	}
}
