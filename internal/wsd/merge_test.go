package wsd_test

import (
	"testing"

	"worldsetdb/internal/wsd"
)

// TestMergeAltEnumeratesAllCombinations: the mixed-radix layout is a
// bijection between combined alternatives and member choices, matching
// Expand's enumeration order (index 0 fastest-varying).
func TestMergeAltEnumeratesAllCombinations(t *testing.T) {
	arities := []int{2, 3, 2}
	seen := map[[3]int]bool{}
	for m := 0; m < 12; m++ {
		var combo [3]int
		for k := range arities {
			combo[k] = wsd.MergeAlt(arities, k, m)
		}
		if seen[combo] {
			t.Fatalf("combined alternative %d repeats combination %v", m, combo)
		}
		seen[combo] = true
	}
	if len(seen) != 12 {
		t.Fatalf("enumerated %d combinations, want 12", len(seen))
	}
	if wsd.MergeAlt(arities, 0, 1) != 1 || wsd.MergeAlt(arities, 1, 2) != 1 || wsd.MergeAlt(arities, 2, 6) != 1 {
		t.Fatal("MergeAlt does not use the index-0-fastest mixed-radix order")
	}
}
