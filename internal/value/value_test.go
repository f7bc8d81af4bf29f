package value

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"worldsetdb/internal/hashkey"
)

// randomValue draws a value of a random kind from a small domain so
// collisions (equal values) actually occur in the property tests.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Null()
	case 1:
		return Bool(rng.Intn(2) == 0)
	case 2:
		return Int(int64(rng.Intn(5) - 2))
	case 3:
		return Float(float64(rng.Intn(5)) / 2)
	case 4:
		return Str(string(rune('a' + rng.Intn(3))))
	default:
		return Pad()
	}
}

// TestCompareTotalOrder checks reflexivity, antisymmetry and
// transitivity of Compare on random triples.
func TestCompareTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomValue(rng), randomValue(rng), randomValue(rng)
		if a.Compare(a) != 0 {
			return false
		}
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// Transitivity: a ≤ b ∧ b ≤ c ⇒ a ≤ c.
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// fuzzValue builds a value from a kind selector and payload bits. Float
// payloads are raw IEEE bits, so −0.0, NaNs with any payload and the
// infinities all occur; strings draw from a small domain so equal
// strings occur too.
func fuzzValue(kind uint8, bits uint64) Value {
	switch kind % 6 {
	case 0:
		return Null()
	case 1:
		return Bool(bits&1 == 1)
	case 2:
		return Int(int64(bits))
	case 3:
		return Float(math.Float64frombits(bits))
	case 4:
		return Str(string(rune('a' + bits%3)))
	}
	return Pad()
}

// FuzzValueEquality checks the one equality every package relies on:
// Compare reports 0 ⇔ the AppendKey encodings are equal ⇔ the Hash
// digests are equal, plus antisymmetry and transitivity of Compare, on
// triples of values of any kinds.
func FuzzValueEquality(f *testing.F) {
	type seed struct {
		kind uint8
		bits uint64
	}
	asInt := func(i int64) seed { return seed{2, uint64(i)} }
	asFloat := func(x float64) seed { return seed{3, math.Float64bits(x)} }
	seeds := []seed{
		asInt(0), asFloat(0), asFloat(math.Copysign(0, -1)),
		asInt(1 << 53), asFloat(1 << 53),
		asInt(1<<53 + 1), asFloat(1<<53 + 2), asInt(1<<53 - 1), asFloat(1<<53 - 1),
		asInt(math.MinInt64), asInt(math.MaxInt64), asFloat(0x1p63), asFloat(-0x1p63),
		asFloat(math.Inf(1)), asFloat(math.Inf(-1)), asFloat(math.NaN()),
		{3, 0x7ff8000000000123}, asFloat(2.5), {1, 1}, {4, 0}, {0, 0}, {5, 0},
	}
	for i, a := range seeds {
		for j, b := range seeds {
			c := seeds[(i+j)%len(seeds)]
			f.Add(a.kind, a.bits, b.kind, b.bits, c.kind, c.bits)
		}
	}
	f.Fuzz(func(t *testing.T, ka uint8, a uint64, kb uint8, b uint64, kc uint8, c uint64) {
		x, y, z := fuzzValue(ka, a), fuzzValue(kb, b), fuzzValue(kc, c)
		for _, p := range [][2]Value{{x, y}, {y, z}, {x, z}} {
			u, v := p[0], p[1]
			eq := u.Compare(v) == 0
			if (u.Key() == v.Key()) != eq || (u.Hash(hashkey.Offset) == v.Hash(hashkey.Offset)) != eq {
				t.Fatalf("%v (%s) vs %v (%s): Compare %d, keys equal %v, hashes equal %v", u, u.Kind(), v, v.Kind(),
					u.Compare(v), u.Key() == v.Key(), u.Hash(hashkey.Offset) == v.Hash(hashkey.Offset))
			}
			if u.Compare(v) != -v.Compare(u) {
				t.Fatalf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", u, v, u.Compare(v), v, u, v.Compare(u))
			}
		}
		if x.Compare(x) != 0 {
			t.Fatalf("%v does not equal itself", x)
		}
		if x.Compare(y) <= 0 && y.Compare(z) <= 0 && x.Compare(z) > 0 {
			t.Fatalf("not transitive: %v ≤ %v ≤ %v but %v > %v", x, y, z, x, z)
		}
	})
}

// TestNumericCrossKindEquality: Int(2) and Float(2.0) must be the same
// value for set semantics (and hash identically).
func TestNumericCrossKindEquality(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Int(2).Key() != Float(2.0).Key() {
		t.Error("Int(2) and Float(2.0) must hash identically")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Error("Int(2) should not equal Float(2.5)")
	}
	if Int(3).Compare(Float(2.5)) <= 0 {
		t.Error("Int(3) should sort after Float(2.5)")
	}
}

// TestAccessors checks the typed accessors and panic behaviour.
func TestAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Error("AsInt")
	}
	if Float(1.5).AsFloat() != 1.5 {
		t.Error("AsFloat")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("AsFloat on int")
	}
	if Str("x").AsString() != "x" {
		t.Error("AsString")
	}
	if !Bool(true).AsBool() {
		t.Error("AsBool")
	}
	if !Pad().IsPad() || Pad().IsNull() {
		t.Error("Pad classification")
	}
	defer func() {
		if recover() == nil {
			t.Error("AsInt on a string must panic")
		}
	}()
	Str("x").AsInt()
}

// TestParse checks literal parsing used by the I-SQL layer.
func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"42", Int(42)},
		{"-3", Int(-3)},
		{"2.5", Float(2.5)},
		{"'hello'", Str("hello")},
		{"\"hi\"", Str("hi")},
		{"true", Bool(true)},
		{"false", Bool(false)},
		{"null", Null()},
		{"BCN", Str("BCN")},
	}
	for _, c := range cases {
		if got := Parse(c.in); !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("Parse(%q) = %v (%s), want %v (%s)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

// TestStringRendering checks the table-cell rendering.
func TestStringRendering(t *testing.T) {
	cases := map[string]Value{
		"42":    Int(42),
		"2.5":   Float(2.5),
		"BCN":   Str("BCN"),
		"true":  Bool(true),
		"null":  Null(),
		"⊥c":    Pad(),
		"-7":    Int(-7),
		"false": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestPadDistinctFromAllValues: the padding constant c must differ from
// every data value (Remark 5.5 relies on it never colliding with a real
// world id).
func TestPadDistinctFromAllValues(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomValue(rng)
		if v.Kind() == KindPad {
			return true
		}
		return !v.Equal(Pad())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
