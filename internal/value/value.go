// Package value implements the scalar values that populate relations:
// integers, floats, strings and booleans, plus the distinguished padding
// constant c used by the padded left outer join of Remark 5.5 in
// "From Complete to Incomplete Information and Back" (SIGMOD 2007).
//
// Values are small immutable structs with a total order across kinds so
// that relations can be deterministically sorted and hashed. A value is
// its canonical form: Float maps −0.0 to 0 and every NaN to one NaN, so
// Compare, Hash and AppendKey agree on every pair of values.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"

	"worldsetdb/internal/hashkey"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

const (
	// KindNull is the zero Value. It never appears in paper examples but
	// gives the zero value.Value a well-defined meaning.
	KindNull Kind = iota
	// KindBool is a boolean.
	KindBool
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a Go string.
	KindString
	// KindPad is the distinguished constant c of Remark 5.5, used to pad
	// tuples without a join partner in the =⊲⊳ operator. It encodes the
	// world id of "the world where the relation was empty".
	KindPad
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindPad:
		return "pad"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a scalar database value. The zero Value is Null.
type Value struct {
	kind Kind
	i    int64 // int payload; 0/1 for bool
	f    float64
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a float value in canonical form: −0.0 becomes 0 and
// every NaN the one NaN.
func Float(f float64) Value {
	switch {
	case f == 0:
		f = 0
	case f != f:
		f = math.NaN()
	}
	return Value{kind: KindFloat, f: f}
}

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Pad returns the distinguished padding constant c of Remark 5.5.
func Pad() Value { return Value{kind: KindPad} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsPad reports whether v is the padding constant c.
func (v Value) IsPad() bool { return v.kind == KindPad }

// AsInt returns the integer payload. It panics if the kind is not int.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s", v.kind))
	}
	return v.i
}

// AsFloat returns the numeric payload as a float64, converting integers.
// It panics on non-numeric kinds.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	}
	panic(fmt.Sprintf("value: AsFloat on %s", v.kind))
}

// AsString returns the string payload. It panics if the kind is not string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s", v.kind))
	}
	return v.s
}

// AsBool returns the bool payload. It panics if the kind is not bool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s", v.kind))
	}
	return v.i != 0
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports value equality. Ints and floats compare numerically
// (Int(2) equals Float(2.0)), matching SQL comparison semantics.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// Compare returns -1, 0 or +1 ordering v against w. The order is total:
// values of different kinds order by kind, except that ints and floats
// compare numerically with each other — exactly, at every magnitude, so
// the order is transitive. NaN equals only NaN and sorts after every
// number. Null sorts first, Pad last.
func (v Value) Compare(w Value) int {
	if v.kind == w.kind {
		// The common case, first: two strings or two integers.
		switch v.kind {
		case KindString:
			return strings.Compare(v.s, w.s)
		case KindInt:
			return cmp.Compare(v.i, w.i)
		}
	}
	if c := cmp.Compare(v.orderClass(), w.orderClass()); c != 0 {
		return c
	}
	switch v.kind {
	case KindBool:
		return cmp.Compare(v.i, w.i)
	case KindInt: // against a float
		return -cmpFloatInt(w.f, v.i)
	case KindFloat:
		if w.kind == KindInt {
			return cmpFloatInt(v.f, w.i)
		}
		return cmpFloat(v.f, w.f)
	}
	return 0 // null and pad are one value each
}

// orderClass groups kinds that compare with one another: numerics share a
// class so Int(2) == Float(2.0).
func (v Value) orderClass() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindPad:
		return 4
	}
	return 5
}

// cmpFloat orders floats numerically, with NaN equal to itself and after
// every number.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b || a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// cmpFloatInt compares f with i exactly: through i's truncation when f
// is within int64's range, so no rounding of i to a float takes part.
func cmpFloatInt(f float64, i int64) int {
	switch {
	case f != f || f >= 0x1p63:
		return 1
	case f < -0x1p63:
		return -1
	}
	t := int64(f) // f truncated toward zero, exact within the range
	if c := cmp.Compare(t, i); c != 0 {
		return c
	}
	return cmpFloat(f, float64(t)) // the sign of f's fraction
}

// exactFloat returns i as a float when the conversion is exact — the
// only case in which an Int equals a Float.
func exactFloat(i int64) (float64, bool) {
	f := float64(i)
	return f, f < 0x1p63 && int64(f) == i
}

// Less reports whether v sorts before w.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// String renders the value the way the paper prints table cells.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindPad:
		return "⊥c"
	}
	return "?"
}

// AppendString appends String's rendering of v to dst, without
// allocating a string for it.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	}
	return append(dst, v.String()...)
}

// AppendKey appends a compact, injective binary encoding of v to dst.
// Two values have equal encodings iff Compare reports 0; in particular
// Int(2) and Float(2.0) encode identically, as the float.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 'n')
	case KindBool:
		if v.i != 0 {
			return append(dst, 'b', 1)
		}
		return append(dst, 'b', 0)
	case KindInt:
		// An int a float equals encodes as that float; any other int
		// under its own tag.
		if f, ok := exactFloat(v.i); ok {
			return appendFloatKey(dst, f)
		}
		dst = append(dst, 'i')
		return appendUint64(dst, uint64(v.i))
	case KindFloat:
		return appendFloatKey(dst, v.f)
	case KindString:
		dst = append(dst, 's')
		dst = appendUint64(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	case KindPad:
		return append(dst, 'p')
	}
	return dst
}

func appendFloatKey(dst []byte, f float64) []byte {
	dst = append(dst, 'f')
	return appendUint64(dst, math.Float64bits(f))
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// Key returns the injective encoding of v as a string, suitable as a map
// key.
func (v Value) Key() string { return string(v.AppendKey(nil)) }

// Hash folds v into a running FNV-1a digest without allocating. The
// bytes folded are exactly the bytes AppendKey would produce, so
// Compare reports 0 ⇔ the encodings are equal ⇔ the digests are equal
// (up to digest collisions): Int(2) and Float(2.0) share a digest.
// Digests are not injective, so callers confirm candidate matches with
// Compare or Equal.
func (v Value) Hash(h uint64) uint64 {
	switch v.kind {
	case KindNull:
		return hashkey.Byte(h, 'n')
	case KindBool:
		if v.i != 0 {
			return hashkey.Byte(hashkey.Byte(h, 'b'), 1)
		}
		return hashkey.Byte(hashkey.Byte(h, 'b'), 0)
	case KindInt:
		if f, ok := exactFloat(v.i); ok {
			return hashkey.Uint64(hashkey.Byte(h, 'f'), math.Float64bits(f))
		}
		return hashkey.Uint64(hashkey.Byte(h, 'i'), uint64(v.i))
	case KindFloat:
		return hashkey.Uint64(hashkey.Byte(h, 'f'), math.Float64bits(v.f))
	case KindString:
		h = hashkey.Byte(h, 's')
		h = hashkey.Uint64(h, uint64(len(v.s)))
		return hashkey.String(h, v.s)
	case KindPad:
		return hashkey.Byte(h, 'p')
	}
	return h
}

// Parse converts a literal into a Value: quoted strings, integers,
// floats, true/false, null. Unquoted non-numeric text parses as a string.
func Parse(lit string) Value {
	switch lit {
	case "null":
		return Null()
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	if len(lit) >= 2 && (lit[0] == '\'' || lit[0] == '"') && lit[len(lit)-1] == lit[0] {
		return Str(lit[1 : len(lit)-1])
	}
	if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(lit, 64); err == nil {
		return Float(f)
	}
	return Str(lit)
}
