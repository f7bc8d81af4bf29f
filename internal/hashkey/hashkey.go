// Package hashkey implements the allocation-free FNV-1a hashing that
// underpins tuple hashing across the engine. The evaluators used to key
// every hash table by an injective string encoding of the tuple
// (value.AppendKey joined into a Go string); at scale that allocates one
// string per probe. This package folds the same tagged byte stream into
// a 64-bit FNV-1a state instead, so hot paths hash typed values with no
// intermediate buffers.
//
// A 64-bit digest is not injective, so every consumer that needs exact
// set semantics (package relation's tuple storage and indexes, the hash
// joins in package ra, world de-duplication in package worldset) keys
// buckets by the digest and verifies candidates with typed value
// comparison. Hashing is an accelerator here, never a proof of equality.
//
// The digest of a value sequence agrees with the equality induced by
// value.Compare: two tuples with Compare-equal values fold to the same
// digest, because value.Value.Hash feeds the same tagged encoding as
// value.Value.AppendKey and Compare == 0 exactly when those encodings
// are equal. value's FuzzValueEquality pins this invariant.
package hashkey

const (
	// Offset is the FNV-1a 64-bit offset basis: the initial digest state.
	Offset uint64 = 14695981039346656037
	// prime is the FNV-1a 64-bit prime.
	prime uint64 = 1099511628211
)

// Byte folds one byte into the digest.
func Byte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * prime
}

// Uint64 folds eight bytes (big-endian) into the digest.
func Uint64(h uint64, u uint64) uint64 {
	h = (h ^ (u >> 56)) * prime
	h = (h ^ (u >> 48 & 0xff)) * prime
	h = (h ^ (u >> 40 & 0xff)) * prime
	h = (h ^ (u >> 32 & 0xff)) * prime
	h = (h ^ (u >> 24 & 0xff)) * prime
	h = (h ^ (u >> 16 & 0xff)) * prime
	h = (h ^ (u >> 8 & 0xff)) * prime
	return (h ^ (u & 0xff)) * prime
}

// String folds the bytes of s into the digest without copying.
func String(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return h
}

// Mix folds a finished sub-digest into the digest. Used to combine
// per-element digests order-sensitively (e.g. a tuple of values) or to
// fold canonical per-set digests computed elsewhere.
func Mix(h uint64, sub uint64) uint64 {
	return Uint64(h, sub)
}

// Finalize avalanches a digest (the splitmix64 finalizer). Apply it to
// per-element digests before combining them commutatively (XOR for set
// digests): raw FNV states are too linear for XOR to mix well.
func Finalize(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
