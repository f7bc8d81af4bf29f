// Package relation implements the named-perspective relational model the
// paper works in: schemas are ordered lists of named attributes, tuples
// are value lists, and relations are sets of tuples (the paper assumes
// set semantics for SQL, I-SQL and world-set algebra throughout).
//
// Attributes whose name starts with '#' are world-id attributes in the
// sense of Definition 5.1 (inlined representations); everything else is
// a value attribute. Keeping the distinction in the name lets the id/value
// split be "statically inferred", as §5.2 requires.
package relation

import (
	"fmt"
	"sort"
	"strings"
)

// IDPrefix marks world-id attributes in inlined representations.
const IDPrefix = "#"

// IsIDAttr reports whether the attribute name denotes a world-id
// attribute of an inlined representation.
func IsIDAttr(name string) bool { return strings.HasPrefix(name, IDPrefix) }

// Schema is an ordered list of attribute names. Names must be unique
// within a schema.
type Schema []string

// NewSchema builds a schema, panicking on duplicate names: schema
// construction is programmer-controlled, so a duplicate is a bug.
func NewSchema(names ...string) Schema {
	s := Schema(names)
	if dup := s.FirstDuplicate(); dup != "" {
		panic(fmt.Sprintf("relation: duplicate attribute %q in schema %v", dup, names))
	}
	return s
}

// FirstDuplicate returns the first name that repeats in s, or "" — the
// check for schemas decoded from outside the program, where a
// duplicate is an input error and NewSchema's panic is not wanted.
func (s Schema) FirstDuplicate() string {
	seen := make(map[string]bool, len(s))
	for _, n := range s {
		if seen[n] {
			return n
		}
		seen[n] = true
	}
	return ""
}

// Index returns the position of the attribute with the given name, or -1.
// Resolution is by exact match first; if that fails and name is
// unqualified (no dot), a unique suffix match "X.name" succeeds, mirroring
// SQL's qualified-name resolution.
func (s Schema) Index(name string) int {
	for i, n := range s {
		if n == name {
			return i
		}
	}
	if !strings.Contains(name, ".") {
		found := -1
		for i, n := range s {
			if strings.HasSuffix(n, "."+name) {
				if found >= 0 {
					return -1 // ambiguous
				}
				found = i
			}
		}
		return found
	}
	return -1
}

// Contains reports whether the attribute resolves in s.
func (s Schema) Contains(name string) bool { return s.Index(name) >= 0 }

// Indexes resolves each name, returning an error naming the first
// attribute that does not resolve.
func (s Schema) Indexes(names []string) ([]int, error) {
	idx := make([]int, len(names))
	for i, n := range names {
		j := s.Index(n)
		if j < 0 {
			return nil, fmt.Errorf("attribute %q not in schema %v", n, []string(s))
		}
		idx[i] = j
	}
	return idx, nil
}

// Equal reports order-sensitive schema equality.
func (s Schema) Equal(t Schema) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of s.
func (s Schema) Clone() Schema { return append(Schema(nil), s...) }

// Concat returns s followed by t. The result panics on duplicates, which
// mirrors the named algebra's requirement that product operands have
// disjoint attribute sets.
func (s Schema) Concat(t Schema) Schema {
	return NewSchema(append(append([]string{}, s...), t...)...)
}

// Intersect returns the attributes (in s's order) present in both schemas
// by exact name. Used by natural joins on shared id attributes.
func (s Schema) Intersect(t Schema) Schema {
	var out Schema
	for _, n := range s {
		if t.exactContains(n) {
			out = append(out, n)
		}
	}
	return out
}

// Minus returns the attributes of s (in order) not present in t by exact
// name.
func (s Schema) Minus(t Schema) Schema {
	var out Schema
	for _, n := range s {
		if !t.exactContains(n) {
			out = append(out, n)
		}
	}
	return out
}

func (s Schema) exactContains(name string) bool {
	for _, n := range s {
		if n == name {
			return true
		}
	}
	return false
}

// IDAttrs returns the world-id attributes of s, in order.
func (s Schema) IDAttrs() Schema {
	var out Schema
	for _, n := range s {
		if IsIDAttr(n) {
			out = append(out, n)
		}
	}
	return out
}

// ValueAttrs returns the non-id attributes of s, in order.
func (s Schema) ValueAttrs() Schema {
	var out Schema
	for _, n := range s {
		if !IsIDAttr(n) {
			out = append(out, n)
		}
	}
	return out
}

// SortedNames returns the attribute names in lexicographic order,
// without mutating s.
func (s Schema) SortedNames() []string {
	out := append([]string{}, s...)
	sort.Strings(out)
	return out
}

func (s Schema) String() string { return "(" + strings.Join(s, ", ") + ")" }
