// Package uldb reproduces Remark 4.6 of the paper as a test: it holds
// only test files. This one models the minimal fragment of ULDBs
// (databases with uncertainty and lineage, the Trio data model) the
// remark needs — x-relations whose x-tuples have alternatives, optional
// '?' (maybe) markers, and lineage pointing to alternatives of other
// x-tuples — plus the TriQL horizontal-selection query that witnesses
// TriQL's lack of genericity.
package uldb

import (
	"fmt"
	"strings"

	"worldsetdb/internal/relation"
	"worldsetdb/internal/value"
	"worldsetdb/internal/worldset"
)

// AltRef identifies one alternative of an x-tuple: (tuple id, 1-based
// alternative index).
type AltRef struct {
	Tuple string
	Alt   int
}

// XTuple is an uncertain tuple: a set of mutually exclusive alternative
// value tuples, an optional maybe marker ('?'), and per-alternative
// lineage.
type XTuple struct {
	ID string
	// Alternatives are the possible values of the tuple; exactly one is
	// chosen in a world where the tuple is present.
	Alternatives []relation.Tuple
	// Maybe marks the tuple as optional ('?'): it may be absent.
	Maybe bool
	// Lineage[i] lists the external alternatives alternative i depends
	// on; an alternative can only appear in worlds that chose all of
	// its lineage alternatives.
	Lineage [][]AltRef
}

// XRelation is an uncertain relation.
type XRelation struct {
	Name   string
	Schema relation.Schema
	Tuples []*XTuple
}

// ULDB is a set of x-relations plus the external alternatives lineage
// may reference (modelled as one implicit choice per external tuple id).
type ULDB struct {
	Relations []*XRelation
	// External maps an external x-tuple id to its number of
	// alternatives; worlds choose one alternative for each.
	External map[string]int
}

// Worlds enumerates the represented set of possible worlds: one world
// per combination of (a) an alternative for every external id and (b)
// presence/choice for every x-tuple consistent with lineage and maybe
// markers. Duplicate worlds collapse (set semantics), exactly the notion
// used in Remark 4.6.
func (u *ULDB) Worlds() (*worldset.WorldSet, error) {
	names := make([]string, len(u.Relations))
	schemas := make([]relation.Schema, len(u.Relations))
	for i, r := range u.Relations {
		names[i] = r.Name
		schemas[i] = r.Schema
	}
	ws := worldset.New(names, schemas)

	extIDs := make([]string, 0, len(u.External))
	for id := range u.External {
		extIDs = append(extIDs, id)
	}
	sortStrings(extIDs)

	extChoice := map[string]int{}
	var enumerateExt func(i int) error
	enumerateExt = func(i int) error {
		if i == len(extIDs) {
			return u.enumerateTuples(ws, extChoice)
		}
		for alt := 1; alt <= u.External[extIDs[i]]; alt++ {
			extChoice[extIDs[i]] = alt
			if err := enumerateExt(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := enumerateExt(0); err != nil {
		return nil, err
	}
	return ws, nil
}

// enumerateTuples enumerates tuple choices for a fixed external choice.
func (u *ULDB) enumerateTuples(ws *worldset.WorldSet, ext map[string]int) error {
	// Collect per-tuple options: -1 means absent.
	type slot struct {
		rel  int
		xt   *XTuple
		opts []int
	}
	var slots []slot
	for ri, r := range u.Relations {
		for _, xt := range r.Tuples {
			s := slot{rel: ri, xt: xt}
			if xt.Maybe {
				s.opts = append(s.opts, -1)
			}
			for ai := range xt.Alternatives {
				ok := true
				if ai < len(xt.Lineage) {
					for _, ref := range xt.Lineage[ai] {
						chosen, isExt := ext[ref.Tuple]
						if !isExt {
							return fmt.Errorf("uldb: lineage references unknown external tuple %q", ref.Tuple)
						}
						if chosen != ref.Alt {
							ok = false
							break
						}
					}
				}
				if ok {
					s.opts = append(s.opts, ai)
				}
			}
			if len(s.opts) == 0 {
				// No consistent alternative and not maybe: tuple absent.
				s.opts = append(s.opts, -1)
			}
			slots = append(slots, s)
		}
	}
	choice := make([]int, len(slots))
	var rec func(i int)
	rec = func(i int) {
		if i == len(slots) {
			world := make(worldset.World, len(u.Relations))
			for ri, r := range u.Relations {
				world[ri] = relation.New(r.Schema)
			}
			for si, s := range slots {
				opt := s.opts[choice[si]]
				if opt >= 0 {
					world[s.rel].Insert(s.xt.Alternatives[opt])
				}
			}
			ws.Add(world)
			return
		}
		for ci := range slots[i].opts {
			choice[i] = ci
			rec(i + 1)
		}
	}
	rec(0)
	return nil
}

// HorizontalSelect implements the Remark 4.6 TriQL query
//
//	select * from R where exists [select * from R r1, R r2 where r1.A <> r2.A]
//
// under TriQL's representation-level semantics: an x-tuple is selected
// iff it has at least two distinct alternatives. The horizontal
// subquery inspects the alternatives of the x-tuple itself — which is
// exactly why the query is not generic.
func HorizontalSelect(r *XRelation) *XRelation {
	out := &XRelation{Name: r.Name, Schema: r.Schema}
	for _, xt := range r.Tuples {
		distinct := map[string]bool{}
		for _, alt := range xt.Alternatives {
			distinct[alt.Key()] = true
		}
		if len(distinct) >= 2 {
			out.Tuples = append(out.Tuples, xt)
		}
	}
	return out
}

// String renders the x-relation in the style of Remark 4.6.
func (r *XRelation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%v\n", r.Name, []string(r.Schema))
	for _, xt := range r.Tuples {
		alts := make([]string, len(xt.Alternatives))
		for i, a := range xt.Alternatives {
			alts[i] = a.String()
		}
		maybe := ""
		if xt.Maybe {
			maybe = " ?"
		}
		lineage := ""
		if len(xt.Lineage) > 0 {
			parts := []string{}
			for ai, refs := range xt.Lineage {
				for _, ref := range refs {
					parts = append(parts, fmt.Sprintf("alt%d→(%s,%d)", ai+1, ref.Tuple, ref.Alt))
				}
			}
			if len(parts) > 0 {
				lineage = " λ{" + strings.Join(parts, ", ") + "}"
			}
		}
		fmt.Fprintf(&b, "  %s %s%s%s\n", xt.ID, strings.Join(alts, " || "), lineage, maybe)
	}
	return b.String()
}

// IntTuple builds an integer tuple.
func IntTuple(vals ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = value.Int(v)
	}
	return t
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
