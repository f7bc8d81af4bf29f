package wsa

import (
	"fmt"
	"slices"

	"worldsetdb/internal/ra"
	"worldsetdb/internal/relation"
	"worldsetdb/internal/worldset"
	"worldsetdb/internal/wsd"
)

// AnswerName is the name under which the answer relation R_{k+1} is
// carried during evaluation.
const AnswerName = "$ans"

// Options tune the reference evaluator.
type Options struct {
	// MaxWorlds caps the world-set size; 0 means wsd.DefaultExpandBudget.
	// Repair-by-key can be exponential (Proposition 4.2), so the
	// reference evaluator refuses runaway world-sets instead of
	// exhausting memory.
	MaxWorlds int
}

func (o *Options) maxWorlds() int {
	if o == nil || o.MaxWorlds == 0 {
		return wsd.DefaultExpandBudget
	}
	return o.MaxWorlds
}

// Eval evaluates q on world-set A per Figure 3, returning a world-set
// over ⟨R1, …, Rk, R_{k+1}⟩ where the added relation (named "$ans")
// holds the answer to q in each world.
func Eval(q Expr, a *worldset.WorldSet) (*worldset.WorldSet, error) {
	return EvalOpts(q, a, nil)
}

// EvalOpts is Eval with explicit options.
func EvalOpts(q Expr, a *worldset.WorldSet, opt *Options) (*worldset.WorldSet, error) {
	env := NewEnv(a.Names(), a.Schemas())
	if _, err := q.Schema(env); err != nil {
		return nil, err
	}
	return eval(q, a, opt)
}

// Run evaluates q on A and names the answer relation. This is the
// public entry point matching the paper's convention that a query
// extends every world with a new named relation.
func Run(q Expr, a *worldset.WorldSet, name string) (*worldset.WorldSet, error) {
	out, err := Eval(q, a)
	if err != nil {
		return nil, err
	}
	return RenameLast(out, name), nil
}

// MustRun is Run for tests and examples.
func MustRun(q Expr, a *worldset.WorldSet, name string) *worldset.WorldSet {
	out, err := Run(q, a, name)
	if err != nil {
		panic(err)
	}
	return out
}

// Answers evaluates q and returns only the answer relation of each world
// (deduplicated, deterministic order): the set of possible answers.
func Answers(q Expr, a *worldset.WorldSet) ([]*relation.Relation, error) {
	out, err := Eval(q, a)
	if err != nil {
		return nil, err
	}
	return DistinctLast(out), nil
}

// eval is the recursive Figure-3 evaluator. Every case returns a
// world-set with exactly one more relation than a.
func eval(q Expr, a *worldset.WorldSet, opt *Options) (*worldset.WorldSet, error) {
	env := NewEnv(a.Names(), a.Schemas())
	outSchema, err := q.Schema(env)
	if err != nil {
		return nil, err
	}

	switch n := q.(type) {
	case *Rel:
		idx := a.IndexOf(n.Name)
		if idx < 0 {
			return nil, fmt.Errorf("wsa: unknown relation %q", n.Name)
		}
		return a.Extend(AnswerName, outSchema, func(w worldset.World) *relation.Relation {
			return w[idx]
		}), nil

	case *Select:
		return evalUnary(n.From, a, opt, outSchema, func(r *relation.Relation) (*relation.Relation, error) {
			return (&ra.Select{Pred: n.Pred, From: &ra.Lit{Rel: r}}).Eval(nil)
		})

	case *Project:
		return evalUnary(n.From, a, opt, outSchema, func(r *relation.Relation) (*relation.Relation, error) {
			return ra.ProjectNames(&ra.Lit{Rel: r}, n.Columns...).Eval(nil)
		})

	case *Rename:
		return evalUnary(n.From, a, opt, outSchema, func(r *relation.Relation) (*relation.Relation, error) {
			return (&ra.Rename{Pairs: n.Pairs, From: &ra.Lit{Rel: r}}).Eval(nil)
		})

	case *BinOp:
		return evalBinary(n.L, n.R, a, opt, outSchema, func(l, r *relation.Relation) (*relation.Relation, error) {
			le, re := &ra.Lit{Rel: l}, &ra.Lit{Rel: r}
			switch n.Kind {
			case OpProduct:
				return (&ra.Product{L: le, R: re}).Eval(nil)
			case OpUnion:
				return (&ra.Union{L: le, R: re}).Eval(nil)
			case OpIntersect:
				return (&ra.Intersect{L: le, R: re}).Eval(nil)
			case OpDiff:
				return (&ra.Diff{L: le, R: re}).Eval(nil)
			}
			return nil, fmt.Errorf("wsa: unknown binary operator %v", n.Kind)
		})

	case *Join:
		return evalBinary(n.L, n.R, a, opt, outSchema, func(l, r *relation.Relation) (*relation.Relation, error) {
			return (&ra.Join{L: &ra.Lit{Rel: l}, R: &ra.Lit{Rel: r}, Pred: n.Pred}).Eval(nil)
		})

	case *Choice:
		sub, err := eval(n.From, a, opt)
		if err != nil {
			return nil, err
		}
		return ChoiceLast(sub, n.Attrs, opt.maxWorlds())

	case *RepairKey:
		sub, err := eval(n.From, a, opt)
		if err != nil {
			return nil, err
		}
		return RepairLast(sub, n.Attrs, opt.maxWorlds())

	case *Group:
		sub, err := eval(n.From, a, opt)
		if err != nil {
			return nil, err
		}
		k := sub.NumRelations() - 1
		inSchema := sub.Schemas()[k]
		gIdx, err := inSchema.Indexes(n.GroupBy)
		if err != nil {
			return nil, err
		}
		pIdx, err := inSchema.Indexes(n.ProjOrAll(inSchema))
		if err != nil {
			return nil, err
		}
		gSchema := relation.NewSchema(n.GroupBy...)
		return GroupLast(sub, n.Kind, pIdx, outSchema, func(w worldset.World) (worldset.World, error) {
			return worldset.World{w[k].Project(gIdx, gSchema)}, nil
		})

	case *Close:
		// poss = pγ^*_true, cert = cγ^*_true (Figure 3): a single group
		// containing every world.
		sub, err := eval(n.From, a, opt)
		if err != nil {
			return nil, err
		}
		kind := GroupCert
		if n.Kind == ClosePoss {
			kind = GroupPoss
		}
		return GroupLast(sub, kind, nil, outSchema, func(worldset.World) (worldset.World, error) { return nil, nil })
	}
	return nil, fmt.Errorf("wsa: unknown operator %T", q)
}

// evalUnary evaluates the subquery and maps f over the answer relation of
// each world.
func evalUnary(from Expr, a *worldset.WorldSet, opt *Options, outSchema relation.Schema,
	f func(*relation.Relation) (*relation.Relation, error)) (*worldset.WorldSet, error) {
	sub, err := eval(from, a, opt)
	if err != nil {
		return nil, err
	}
	k := sub.NumRelations() - 1
	out := worldset.New(sub.Names(), replaceLastSchema(sub.Schemas(), outSchema))
	var mapErr error
	sub.Each(func(w worldset.World) {
		if mapErr != nil {
			return
		}
		r, err := f(w[k])
		if err != nil {
			mapErr = err
			return
		}
		out.Add(withLast(w, r))
	})
	if mapErr != nil {
		return nil, mapErr
	}
	return out, nil
}

// evalBinary implements the binary-operator semantics of Figure 3: the
// operands are evaluated on the same input world-set and their answers
// are combined in every pair of worlds that agree on R1, …, Rk.
func evalBinary(l, r Expr, a *worldset.WorldSet, opt *Options, outSchema relation.Schema,
	f func(l, r *relation.Relation) (*relation.Relation, error)) (*worldset.WorldSet, error) {
	la, err := eval(l, a, opt)
	if err != nil {
		return nil, err
	}
	rb, err := eval(r, a, opt)
	if err != nil {
		return nil, err
	}
	// Pair each left world with the right worlds of an equal prefix,
	// found by the prefix's content digest and verified with Equal.
	k := a.NumRelations()
	type bucket struct {
		prefix worldset.World
		lasts  []*relation.Relation
	}
	right := map[uint64][]*bucket{}
	rb.Each(func(w worldset.World) {
		h := w[:k].Hash()
		i := slices.IndexFunc(right[h], func(b *bucket) bool { return b.prefix.Equal(w[:k]) })
		if i < 0 {
			i = len(right[h])
			right[h] = append(right[h], &bucket{prefix: w[:k]})
		}
		right[h][i].lasts = append(right[h][i].lasts, w[k])
	})
	out := worldset.New(la.Names(), replaceLastSchema(la.Schemas(), outSchema))
	var pairErr error
	la.Each(func(w worldset.World) {
		if pairErr != nil {
			return
		}
		for _, b := range right[w[:k].Hash()] {
			if !b.prefix.Equal(w[:k]) {
				continue
			}
			for _, rr := range b.lasts {
				res, err := f(w[k], rr)
				if err != nil {
					pairErr = err
					return
				}
				out.Add(withLast(w, res))
			}
		}
	})
	if pairErr != nil {
		return nil, pairErr
	}
	return out, nil
}
