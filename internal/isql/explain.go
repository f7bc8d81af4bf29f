package isql

import (
	"fmt"
	"strings"

	"worldsetdb/internal/obs"
	"worldsetdb/internal/rewrite"
	"worldsetdb/internal/wsa"
)

// ExplainStmt wraps a statement for plan and trace inspection:
// `explain [analyze] <stmt>`. Bare EXPLAIN compiles a select and
// reports its lowered (and prelowered) World-set Algebra without
// executing; EXPLAIN ANALYZE executes the wrapped statement for real —
// DML commits — with a trace attached and renders the resulting span
// tree (parse → compile → rewrite → per-operator evaluation → commit →
// fsync) with merge costs and component ids.
type ExplainStmt struct {
	Analyze bool
	Stmt    Statement
}

func (*ExplainStmt) stmt() {}
func (s *ExplainStmt) String() string {
	if s.Analyze {
		return "explain analyze " + s.Stmt.String()
	}
	return "explain " + s.Stmt.String()
}

// execExplain runs an EXPLAIN statement. The ANALYZE form swaps a
// fresh trace root into the session, executes the inner statement
// through the ordinary Exec dispatch (so the measured path is exactly
// the served path), and renders plan plus span tree into the result
// message.
func (s *Session) execExplain(n *ExplainStmt) (*Result, error) {
	if !n.Analyze {
		return s.explainCompile(n.Stmt)
	}
	trace := obs.NewTrace("stmt")
	trace.Set("sql", n.Stmt.String())

	// Parse the inner statement's canonical text so the trace carries an
	// honest parse cost — the wrapped tree was parsed as part of the
	// EXPLAIN line, not on its own.
	psp := trace.Child("parse")
	inner, err := Parse(n.Stmt.String())
	psp.End()
	if err != nil {
		trace.Release()
		return nil, fmt.Errorf("isql: explain analyze: reparsing the statement: %w", err)
	}

	prev, prevRoot := s.span, s.root
	s.SetTrace(trace)
	res, err := s.Exec(inner)
	s.span, s.root = prev, prevRoot
	trace.End()
	if err != nil {
		trace.Release()
		return nil, err
	}

	var b strings.Builder
	if res.Plan != nil {
		fmt.Fprintf(&b, "plan: %s\n", res.Plan)
	}
	b.WriteString(trace.Render())
	trace.Release()

	// Report the plan and span tree, not the rows: ANALYZE executes the
	// statement for real (DML commits), but its answer is the trace.
	out := &Result{
		Plan:    res.Plan,
		Message: strings.TrimRight(b.String(), "\n"),
	}
	return out, nil
}

// explainCompile is the bare EXPLAIN form: compile (and prelower) a
// select against the current snapshot and report the algebra without
// executing. Only selects compile to a standalone plan; other
// statements execute-to-plan and need ANALYZE.
func (s *Session) explainCompile(st Statement) (*Result, error) {
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("isql: explain without analyze supports select statements; use explain analyze for %T", st)
	}
	snap, err := s.snapshotForRead()
	if err != nil {
		return nil, err
	}
	q, err := s.compileOn(snap.DB.Names, snap.DB.Schemas, sel)
	if err != nil {
		if isFragmentError(err) {
			return &Result{Message: fmt.Sprintf(
				"outside the WSA fragment (%s): evaluates on the bounded dependent-component expansion", fragmentOp(err))}, nil
		}
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "compiled: %s", q)
	env := wsa.NewEnv(snap.DB.Names, snap.DB.Schemas)
	stats := rewrite.StatsOf(snap.DB)
	r, rewritten := rewrite.PrelowerStats(q, env, stats, nil)
	if rewritten {
		fmt.Fprintf(&b, "\nprelowered: %s", r)
	}
	// Per-operator estimated cost and cardinality under the catalog's
	// decomposition statistics — the numbers the plan was chosen by.
	fmt.Fprintf(&b, "\nestimates:\n%s", rewrite.ExplainEstimates(r, stats))
	return &Result{Message: b.String()}, nil
}
