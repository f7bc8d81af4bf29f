package isql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"worldsetdb/internal/value"
)

// Transaction-control and prepared-statement AST nodes. BEGIN opens a
// staged transaction over one private staging snapshot; statements
// inside it are invisible to other sessions until COMMIT publishes them
// as one catalog version (ROLLBACK discards them). PREPARE registers a
// parsed statement — with optional $1..$N parameter placeholders —
// under a name in the session's plan cache; EXECUTE binds arguments and
// runs it, reusing the cached compiled plan when the statement is a
// zero-parameter select in the clean fragment.

// BeginStmt opens a transaction.
type BeginStmt struct{}

func (*BeginStmt) stmt()            {}
func (s *BeginStmt) String() string { return "begin" }

// CommitStmt atomically publishes the open transaction.
type CommitStmt struct{}

func (*CommitStmt) stmt()            {}
func (s *CommitStmt) String() string { return "commit" }

// RollbackStmt discards the open transaction.
type RollbackStmt struct{}

func (*RollbackStmt) stmt()            {}
func (s *RollbackStmt) String() string { return "rollback" }

// PrepareStmt registers Stmt under Name: `prepare name as <statement>`.
type PrepareStmt struct {
	Name string
	Stmt Statement
}

func (*PrepareStmt) stmt() {}
func (s *PrepareStmt) String() string {
	return "prepare " + s.Name + " as " + s.Stmt.String()
}

// ExecuteStmt runs a prepared statement with bound arguments:
// `execute name` or `execute name(arg, ...)`.
type ExecuteStmt struct {
	Name string
	Args []value.Value
}

func (*ExecuteStmt) stmt() {}
func (s *ExecuteStmt) String() string {
	if len(s.Args) == 0 {
		return "execute " + s.Name
	}
	cells := make([]string, len(s.Args))
	for i, v := range s.Args {
		cells[i] = renderLiteral(v)
	}
	return fmt.Sprintf("execute %s(%s)", s.Name, strings.Join(cells, ", "))
}

// ParamExpr is a $N placeholder (1-based) inside a prepared statement.
// It must be bound by EXECUTE before the statement runs; analysis and
// evaluation reject unbound parameters.
type ParamExpr struct{ N int }

func (*ParamExpr) exprNode()        {}
func (e *ParamExpr) String() string { return fmt.Sprintf("$%d", e.N) }

// renderLiteral renders a value as I-SQL literal text that re-parses to
// the same value — the invariant WAL replay and view storage depend on
// (statements persist as their String() rendering). Strings double
// embedded quotes (SQL convention, understood by the lexer); floats
// render in plain decimal notation because the lexer has no exponent
// syntax (strconv's -1 precision keeps the round trip exact), with a
// fraction always, so an integral float re-parses as a float.
func renderLiteral(v value.Value) string {
	switch v.Kind() {
	case value.KindString:
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	case value.KindFloat:
		f := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			break
		}
		s := strconv.FormatFloat(f, 'f', -1, 64)
		if f == math.Trunc(f) {
			s += ".0"
		}
		return s
	}
	return v.String()
}
