package wsa

import (
	"fmt"
	"sort"
	"sync"

	"worldsetdb/internal/worldset"
)

// Engine dispatch. The system has three evaluation engines for the same
// World-set Algebra semantics — the Figure 3 reference evaluator (this
// package), the Figure 6 translation to relational algebra over the
// inlined representation (internal/translate), and the factorized
// decomposition engine (internal/wsdexec), which is the paper's
// "dedicated physical operators". Each registers itself here under a stable
// name, so callers (cmd/isql, internal/difftest, benchmarks) can pick
// an engine without importing, or even knowing about, all of them.
//
// An engine is registered only once its package is linked in; importing
// internal/difftest (or the cmd tools) links all three.

// EngineFunc evaluates q on a world-set and returns the world-set
// extended with the answer relation, exactly like Eval.
type EngineFunc func(q Expr, ws *worldset.WorldSet) (*worldset.WorldSet, error)

var (
	engineMu sync.RWMutex
	engines  = map[string]EngineFunc{}
)

// RegisterEngine registers an evaluation engine under a unique name.
// It panics on duplicate or empty names: registration happens in
// package init functions, so a collision is a programming error.
func RegisterEngine(name string, f EngineFunc) {
	if name == "" || f == nil {
		panic("wsa: RegisterEngine with empty name or nil engine")
	}
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, ok := engines[name]; ok {
		panic(fmt.Sprintf("wsa: engine %q registered twice", name))
	}
	engines[name] = f
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	engineMu.RLock()
	defer engineMu.RUnlock()
	out := make([]string, 0, len(engines))
	for n := range engines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EvalWith evaluates q on ws with the named engine.
func EvalWith(name string, q Expr, ws *worldset.WorldSet) (*worldset.WorldSet, error) {
	engineMu.RLock()
	f, ok := engines[name]
	engineMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wsa: unknown engine %q (registered: %v)", name, EngineNames())
	}
	return f(q, ws)
}

func init() {
	RegisterEngine("reference", Eval)
}
