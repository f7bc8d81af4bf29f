package isql

import (
	"sync"

	"worldsetdb/internal/wsdexec"
)

// ExecStats aggregates, across any number of sessions sharing it (a
// server attaches one instance to every connection's session), how
// statements were executed. The native arm: fully native on the
// decomposition, or native after bounded component merging or
// refinement. The bounded arm (execBounded, the world-at-a-time
// evaluator over the dependent components): every select,
// create-table-as, DELETE and UPDATE outside the WSA fragment, counted
// under the historical name "legacy", as are the statements of an
// engine-override session (store.QueryOpts over enumerated worlds). The
// per-op maps attribute merges and bounded evaluations to the operator
// (or fragment feature, or engine) that caused them.
type ExecStats struct {
	mu        sync.Mutex
	native    uint64
	merged    uint64
	legacy    uint64
	mergeOps  map[string]uint64
	legacyOps map[string]uint64
}

// NewExecStats returns an empty, ready-to-share counter set.
func NewExecStats() *ExecStats {
	return &ExecStats{
		mergeOps:  map[string]uint64{},
		legacyOps: map[string]uint64{},
	}
}

// recordPlan accounts one compiled-statement execution. A plan that is
// not Native ran under the engine override of the given name, and is
// counted like the comparison engine's statements, under that name. A
// nil receiver (session without stats) or nil plan is a no-op.
func (st *ExecStats) recordPlan(p *wsdexec.Plan, engine string) {
	if st == nil || p == nil {
		return
	}
	if !p.Native {
		st.recordLegacy(engine)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.native++
	if len(p.Merges) > 0 {
		st.merged++
		for _, m := range p.Merges {
			st.mergeOps[m.Op]++
		}
	}
}

// recordLegacy accounts one statement evaluated by the bounded arm,
// keyed by what put it there: the fragment feature it uses
// ("aggregation", "expression subquery", ...; DML included), or
// "legacy" on a comparison-engine session, or the engine's name under
// an engine override (recordPlan).
func (st *ExecStats) recordLegacy(op string) {
	if st == nil {
		return
	}
	if op == "" {
		op = "unknown"
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.legacy++
	st.legacyOps[op]++
}

// ExecStatsSnapshot is a point-in-time copy of an ExecStats, shaped for
// JSON rendering (the isqld /stats document embeds it).
type ExecStatsSnapshot struct {
	// Native counts statements evaluated natively on the decomposition
	// (including those that merged or refined components).
	Native uint64 `json:"native"`
	// Merged counts native statements that merged or refined
	// components: an entanglement, or choice-of or repair-by-key over
	// an uncertain answer.
	Merged uint64 `json:"merged"`
	// Legacy counts statements — selects, create-table-as, DELETE,
	// UPDATE — outside the WSA fragment, evaluated by the bounded arm,
	// and every statement of an engine-override session.
	Legacy uint64 `json:"legacy"`
	// MergeOps attributes merges and refinements to the operator.
	MergeOps map[string]uint64 `json:"merge_ops,omitempty"`
	// LegacyOps attributes bounded-arm evaluations to the fragment
	// feature (or the override's engine) that caused them.
	LegacyOps map[string]uint64 `json:"legacy_ops,omitempty"`
}

// Snapshot returns a copy of the counters. Safe on a nil receiver.
func (st *ExecStats) Snapshot() ExecStatsSnapshot {
	if st == nil {
		return ExecStatsSnapshot{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := ExecStatsSnapshot{
		Native: st.native,
		Merged: st.merged,
		Legacy: st.legacy,
	}
	if len(st.mergeOps) > 0 {
		out.MergeOps = map[string]uint64{}
		for k, v := range st.mergeOps {
			out.MergeOps[k] = v
		}
	}
	if len(st.legacyOps) > 0 {
		out.LegacyOps = map[string]uint64{}
		for k, v := range st.legacyOps {
			out.LegacyOps[k] = v
		}
	}
	return out
}
