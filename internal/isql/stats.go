package isql

import (
	"sync"

	"worldsetdb/internal/wsdexec"
)

// ExecStats aggregates, across any number of sessions sharing it (a
// server attaches one instance to every connection's session), how
// statements were executed. The native arm: fully native on the
// decomposition, native after bounded component merging, or through
// the factorized engine's enumeration fallback (choice-of and
// repair-by-key over an uncertain answer). The bounded arm
// (execBounded, the world-at-a-time evaluator over the dependent
// components): every select, create-table-as, DELETE and UPDATE outside
// the WSA fragment, counted under the historical name "legacy". The
// per-op maps attribute merges, fallbacks and bounded evaluations to
// the operator (or fragment feature) that caused them — the
// observability handle for the "fallbacks should be rare" invariant.
type ExecStats struct {
	mu          sync.Mutex
	native      uint64
	merged      uint64
	fallbacks   uint64
	legacy      uint64
	mergeOps    map[string]uint64
	fallbackOps map[string]uint64
	legacyOps   map[string]uint64
}

// NewExecStats returns an empty, ready-to-share counter set.
func NewExecStats() *ExecStats {
	return &ExecStats{
		mergeOps:    map[string]uint64{},
		fallbackOps: map[string]uint64{},
		legacyOps:   map[string]uint64{},
	}
}

// recordPlan accounts one compiled-statement execution. A nil receiver
// (session without stats) or nil plan is a no-op.
func (st *ExecStats) recordPlan(p *wsdexec.Plan) {
	if st == nil || p == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if p.Native {
		st.native++
		if len(p.Merges) > 0 {
			st.merged++
			for _, m := range p.Merges {
				st.mergeOps[m.Op]++
			}
		}
		return
	}
	st.fallbacks++
	op := p.FallbackOp
	if op == "" {
		op = "unknown"
	}
	st.fallbackOps[op]++
}

// recordLegacy accounts one statement evaluated by the bounded arm,
// keyed by what put it there: the fragment feature it uses
// ("aggregation", "expression subquery", ...; DML included), or
// "legacy" on a comparison-engine session. execBounded is its only
// caller.
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
	// (including those that merged components).
	Native uint64 `json:"native"`
	// Merged counts native statements that resolved an entanglement by
	// merging components.
	Merged uint64 `json:"merged"`
	// Fallbacks counts statements the factorized engine evaluated by
	// enumerating the region they depend on: choice-of and
	// repair-by-key over an uncertain answer, the two operators no
	// component merge expresses (a merge beyond the budget can only be
	// refused), plus every statement of an engine-override session.
	Fallbacks uint64 `json:"fallbacks"`
	// Legacy counts statements — selects, create-table-as, DELETE,
	// UPDATE — outside the WSA fragment, evaluated by the bounded arm.
	Legacy uint64 `json:"legacy"`
	// MergeOps attributes merges to the entangling operator.
	MergeOps map[string]uint64 `json:"merge_ops,omitempty"`
	// FallbackOps attributes engine fallbacks to the operator.
	FallbackOps map[string]uint64 `json:"fallback_ops,omitempty"`
	// LegacyOps attributes bounded-arm evaluations to the fragment
	// feature that caused them.
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
		Native:    st.native,
		Merged:    st.merged,
		Fallbacks: st.fallbacks,
		Legacy:    st.legacy,
	}
	if len(st.mergeOps) > 0 {
		out.MergeOps = map[string]uint64{}
		for k, v := range st.mergeOps {
			out.MergeOps[k] = v
		}
	}
	if len(st.fallbackOps) > 0 {
		out.FallbackOps = map[string]uint64{}
		for k, v := range st.fallbackOps {
			out.FallbackOps[k] = v
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
