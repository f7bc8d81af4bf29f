package store

import (
	"os"
	"time"

	"worldsetdb/internal/bufpool"
)

// Durability observability: one stat row per shard covering the three
// questions an operator asks of a WAL-plus-checkpoint store — how stale
// is the recovery base (checkpoint age), how big is it on disk, and how
// much WAL tail would a crash right now replay. The rows also carry the
// page store's checkpoint I/O counters and buffer-pool counters so
// /metrics can export everything from one call.

// DurabilityStat is one shard's durability posture.
type DurabilityStat struct {
	Shard int `json:"shard"`
	// BaseVersion is the catalog version of the shard's last durable
	// page checkpoint (0 when the shard has never page-checkpointed).
	BaseVersion uint64 `json:"base_version"`
	// CheckpointAgeSeconds is the time since the shard's last
	// checkpoint completed (or was skipped as a no-op); negative when no
	// checkpoint has happened since open.
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`
	// DiskBytes is the on-disk size of the shard's checkpoint file (0
	// when the file does not exist yet).
	DiskBytes int64 `json:"disk_bytes"`
	// WALTailRecords is the number of records in the shard's WAL
	// segment — the replay work a crash right now would cost.
	WALTailRecords int `json:"wal_tail_records"`

	// Checkpoint I/O counters (zero without paging).
	PagesWritten uint64 `json:"pages_written"`
	BytesWritten uint64 `json:"bytes_written"`
	Checkpoints  uint64 `json:"checkpoints"`
	NoopSkips    uint64 `json:"noop_skips"`

	// Buffer-pool counters (zero without paging or before the first
	// page-file open/write).
	Pool bufpool.Stats `json:"pool"`

	// ReplayFallbacks is the number of WAL records homed on this shard's
	// segment (the coordinator's, for cross-shard commits) that the last
	// recovery re-executed by statement because delta replay could not
	// apply: the record carried no delta, its patch no longer matched,
	// or an earlier epoch was missing from the chain. Zero after a crash
	// that tore nothing.
	ReplayFallbacks uint64 `json:"replay_fallbacks"`
}

// DurabilityStats reports the per-shard durability posture. Safe to
// call concurrently with commits and checkpoints.
func (c *Catalog) DurabilityStats() []DurabilityStat {
	out := make([]DurabilityStat, len(c.shards))
	now := time.Now()
	for i, sh := range c.shards {
		st := DurabilityStat{Shard: i, CheckpointAgeSeconds: -1, ReplayFallbacks: sh.replayFallbacks}
		st.WALTailRecords = sh.wal.TailRecords()
		_, last := sh.wal.LastCheckpoint()
		if i < len(c.pagers) && c.pagers[i] != nil {
			ps := c.pagers[i]
			st.BaseVersion = ps.Version()
			cs := ps.Stats()
			st.PagesWritten = cs.PagesWritten
			st.BytesWritten = cs.BytesWritten
			st.Checkpoints = cs.Checkpoints
			st.NoopSkips = cs.NoopSkips
			st.Pool = ps.PoolStats()
			if cs.LastCkptAt.After(last) {
				last = cs.LastCkptAt
			}
			if fi, err := os.Stat(ps.Path()); err == nil {
				st.DiskBytes = fi.Size()
			}
		}
		if !last.IsZero() {
			st.CheckpointAgeSeconds = now.Sub(last).Seconds()
		}
		out[i] = st
	}
	return out
}

// EnablePaging attaches one PageStore per shard to a catalog that was
// constructed fresh (not through Open, which wires the stores itself):
// checkpoints through Checkpoint at wsdPath then write the incremental
// page format. Call before
// concurrent use. Existing page files at the shard paths are adopted;
// a v1 JSON file (or nothing) at a path leaves that store
// uninitialized until its first checkpoint migrates it.
func (c *Catalog) EnablePaging(wsdPath string, poolPages int) error {
	n := c.Shards()
	pagers := make([]*PageStore, n)
	for i := 0; i < n; i++ {
		ps, _, err := OpenPageStore(shardCkptPath(wsdPath, i), i, i == 0, poolPages)
		if err != nil {
			for _, p := range pagers {
				if p != nil {
					p.Close()
				}
			}
			return err
		}
		pagers[i] = ps
	}
	c.pagers = pagers
	return nil
}

// Pagers exposes the catalog's page stores (nil entries possible; empty
// without paging). Read-only observability access for /metrics.
func (c *Catalog) Pagers() []*PageStore { return c.pagers }
