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
}

// DurabilityStats reports the per-shard durability posture. Safe to
// call concurrently with commits and checkpoints.
func (c *Catalog) DurabilityStats() []DurabilityStat {
	out := make([]DurabilityStat, len(c.shards))
	now := time.Now()
	for i, sh := range c.shards {
		st := DurabilityStat{Shard: i, CheckpointAgeSeconds: -1}
		st.WALTailRecords = sh.wal.TailRecords()
		_, last := sh.wal.LastCheckpoint()
		if i < len(c.pagers) {
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

// Pagers exposes the catalog's page stores (empty when the catalog is
// not durable). Read-only observability access for /metrics.
func (c *Catalog) Pagers() []*PageStore { return c.pagers }
