package store

import (
	"os"
	"time"

	"worldsetdb/internal/bufpool"
)

// Durability observability: the three questions an operator asks of a
// WAL-plus-checkpoint store — how stale is the recovery base (checkpoint
// age), how big is it on disk, and how much WAL tail would a crash right
// now replay. The base is one file, so its figures are catalog-wide;
// only the WAL tail is per shard. The stat also carries the page store's
// checkpoint I/O counters and buffer-pool counters so /metrics can
// export everything from one call.

// DurabilityStat is the catalog's durability posture.
type DurabilityStat struct {
	// BaseVersion is the catalog version of the last durable page
	// checkpoint (0 when the catalog has never page-checkpointed).
	BaseVersion uint64 `json:"base_version"`
	// CheckpointAgeSeconds is the time since the last checkpoint
	// completed (or was skipped as a no-op, or was loaded by recovery);
	// negative when there has been none.
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`
	// DiskBytes is the on-disk size of the checkpoint file (0 when the
	// file does not exist yet).
	DiskBytes int64 `json:"disk_bytes"`
	// WALTailRecords holds, per shard, the number of records in its WAL
	// segment — the replay work a crash right now would cost.
	WALTailRecords []int `json:"wal_tail_records"`

	// Checkpoint I/O counters (zero without paging).
	PagesWritten uint64 `json:"pages_written"`
	BytesWritten uint64 `json:"bytes_written"`
	Checkpoints  uint64 `json:"checkpoints"`
	NoopSkips    uint64 `json:"noop_skips"`

	// Buffer-pool counters (zero without paging).
	Pool bufpool.Stats `json:"pool"`
}

// DurabilityStats reports the catalog's durability posture. Safe to
// call concurrently with commits and checkpoints.
func (c *Catalog) DurabilityStats() DurabilityStat {
	st := DurabilityStat{CheckpointAgeSeconds: -1}
	for _, sh := range c.shards {
		st.WALTailRecords = append(st.WALTailRecords, sh.wal.TailRecords())
	}
	ps := c.pager
	if ps == nil {
		return st
	}
	cs := ps.Stats()
	st.BaseVersion = ps.Version()
	st.PagesWritten = cs.PagesWritten
	st.BytesWritten = cs.BytesWritten
	st.Checkpoints = cs.Checkpoints
	st.NoopSkips = cs.NoopSkips
	st.Pool = ps.PoolStats()
	if !cs.LastCkptAt.IsZero() {
		st.CheckpointAgeSeconds = time.Since(cs.LastCkptAt).Seconds()
	}
	if fi, err := os.Stat(ps.Path()); err == nil {
		st.DiskBytes = fi.Size()
	}
	return st
}

// Pager exposes the catalog's page store (nil when the catalog is not
// durable). Read-only observability access for /metrics.
func (c *Catalog) Pager() *PageStore { return c.pager }
