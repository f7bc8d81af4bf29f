// Command isqld serves I-SQL sessions concurrently over a shared
// decomposition-native catalog (see internal/isqld for the protocol).
//
// Usage:
//
//	isqld [-addr host:port] [-demo name] [-load file.wsd] [-save file.wsd]
//	      [-engine name] [-wal dir] [-checkpoint-every n] [-shards n]
//	      [-slow-query dur] [-debug-addr host:port]
//
// The catalog starts empty, from one of the paper's demo datasets
// (-demo flights | acquisition | census | lineitem), or from a .wsd
// catalog file (-load). With -save, the catalog is persisted on
// graceful shutdown (SIGINT/SIGTERM). Clients POST I-SQL scripts to
// /exec (with an X-ISQL-Session header for sticky transactional
// sessions), register prepared statements on /prepare, run them via
// /execute, and read catalog statistics from /stats:
//
//	curl --data-binary 'select certain Name from Clean;' http://localhost:8486/exec
//
// # Observability
//
// GET /metrics serves Prometheus text exposition (request and
// execution counters, per-shard commit-queue and WAL-fsync latency
// histograms, per-relation decomposition gauges); GET /healthz a JSON
// liveness document with the shard count and last durable epoch per
// shard. With -slow-query, any statement slower than the threshold
// writes its full span tree (parse → compile → per-operator
// evaluation → commit → fsync) to stderr as one JSON line. With
// -debug-addr, a second listener serves net/http/pprof profiles —
// keep it on a loopback or otherwise private address.
//
// # Durability
//
// With -wal, the catalog is durable: every committed transaction is
// appended (commit epoch, page delta and statement texts, CRC-framed,
// fsynced) to the WAL segment of each shard it wrote —
// dir/wal-<shard>.log — before it becomes visible, and
// dir/checkpoint.wsd (plus dir/checkpoint.wsd.s<i> for shards beyond
// the first) holds the last checkpoint as incremental page files — each
// checkpoint rewrites only the pages of components touched since the
// previous one, through a fixed-size buffer pool (-pool-pages frames
// per shard), and a checkpoint with nothing new writes zero bytes. A
// pre-existing v1 JSON checkpoint is still recovered; the first
// checkpoint after the upgrade migrates it to the page format in place.
// A dir/wal.log written by a release that predates per-shard segments
// is adopted as shard 0's segment on startup. On startup the server
// recovers the checkpoint plus the log tail, merged across segments by
// commit epoch — records apply their page deltas directly to the base;
// statement re-execution is the per-record fallback, counted in
// wsdb_replay_fallback_total — so a crash loses nothing committed.
// -checkpoint-every bounds replay work by checkpointing after that many
// logged commits (0 = checkpoint only on graceful shutdown). When the
// directory already holds state, it wins over -demo/-load; a fresh
// directory is seeded from them and checkpointed immediately so the
// seed itself is durable.
//
// # Sharding
//
// The catalog is partitioned into -shards n component shards (default
// 1): relations hash to one of the n shards, each shard has its own
// writer lock, group-commit queue and WAL segment, and commits touching
// disjoint shards execute and fsync fully in parallel. A commit on one
// shard is one record through that shard's queue; a commit spanning
// shards uses a two-phase stage+marker protocol, and recovery discards
// staged epochs whose marker is missing. The shard count is a runtime
// property: restarting with a different -shards is allowed after a
// clean shutdown (the checkpoint carries no shard layout), but segments
// written at one count must be recovered at the same count before
// changing it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"worldsetdb/internal/datagen"
	"worldsetdb/internal/isql"
	"worldsetdb/internal/isqld"
	"worldsetdb/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8486", "listen address")
	demo := flag.String("demo", "", "preload a demo database: flights | acquisition | census | lineitem")
	load := flag.String("load", "", "open a catalog persisted as a .wsd JSON file")
	save := flag.String("save", "", "persist the catalog to a .wsd JSON file on graceful shutdown")
	engine := flag.String("engine", "", "evaluation engine for fragment statements (default: wsdexec)")
	walDir := flag.String("wal", "", "directory for WAL-backed durability (checkpoint.wsd + one wal-<shard>.log per shard)")
	ckptEvery := flag.Int("checkpoint-every", 256, "with -wal: checkpoint after this many logged commits (0 = only on shutdown)")
	txnRetries := flag.Int("txn-retries", 16, "automatic conflict retries per transaction (0 = surface conflicts immediately)")
	shards := flag.Int("shards", 1, "component shards: commits on disjoint shards run in parallel, each with its own WAL segment")
	poolPages := flag.Int("pool-pages", store.DefaultPoolPages, "with -wal: buffer-pool capacity in pages per shard for the paged checkpoint base")
	slowQuery := flag.Duration("slow-query", 0, "log the span tree of statements slower than this as JSON lines on stderr (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on a second listener (keep it private)")
	flag.Parse()

	cat, wals, ckptPath, err := openCatalog(*demo, *load, *walDir, *shards, *poolPages)
	if err != nil {
		log.Fatal(err)
	}
	opts := []isqld.Option{isqld.WithEngine(*engine), isqld.WithTxnRetries(*txnRetries)}
	if *slowQuery > 0 {
		opts = append(opts, isqld.WithSlowQuery(*slowQuery, os.Stderr))
	}
	srv := isqld.New(cat, opts...)

	if *debugAddr != "" {
		// The pprof import registers on http.DefaultServeMux; serve that
		// mux on the debug listener only — the main handler never exposes
		// profiles.
		go func() {
			log.Printf("isqld: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("isqld: debug listener: %v", err)
			}
		}()
	}

	appended := func() int {
		n := 0
		for _, w := range wals {
			n += w.Appended()
		}
		return n
	}
	checkpoint := func() error { return cat.Checkpoint(ckptPath) }

	// Bound WAL replay work: checkpoint once enough commits accumulated
	// across all segments.
	stopCkpt := make(chan struct{})
	if len(wals) > 0 && *ckptEvery > 0 {
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-tick.C:
					if appended() >= *ckptEvery {
						if err := checkpoint(); err != nil {
							log.Printf("isqld: checkpoint: %v", err)
						} else {
							log.Printf("isqld: checkpointed catalog v%d, WAL truncated", cat.Snapshot().Version)
						}
					}
				}
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		snap := cat.Snapshot()
		log.Printf("isqld: serving on http://%s — %d relation(s), %s world(s), size %d, version %d, %d shard(s)",
			*addr, len(snap.DB.Names), snap.DB.Worlds(), snap.DB.Size(), snap.Version, cat.Shards())
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	close(stopCkpt)
	srv.Close() // stop the idle-session sweeper
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("isqld: shutdown: %v", err)
	}
	if len(wals) > 0 {
		if err := checkpoint(); err != nil {
			log.Fatalf("isqld: final checkpoint: %v", err)
		}
		for _, w := range wals {
			w.Close()
		}
		log.Printf("isqld: checkpointed to %s", ckptPath)
	}
	if *save != "" {
		if err := store.SaveFile(*save, cat.Snapshot()); err != nil {
			log.Fatalf("isqld: saving catalog: %v", err)
		}
		log.Printf("isqld: catalog saved to %s", *save)
	}
}

// openCatalog builds the serving catalog. Without -wal it is in-memory
// (empty, demo, or loaded file). With -wal, existing durable state
// (checkpoint and/or log segments) is recovered and wins; otherwise the
// seed is installed and immediately checkpointed. A nil WAL slice means
// not durable.
func openCatalog(demo, load, walDir string, shards, poolPages int) (*store.Catalog, []*store.WAL, string, error) {
	if walDir == "" {
		cat, err := newCatalog(demo, load)
		if err != nil {
			return nil, nil, "", err
		}
		cat.Reshard(shards)
		return cat, nil, "", nil
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, nil, "", err
	}
	ckptPath := filepath.Join(walDir, "checkpoint.wsd")
	_, ckErr := os.Stat(ckptPath)
	exists := ckErr == nil
	// Any non-empty log counts, wal-<shard>.log segments and a legacy
	// wal.log alike: seeding next to one would shadow committed state.
	logs, _ := filepath.Glob(filepath.Join(walDir, "wal*.log"))
	for _, l := range logs {
		if fi, err := os.Stat(l); err == nil && fi.Size() > 0 {
			exists = true
		}
	}
	if exists {
		if demo != "" || load != "" {
			log.Printf("isqld: %s already holds catalog state; ignoring -demo/-load", walDir)
		}
		cat, wals, err := isql.OpenStore(ckptPath, walDir, shards, poolPages)
		if err != nil {
			return nil, nil, "", err
		}
		return cat, wals, ckptPath, nil
	}
	cat, err := newCatalog(demo, load)
	if err != nil {
		return nil, nil, "", err
	}
	cat.Reshard(shards)
	// Make the seed itself durable before the first transaction: replay
	// starts from the checkpoint, which must therefore include it.
	// Paging is attached first so the seed checkpoint already writes the
	// incremental page format.
	if err := cat.EnablePaging(ckptPath, poolPages); err != nil {
		return nil, nil, "", err
	}
	wals := make([]*store.WAL, cat.Shards())
	closeWALs := func() {
		for _, w := range wals {
			if w != nil {
				w.Close()
			}
		}
	}
	for si := range wals {
		w, _, err := store.OpenWAL(store.SegmentPath(walDir, si))
		if err != nil {
			closeWALs()
			return nil, nil, "", err
		}
		wals[si] = w
	}
	cat.SetShardLoggers(wals)
	if err := cat.Checkpoint(ckptPath); err != nil {
		closeWALs()
		return nil, nil, "", fmt.Errorf("isqld: checkpointing seed: %w", err)
	}
	return cat, wals, ckptPath, nil
}

func newCatalog(demo, load string) (*store.Catalog, error) {
	if load != "" {
		if demo != "" {
			return nil, fmt.Errorf("isqld: -demo and -load are mutually exclusive")
		}
		return store.LoadFile(load)
	}
	if demo == "" {
		return store.New(nil), nil
	}
	names, rels, err := datagen.DemoDB(demo)
	if err != nil {
		return nil, err
	}
	return store.FromComplete(names, rels), nil
}
