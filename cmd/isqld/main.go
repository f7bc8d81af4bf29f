// Command isqld serves I-SQL sessions concurrently over a shared
// decomposition-native catalog (see internal/isqld for the protocol).
//
// Usage:
//
//	isqld [-addr host:port] [-demo name] [-load file.wsd] [-save file.wsd]
//	      [-wal dir] [-checkpoint-every n] [-shards n]
//	      [-slow-query dur] [-debug-addr host:port]
//
// The catalog starts empty, from one of the paper's demo datasets
// (-demo flights | acquisition | census | lineitem), or imported from a
// .wsd JSON catalog file (-load). With -save, the catalog is exported
// to one on graceful shutdown (SIGINT/SIGTERM). Clients POST I-SQL scripts to
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
// appended as exactly one record (commit epoch, participant shards,
// page delta and statement texts, CRC-framed, fsynced) to the WAL
// segment of its lowest participant shard — dir/wal-<shard>.log —
// before it becomes visible, and dir/checkpoint.wsd — one page file at
// every shard count — holds the last checkpoint incrementally: each
// checkpoint rewrites only the pages of objects touched since the
// previous one, through a fixed-size buffer pool (-pool-pages frames),
// commits with one meta-slot flip, and writes zero bytes when nothing is
// new. On startup the server recovers the checkpoint plus the log tail,
// merged across segments by commit epoch, by applying each record's
// page delta to the base — no statement is ever re-executed — so a
// crash loses nothing committed.
// State the server cannot reproduce exactly (a record whose predecessor
// on its shard is missing, a record without a delta) makes it refuse to
// start and name the shard and epoch, rather than serve a different
// world-set. So does a log an older release wrote — a dir/wal.log, or
// segments in an older record format: recover it with that release and
// shut it down cleanly first, which leaves the log empty. A checkpoint
// in an older page format (one file per shard) is refused too: -save it
// with that release, then -load the export into a fresh directory.
// Page files are the only checkpoint format: a .wsd JSON file is
// imported with -load into a fresh directory, never opened in place.
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
// shards is one record on the lowest one's segment, written while it
// holds every participant's lock. The shard count is a runtime
// property: restarting with a different -shards is allowed after a
// clean shutdown (the checkpoint carries no shard layout), but a log
// must be recovered at the shard count that wrote it — a restart at a
// lower count over a non-empty segment beyond it refuses to start,
// naming that segment and the count.
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
	"worldsetdb/internal/isqld"
	"worldsetdb/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8486", "listen address")
	demo := flag.String("demo", "", "preload a demo database: flights | acquisition | census | lineitem")
	load := flag.String("load", "", "import the seed catalog from a .wsd JSON file (ignored when -wal already holds state)")
	save := flag.String("save", "", "export the catalog to a .wsd JSON file on graceful shutdown")
	walDir := flag.String("wal", "", "directory for WAL-backed durability (checkpoint.wsd + one wal-<shard>.log per shard)")
	ckptEvery := flag.Int("checkpoint-every", 256, "with -wal: checkpoint after this many logged commits (0 = only on shutdown)")
	txnRetries := flag.Int("txn-retries", 16, "automatic conflict retries per transaction (0 = surface conflicts immediately)")
	shards := flag.Int("shards", 1, "component shards: commits on disjoint shards run in parallel, each with its own WAL segment")
	poolPages := flag.Int("pool-pages", store.DefaultPoolPages, "with -wal: buffer-pool capacity in pages for the checkpoint base")
	slowQuery := flag.Duration("slow-query", 0, "log the span tree of statements slower than this as JSON lines on stderr (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on a second listener (keep it private)")
	flag.Parse()

	// Without -wal the catalog is in-memory. With it, store.Open creates
	// or recovers the durable one; existing state wins over the seed.
	var (
		cat  *store.Catalog
		wals []*store.WAL
		err  error
	)
	if *walDir == "" {
		if cat, err = newCatalog(*demo, *load); err == nil {
			cat.Reshard(*shards)
		}
	} else {
		cat, wals, err = store.Open(filepath.Join(*walDir, "checkpoint.wsd"), *walDir, *shards, *poolPages,
			func() (*store.Catalog, error) {
				log.Printf("isqld: %s holds no catalog state; seeding it (-demo/-load apply)", *walDir)
				return newCatalog(*demo, *load)
			})
	}
	if err != nil {
		log.Fatal(err)
	}
	opts := []isqld.Option{isqld.WithTxnRetries(*txnRetries)}
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
						if err := cat.Checkpoint(); err != nil {
							log.Printf("isqld: checkpoint: %v", err)
						} else {
							log.Printf("isqld: checkpointed catalog v%d, WAL truncated", cat.Snapshot().Version)
						}
					}
				}
			}
		}()
	}

	// A client that never finishes its headers, or parks a keep-alive
	// connection, must not hold a goroutine forever. No read or write
	// timeout: a script may be large and a statement may run long.
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
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
		if err := cat.Checkpoint(); err != nil {
			log.Fatalf("isqld: final checkpoint: %v", err)
		}
		for _, w := range wals {
			w.Close()
		}
		log.Printf("isqld: checkpointed to %s", *walDir)
	}
	if *save != "" {
		if err := store.SaveFile(*save, cat.Snapshot()); err != nil {
			log.Fatalf("isqld: saving catalog: %v", err)
		}
		log.Printf("isqld: catalog saved to %s", *save)
	}
}

// newCatalog builds the seed catalog: empty, a demo, or a .wsd import.
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
