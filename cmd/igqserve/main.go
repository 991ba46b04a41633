// Command igqserve hosts an iGQ engine behind the HTTP/JSON serving
// front-end: bounded-admission queries, NDJSON streaming, live dataset
// mutation, Prometheus-style metrics, and graceful drain with a shutdown
// snapshot.
//
// Usage:
//
//	igqserve -db dataset.db [-addr :7468] [-method grapes] [-super]
//	         [-partitions N] [-cache 500 -window 100] [-workers N -queue N]
//	         [-snapshot engine.snap] [-lazy [-lazy-budget BYTES]]
//	         [-delta index.idx -maintain-every 30s]
//	         [-timeout 10s -max-timeout 1m]
//
// The serving surface (see internal/server):
//
//	POST /query         one query; 429 when the admission queue is full
//	POST /query/stream  NDJSON in, NDJSON out, bounded by execution slots
//	POST /graphs/add    append graphs (JSON), O(delta) index maintenance
//	POST /graphs/remove remove graphs by graph ID
//	GET  /stats         serving + engine counters (JSON)
//	GET  /metrics       the same counters, Prometheus text format
//	POST /save          write the engine snapshot now
//	GET  /healthz       liveness
//
// Answers are global graph IDs, sorted ascending; for a dataset igqgen
// wrote they equal dataset positions until the first mutation. Added graphs
// must carry IDs unique in the dataset.
//
// If -snapshot names an existing file the engine is restored from it
// (index and query cache, no rebuild); otherwise the index is built and
// the path is used for the shutdown snapshot. Start-up uses every core
// (GOMAXPROCS): the path index builds on one worker per CPU, and an eager
// restore decodes the snapshot's segments in parallel; the index and its
// snapshot bytes are the same at any width. SIGINT/SIGTERM trigger a
// graceful shutdown: in-flight queries drain, then the snapshot is
// written atomically.
//
// The port binds before the engine exists: until warm-up completes, GET
// /healthz answers 200 "warming" and everything else answers 503 with
// Retry-After — never connection-refused. -lazy maps the snapshot instead
// of decoding it, which shrinks that warming window to the metadata read
// and lets the process serve an index bigger than RAM. Posting lists are
// what is paged: each is decoded when a query first probes it, and
// -lazy-budget caps the decoded lists kept resident (lists no query has
// probed lately are dropped first and re-decoded on demand). The feature
// dictionary and a per-segment offset directory — built, with the
// segment's one CRC check, on the segment's first probe — are pinned
// outside the budget. In /stats and /metrics the shard-named fields are
// segment-granular: resident_shards counts open segment directories,
// total_shards the snapshot's segments, resident_bytes the decoded lists,
// shard_faults posting-list decodes and shard_evictions lists evicted.
//
// -super also serves supergraph queries (mode=super) from the same engine:
// the paper's containment filter (Algorithm 2) reads the one path index,
// and a second query cache serves that direction. Every mutation maintains
// both in one O(delta) step. It needs a path index (grapes or ggsx).
//
// -partitions N shards the dataset across N in-process partitions routed
// by a stable hash of each graph's ID: queries scatter-gather, mutations
// touch only the owning partition, and for N > 1 -snapshot/-delta become
// per-partition lineage bases (snap.p0, snap.p1, ...). If every partition
// file exists the group is restored from them, lazily with -lazy; each
// partition then gets an equal share of -lazy-budget.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	igq "repro"
	"repro/internal/partition"
	"repro/internal/server"
)

func main() {
	var (
		dbPath    = flag.String("db", "", "dataset file (required)")
		addr      = flag.String("addr", ":7468", "listen address")
		method    = flag.String("method", "grapes", "method: grapes | ggsx | ctindex")
		super     = flag.Bool("super", false, "also serve supergraph queries (mode=super) from the same index")
		parts     = flag.Int("partitions", 1, "shard the dataset across N in-process partitions (scatter-gather serving)")
		cache     = flag.Int("cache", 500, "iGQ cache size C")
		window    = flag.Int("window", 100, "iGQ window size W")
		workers   = flag.Int("workers", 0, "execution slots (0 = one per CPU)")
		queue     = flag.Int("queue", 0, "admission slots beyond workers (0 = 4x workers)")
		snapshot  = flag.String("snapshot", "", "engine snapshot path: restored at start if present, written on shutdown")
		lazy      = flag.Bool("lazy", false, "map the snapshot lazily: serve once metadata is read, decode each posting list when a query first probes it (dictionary and per-segment offset directories stay pinned; a segment's CRC is checked once, on its first probe)")
		lazyBudg  = flag.Int64("lazy-budget", 0, "budget in bytes on the decoded posting lists -lazy keeps resident, pinned parts excluded (0 = unbounded)")
		delta     = flag.String("delta", "", "index delta-journal lineage file for mutation persistence")
		maintain  = flag.Duration("maintain-every", 30*time.Second, "journal maintenance interval (needs -delta)")
		timeout   = flag.Duration("timeout", 10*time.Second, "default per-query deadline (0 = none)")
		maxTO     = flag.Duration("max-timeout", time.Minute, "cap on client-requested deadlines")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
		quietLoad = flag.Bool("quiet", false, "suppress startup detail")
	)
	flag.Parse()
	if *dbPath == "" {
		fatal("igqserve: -db is required")
	}
	if *parts < 1 {
		fatal("igqserve: -partitions must be at least 1")
	}

	opt := igq.EngineOptions{CacheSize: *cache, Window: *window}
	switch strings.ToLower(*method) {
	case "grapes":
		opt.Method = igq.Grapes
	case "ggsx":
		opt.Method = igq.GGSX
	case "ctindex":
		opt.Method = igq.CTIndex
	default:
		fatal("igqserve: unknown method %q", *method)
	}
	if *super && opt.Method == igq.CTIndex {
		fatal("igqserve: -super needs a path index (-method grapes or ggsx)")
	}

	// Bind before any engine work: from here on a probe sees "warming"
	// (200 on /healthz, 503 elsewhere), never connection-refused. The
	// warming window is the engine load below — with -lazy, just its
	// metadata phase.
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("igqserve: %v", err)
	}
	warm := server.NewWarming()
	hs := &http.Server{Handler: warm}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()
	if !*quietLoad {
		log.Printf("listening on %s (warming)", l.Addr())
	}

	db, err := igq.LoadGraphs(*dbPath)
	if err != nil {
		fatal("igqserve: loading dataset: %v", err)
	}

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
		SnapshotPath:   *snapshot,
		DeltaPath:      *delta,
		MaintainEvery:  *maintain,
		Logf:           log.Printf,
	}

	popt := partition.Options{Partitions: *parts, Engine: opt, Super: *super}
	t0 := time.Now()
	if partition.HaveAllParts(*snapshot, *parts) {
		var lopts []igq.EngineLoadOption
		if *lazy {
			budget := *lazyBudg / int64(*parts) // -lazy-budget bounds the whole process
			if *lazyBudg > 0 {
				budget = max(budget, 1)
			}
			lopts = append(lopts, igq.WithLazyLoad(budget))
		}
		grp, reps, err := partition.LoadGroup(*snapshot, db, popt, lopts...)
		if err != nil {
			fatal("igqserve: restoring snapshot: %v", err)
		}
		for i, rep := range reps {
			if rec := rep.RecoveredTail; rec != nil {
				log.Printf("partition %d snapshot had a torn journal tail: dropped %d bytes / %d ops; repaired=%v",
					i, rec.DiscardedBytes, rec.DroppedOps, rep.Repaired)
			}
		}
		cfg.Group = grp
		if !*quietLoad {
			st, _ := grp.Stats(partition.Sub)
			log.Printf("restored %d graphs across %d partition(s) from %s in %v (super=%v lazy=%v: %d segments on demand, budget %d bytes)",
				grp.NumGraphs(), *parts, *snapshot, time.Since(t0), *super, st.LazyLoaded, st.TotalShards, st.LazyBudgetBytes)
		}
	} else {
		if *lazy && !*quietLoad {
			log.Printf("-lazy has no effect: no snapshot to map (building the index)")
		}
		grp, err := partition.New(db, popt)
		if err != nil {
			fatal("igqserve: %v", err)
		}
		cfg.Group = grp
		if !*quietLoad {
			log.Printf("indexed %d graphs across %d partition(s) in %v (super=%v)", len(db), *parts, time.Since(t0), *super)
		}
	}

	s, err := server.New(cfg)
	if err != nil {
		fatal("igqserve: %v", err)
	}
	warm.Ready(s.Handler())
	s.StartBackground()
	if !*quietLoad {
		workers, queue := s.Slots()
		log.Printf("ready on %s (workers=%d queue=%d)", l.Addr(), workers, queue)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case got := <-sig:
		log.Printf("%s: draining (budget %v)", got, *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		// Drain the outer listener first (it owns the connections), then
		// the server's persistence steps (journal maintenance + snapshot).
		if err := hs.Shutdown(ctx); err != nil {
			fatal("igqserve: shutdown: %v", err)
		}
		if err := s.Shutdown(ctx); err != nil {
			fatal("igqserve: shutdown: %v", err)
		}
		if *snapshot != "" {
			log.Printf("drained; snapshot written to %s", *snapshot)
		} else {
			log.Printf("drained")
		}
	case err := <-serveErr:
		fatal("igqserve: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
