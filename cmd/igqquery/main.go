// Command igqquery answers subgraph or supergraph queries from files, with
// iGQ acceleration, and reports per-query statistics — a minimal end-to-end
// driver over the public API.
//
// Usage:
//
//	igqquery -db dataset.db -queries queries.db [-method grapes] [-super]
//	         [-cache 500 -window 100] [-no-cache] [-workers N]
//	         [-save-index snap.igq] [-load-index snap.igq]
//	         [-append extra.db]
//
// With -workers != 1 the queries are served concurrently through the
// engine's batch pipeline (0 = one worker per CPU); -workers 1 replays the
// stream sequentially, which maximises the cache-hit rate on highly
// repetitive streams.
//
// -load-index restores the engine (dataset index + query cache) from a
// snapshot written by an earlier -save-index run against the same dataset,
// skipping the index build entirely; -save-index writes the snapshot after
// the queries have been served, so the accumulated cache is captured too.
//
// -append extends the dataset with the graphs of another file *after* the
// engine is ready (built or restored), through the engine's O(delta) live
// mutation path — the index is not rebuilt, and the reported append time
// shows it. The queries are then served over the extended dataset; answer
// ids refer to positions in base-then-extra order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	igq "repro"
)

func main() {
	var (
		dbPath  = flag.String("db", "", "dataset file (required)")
		qPath   = flag.String("queries", "", "query file (required)")
		method  = flag.String("method", "grapes", "method: grapes | ggsx | ctindex")
		threads = flag.Int("threads", 1, "Grapes build threads")
		bwork   = flag.Int("buildworkers", 0, "index-build goroutines (0 = one per CPU)")
		super   = flag.Bool("super", false, "supergraph queries (the containment filter over the path index)")
		cache   = flag.Int("cache", 500, "iGQ cache size C")
		window  = flag.Int("window", 100, "iGQ window size W")
		noCache = flag.Bool("no-cache", false, "disable iGQ (plain filter-then-verify)")
		workers = flag.Int("workers", 1, "query-serving goroutines (0 = one per CPU, 1 = sequential)")
		saveIdx = flag.String("save-index", "", "write an engine snapshot (index + cache) to this file after serving")
		loadIdx = flag.String("load-index", "", "restore the engine from a snapshot instead of building the index")
		appendF = flag.String("append", "", "append this file's graphs to the dataset via live O(delta) mutation before serving")
		quiet   = flag.Bool("quiet", false, "suppress per-query lines")
	)
	flag.Parse()
	if *dbPath == "" || *qPath == "" {
		fmt.Fprintln(os.Stderr, "igqquery: -db and -queries are required")
		os.Exit(1)
	}
	db, err := igq.LoadGraphs(*dbPath)
	if err != nil {
		fatal("loading dataset: %v", err)
	}
	queries, err := igq.LoadGraphs(*qPath)
	if err != nil {
		fatal("loading queries: %v", err)
	}

	opt := igq.EngineOptions{
		Threads:      *threads,
		Supergraph:   *super,
		CacheSize:    *cache,
		Window:       *window,
		DisableCache: *noCache,
		BuildWorkers: *bwork,
	}
	switch strings.ToLower(*method) {
	case "grapes":
		opt.Method = igq.Grapes
	case "ggsx":
		opt.Method = igq.GGSX
	case "ctindex":
		opt.Method = igq.CTIndex
	default:
		fatal("unknown method %q", *method)
	}

	// Pre-flight the snapshot destination before serving a potentially long
	// workload: an unwritable path or a method without index persistence
	// should fail in milliseconds, not after the last query. The probe must
	// not truncate an existing snapshot (the previous good one has to
	// survive until the new bytes are complete), so it tests writability
	// with a sibling temp file, never the target itself.
	if *saveIdx != "" {
		switch strings.ToLower(*method) {
		case "grapes", "ggsx":
		default:
			fatal("-save-index requires a persistable method (grapes or ggsx), not %s", *method)
		}
		if err := probeWritable(*saveIdx); err != nil {
			fatal("index snapshot destination: %v", err)
		}
	}

	t0 := time.Now()
	var eng *igq.Engine
	if *loadIdx != "" {
		var rep igq.LoadReport
		eng, rep, err = igq.LoadEngineFile(*loadIdx, db, opt)
		if err != nil {
			fatal("loading index snapshot: %v", err)
		}
		if rec := rep.RecoveredTail; rec != nil {
			fmt.Printf("snapshot had a torn journal tail (crash mid-append?): dropped %d bytes / %d uncommitted ops; repaired=%v\n",
				rec.DiscardedBytes, rec.DroppedOps, rep.Repaired)
		}
		fmt.Printf("restored %s engine over %d graphs from %s in %v (no rebuild)\n",
			eng.MethodName(), len(db), *loadIdx, time.Since(t0))
	} else {
		eng, err = igq.NewEngine(db, opt)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("indexed %d graphs with %s in %v\n", len(db), eng.MethodName(), time.Since(t0))
	}

	ctx := context.Background()

	if *appendF != "" {
		extra, err := igq.LoadGraphs(*appendF)
		if err != nil {
			fatal("loading append graphs: %v", err)
		}
		t := time.Now()
		if err := eng.AddGraphs(ctx, extra); err != nil {
			fatal("appending graphs: %v", err)
		}
		fmt.Printf("appended %d graphs in %v (dataset now %d graphs; no rebuild)\n",
			len(extra), time.Since(t), len(eng.Dataset()))
	}

	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}

	t1 := time.Now()
	var results []igq.BatchResult
	if nWorkers == 1 {
		results = make([]igq.BatchResult, len(queries))
		for i, q := range queries {
			res, err := eng.Query(ctx, q)
			results[i] = igq.BatchResult{Index: i, Result: res, Err: err}
		}
	} else {
		fmt.Printf("serving with %d workers\n", nWorkers)
		results = eng.QueryBatchCtx(ctx, queries, nWorkers)
	}
	elapsed := time.Since(t1)

	totalMatches := 0
	for i, r := range results {
		if r.Err != nil {
			fatal("query %d: %v", i, r.Err)
		}
		totalMatches += len(r.Result.IDs)
		if !*quiet {
			q := queries[i]
			fmt.Printf("q%-4d |V|=%-3d |E|=%-3d matches=%-4d isoTests=%-4d cand=%d->%d cacheHit=%v\n",
				i, q.NumVertices(), q.NumEdges(), len(r.Result.IDs),
				r.Result.Stats.DatasetIsoTests, r.Result.Stats.BaseCandidates,
				r.Result.Stats.FinalCandidates, r.Result.Stats.AnsweredByCache)
		}
	}
	st := eng.Stats()
	fmt.Printf("\n%d queries in %v (%.2f ms/query aggregate)\n",
		len(queries), elapsed, float64(elapsed.Milliseconds())/float64(max(1, len(queries))))
	fmt.Printf("total matches: %d, dataset iso tests: %d, cache iso tests: %d\n",
		totalMatches, st.DatasetIsoTests, st.CacheIsoTests)
	fmt.Printf("cache short-circuits: %d, sub/super hits: %d/%d, cached queries: %d, flushes: %d\n",
		st.AnsweredByCache, st.SubHits, st.SuperHits, st.CachedQueries, st.Flushes)

	if *saveIdx != "" {
		// Atomic save: the bytes land in a temp file and replace the target
		// with a rename only once complete, so a crash mid-save (or a failed
		// serve above) never destroys a previous good snapshot.
		t2 := time.Now()
		if err := igq.SaveEngineFile(*saveIdx, eng); err != nil {
			fatal("saving index snapshot: %v", err)
		}
		var size int64
		if fi, err := os.Stat(*saveIdx); err == nil {
			size = fi.Size()
		}
		fmt.Printf("saved engine snapshot (index + cache) to %s (%d bytes) in %v\n",
			*saveIdx, size, time.Since(t2))
	}
}

// probeWritable verifies path's directory accepts new files without
// touching path itself.
func probeWritable(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".igqquery-probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "igqquery: "+format+"\n", args...)
	os.Exit(1)
}
