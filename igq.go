// Package igq is the public API of the iGQ reproduction — "Indexing Query
// Graphs to Speedup Graph Query Processing" (Wang, Ntarmos, Triantafillou,
// EDBT 2016).
//
// iGQ accelerates subgraph and supergraph query processing over a database
// of labeled graphs by caching previously executed query graphs together
// with their answers, and exploiting subgraph/supergraph relationships
// between new and cached queries to skip (or entirely avoid) subgraph
// isomorphism tests. It wraps any filter-then-verify method; this module
// ships three faithful reimplementations of the paper's baselines
// (GraphGrepSX, Grapes, CT-Index) plus the paper's own containment filter
// for supergraph queries (Algorithms 1–2), which reads the same path index
// GraphGrepSX and Grapes keep: an engine over a path index answers both
// directions from that one index, with one query cache per direction
// (EngineOptions.Supergraph picks the default, InMode the other).
//
// Quick start:
//
//	db, _ := igq.LoadGraphs("dataset.db") // or igq.GenerateDataset(spec)
//	eng, _ := igq.NewEngine(db, igq.EngineOptions{Method: igq.Grapes})
//	res, _ := eng.Query(ctx, pattern)     // which graphs contain pattern?
//	fmt.Println(len(res.Matches), res.Stats.DatasetIsoTests)
//
// The package re-exports the graph type and generators so downstream users
// never import internal packages.
//
// # Concurrency model
//
// An Engine is safe for concurrent use: any number of goroutines may call
// Query, QueryStream, QueryBatchCtx, Stats, CacheLen, IndexSizeBytes and
// Save on one Engine at the same time. Concurrent serving is the default,
// not a mode.
//
//   - The answer path is lookup-only. Each query runs against an immutable
//     cache snapshot (swapped in atomically by window flushes) and the
//     dataset index's concurrent-reader-safe Filter/Verify (see
//     internal/index.Method). Readers never block readers.
//   - Per-query cache bookkeeping (hit credit, window admission) is
//     buffered during the query and applied under a short mutex at the end
//     of the call. The only full serialization point for writers is a
//     window flush — once every EngineOptions.Window admissions — which is
//     the paper's §5.2 shadow index: the query that fills the window builds
//     the next cache-side index beside the served one and installs it with
//     a pointer swap, while every other query keeps reading the old one.
//   - Save encodes the cache under that same mutex, so a snapshot taken
//     mid-stream is consistent: it excludes in-flight admissions and
//     reflects the latest completed flush.
//   - Under concurrency the cache-hit *rate* may differ from a sequential
//     run of the same stream (two in-flight copies of a novel query cannot
//     serve each other), but answers never do: every answer equals what the
//     wrapped method alone would produce (paper Theorems 1 and 2).
//
// # Persistence
//
// Everything an engine earns — the dataset index built by enumeration and
// the query cache accumulated by serving — can survive restarts. The two
// snapshots have different lifetimes and guards:
//
//   - The *index* snapshot (SaveIndex/LoadIndex, or the index half of
//     Save/LoadEngineFile) captures the method's dataset index: the trie's
//     segments plus the feature dictionary. It is invalidated only by a
//     change to the dataset — any edit, addition, removal or reorder flips
//     the embedded checksum and the load fails rather than answer with
//     wrong positions. GGSX and Grapes support it; a loaded index answers
//     byte-identically to a freshly built one, turning cold start from
//     O(dataset re-enumeration) into O(read).
//   - The *cache* snapshot (the cache half of Save/LoadEngineFile)
//     captures the iGQ query cache: cached query graphs, answer sets and
//     replacement metadata. It is guarded by the same
//     dataset checksum, and additionally becomes stale (not wrong) as the
//     workload drifts — it is knowledge about queries, not about the
//     dataset, and its indexes are rebuilt on load.
//
// Engine.Save writes both in one envelope; LoadEngineFile (LoadEngineReport
// over a stream) restores it without ever enumerating the dataset. Save
// flushes any pending window admissions into the cache first, so queries
// served since the last flush are knowledge the snapshot keeps, not work
// the restart repeats. The cmd/igqquery and cmd/igqbench tools expose this
// as -save-index/-load-index, and the "coldstart" experiment measures
// load-vs-rebuild wall-clock.
//
// # Posting containers
//
// Inside both snapshot families every feature's posting list is stored in
// a cardinality-adaptive container: sparse features as sorted arrays,
// dense features as 64-bit bitmap words, clustered id ranges as run
// intervals. The encoding is a pure function of the member set — chosen at
// build time, re-chosen when a mutation moves a feature across a density
// threshold — and the intersection pipeline exploits it: bitmap∧bitmap
// steps collapse to word-wise ANDs, sparse partials probe dense containers
// by membership without materialising them, and array pairs keep the
// merge-vs-gallop choice, driven by a probe-cost constant calibrated per
// dataset at build time. Index snapshots (format v3) persist the
// containers directly, so dense features cost ~1 bit per graph on disk;
// v1/v2 snapshots still load by promoting their flat arrays on decode and
// gain the compact encodings on the first re-save. The "containers"
// experiment (cmd/igqbench) reproduces and gates the win — ≥2× smaller
// dense snapshots, ≥3× faster dense intersections vs the flat-array
// baseline.
//
// # Dynamic datasets
//
// The dataset is not frozen at construction: AddGraphs appends graphs to a
// serving engine and RemoveGraphs deletes them (swap-removal: the last
// graph fills the vacated position, so surviving graphs may move —
// Dataset() is the authority on current positions). Both are O(delta), not
// O(dataset): the index inserts or scrubs only the affected graphs'
// features, and every cached answer is patched (extended with matching new
// graphs, or rewritten through the removal's position mapping) so cached
// knowledge stays exact — answers over the mutated dataset still equal
// what the wrapped method alone would produce.
//
// Mutations are safe alongside concurrent queries. Each mutation builds
// the next dataset/index/cache generation copy-on-write and installs it
// with pointer swaps — the same snapshot discipline window flushes use —
// so an in-flight query runs start to finish against one consistent
// generation, and a query racing a mutation simply answers for the state
// just before or just after it (its answer is never admitted to the cache
// across the boundary).
//
// Persistence is O(delta) too: AppendIndexDelta appends the mutations
// since the last SaveIndex (or previous delta append) to the snapshot file
// as a CRC-guarded journal, instead of rewriting the whole index; once
// accumulated journals outgrow the base, the file is compacted back into a
// fresh full snapshot automatically. LoadIndex/LoadEngineFile replay journals
// transparently, and the dataset checksum guard follows the mutations: a
// journaled snapshot loads only against the exact post-mutation dataset
// (ErrDatasetMismatch otherwise). cmd/igqquery exposes live mutation as
// -append, and the "incremental" experiment gates append + delta-save
// beating rebuild + full save by ≥5× at bench scale.
//
// # Durability and crash safety
//
// The persistence layer assumes the process can die at any byte of any
// write, and is built so no crash ever costs more than the operation that
// was in flight:
//
//   - Snapshot files are written atomically. SaveEngineFile and
//     SaveIndexFile stage the bytes in a temp file in the destination's
//     directory, fsync, rename over the target and fsync the directory —
//     a crash at any point leaves either the old snapshot or the new one,
//     never a torn file (internal/persistio.AtomicWriteFile).
//   - Delta appends commit on their trailing terminator byte and are
//     fsynced before AppendIndexDelta returns. A crash mid-append leaves
//     the previous snapshot plus a torn trailing journal; loads self-heal
//     it by dropping the uncommitted tail — the loaded state is exactly
//     pre-append or post-append, never in between — and report the salvage
//     in LoadReport.RecoveredTail. Corruption anywhere *before* the tail
//     is damage, not a crash signature, and still fails the load.
//     LoadEngineFile additionally rewrites a recovered file as a clean
//     snapshot (LoadReport.Repaired), so the next start loads cleanly.
//   - Journal compaction is workload-adaptive and crash-safe: journals
//     fold into a fresh base when their replay-weighted size outgrows the
//     base, with removal-heavy journals compacting earlier (removals
//     replay several times heavier than appends), and the rewrite goes
//     through the same atomic temp+rename path when the file supports it.
//   - Serving is panic-isolated: a panic in a method's filter/verify hot
//     path is contained to the query that hit it (returned as a
//     *PanicError, counted in EngineStats.Panics); concurrent queries,
//     mutations and saves are unaffected.
//
// These guarantees are enforced by byte-granularity fault injection in CI:
// every persistence operation is killed at every byte boundary and the
// reload differentially compared against pre- and post-op oracles.
//
// # Serving indexes bigger than RAM
//
// An eager load decodes every posting segment before the first query can
// run — time-to-first-query is O(index) and peak memory is the whole
// index. LoadEngineFile(..., WithLazyLoad(budget)) changes the shape of
// both: the snapshot file is mapped (mmap where the platform has it, pread
// otherwise) and only the cheap metadata is decoded up front — header,
// feature dictionary, the table of where each segment lies, and a
// full scan of any delta-journal tail (torn tails recover exactly as in an
// eager load).
//
// What is paged is the posting list. The first query to probe a segment
// reads that segment once, verifies its CRC — then and only then —
// and scans it into an offset directory (12 bytes per dictionary entry,
// slot and offset together); after that a probe decodes exactly the list
// it asks for, from that list's byte span, and keeps it in a slot where
// the next probe finds it with one atomic load. What is pinned, outside
// the budget, is the dictionary, those directories, and the replayed
// journal overlay of a segment that had one. budget bounds the decoded lists:
// once over it, lists no query has probed since the evictor's last pass
// are dropped and re-decoded when next probed, so a budget costs the cold
// tail of the feature distribution, not every query, and the engine serves
// snapshots larger than memory.
//
// Laziness is observationally invisible: answers, statistics and re-saved
// bytes are identical to an eager load's — only latency and residency
// move. The differences that do show: the snapshot file must stay intact
// behind the engine (Engine.Close releases it), mutations force full
// materialisation before applying, and corruption confined to
// one snapshot segment surfaces on that segment's first probe — as a
// contained *PanicError carrying trie.ErrCorrupt on the queries routed to
// it — instead of failing the load, leaving every other segment serving; a
// read error on a later posting decode is contained the same way and
// retried on the next probe. Engine.Stats and Engine.Residency expose the
// moving parts: ResidentShards counts segments whose directory is open,
// ResidentBytes the decoded lists, ShardFaults posting-list decodes
// (re-decodes included) and ShardEvictions lists evicted. The "lazyload"
// experiment gates the time-to-first-query win, the budget ceiling and the
// cost of serving under half the working set.
//
// # Serving
//
// The streaming primitive is Engine.QueryStream: feed query graphs on a
// channel, receive BatchResults on another, with a bounded worker pool in
// between — close the input and drain the output, and backpressure
// propagates to the producer through the channel. QueryBatchCtx is a thin
// wrapper that feeds a slice through the same pipeline, so batch and
// stream answers are identical by construction;
// StreamQueries is that pool for any query function, and a partition
// group streams through it.
//
// internal/server (binaries cmd/igqserve and cmd/igqload) puts that
// pipeline on the network as an HTTP/JSON API: unary queries with bounded
// admission (a full queue answers 429 immediately — the server never
// queues unboundedly), NDJSON streaming where each in-flight query holds a
// physical execution slot (a producer that outruns the server blocks in
// TCP, not in memory), per-request deadlines mapped onto context
// cancellation (an expired query aborts mid-verification and leaves no
// trace in the cache), live dataset mutation with O(delta) journal
// persistence and timer-driven compaction, Prometheus-style /metrics over
// EngineStats, and graceful drain: SIGTERM finishes in-flight queries,
// then writes the engine snapshot atomically, so the next start resumes
// with everything the process learned. The serving path inherits the
// engine's panic isolation — a query that panics its method answers 500
// while the server keeps serving. The "serving" experiment and CI job gate
// the whole lifecycle, including answer identity against cache-free
// oracles and snapshot restoration after drain.
//
// EngineOptions.WrapMethod is the instrumentation seam the serving tests
// lean on: it intercepts the built index method so tests can inject
// latency or faults without touching internal packages.
//
// # Partitioned serving
//
// internal/partition shards one dataset across N in-process engines (each
// answering both query directions from its one index) behind an
// Engine-shaped surface: each graph is routed to a partition by
// a stable hash of its ID, queries scatter to every partition with bounded
// fan-out and gather into one merged result, and mutations touch only the
// owning partition. Because sub- and super-answers are plain sets of
// matching dataset graphs, the merge is a union keyed by global graph ID —
// partition.Group answers are required (and gated, by the "partition"
// experiment and the partitioned-server tests) to be identical to a single
// engine over the undivided dataset at every partition count; only the
// positions-vs-IDs addressing and the per-partition cache/credit locality
// are observable. Persistence reuses the engine machinery per partition
// (one snapshot + delta lineage each, base.p0, base.p1, ...), and
// igqserve -partitions N serves a group over the wire with per-partition
// /metrics gauges.
package igq

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/contain"
	"repro/internal/index/ctindex"
	"repro/internal/index/ggsx"
	"repro/internal/index/grapes"
	"repro/internal/iso"
	"repro/internal/persistio"
	"repro/internal/trie"
	"repro/internal/workload"
)

// Graph is a labeled undirected graph (vertices carry integer labels).
type Graph = graph.Graph

// Label is a vertex label.
type Label = graph.Label

// NewGraph returns an empty graph with capacity for n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// LoadGraphs reads all graphs from a file.
func LoadGraphs(path string) ([]*Graph, error) { return graph.LoadFile(path) }

// SaveGraphs writes all graphs to a file.
func SaveGraphs(path string, gs []*Graph) error { return graph.SaveFile(path, gs) }

// IsSubgraph reports whether pattern ⊆ target (labeled subgraph
// isomorphism).
func IsSubgraph(pattern, target *Graph) bool { return iso.Subgraph(pattern, target) }

// MethodKind selects the underlying filter-then-verify method.
type MethodKind int

const (
	// Grapes: the parallel path index (paper's strongest baseline; the
	// default). It stores GGSX's postings and answers like GGSX.
	Grapes MethodKind = iota
	// GGSX: GraphGrepSX path-trie index.
	GGSX
	// CTIndex: tree/cycle fingerprint index. It answers subgraph queries
	// only.
	CTIndex
)

// String names the method as in the paper.
func (m MethodKind) String() string {
	switch m {
	case Grapes:
		return "Grapes"
	case GGSX:
		return "GGSX"
	case CTIndex:
		return "CT-Index"
	default:
		return "unknown"
	}
}

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Method picks the dataset index (default Grapes).
	Method MethodKind
	// Threads is Grapes' thread count (paper: 1 or 6): it names the method
	// ("Grapes(6)"), and a dataset with too few graphs for the build
	// workers has each graph's start vertices split over Threads
	// goroutines. It never changes the index.
	Threads int
	// MaxPathLen is the path feature length for path-based indexes and the
	// iGQ query indexes (default 4).
	MaxPathLen int
	// Supergraph makes supergraph semantics ("which dataset graphs are
	// contained in the query") the engine's default: Query answers that way
	// unless a call asks otherwise (InMode). Every engine over a path index
	// (GGSX, Grapes) answers both directions from its one index, each with
	// a query cache of its own; the supergraph read is the paper's
	// containment method (Algorithms 1–2).
	Supergraph bool
	// CacheSize / Window are iGQ's C and W (defaults 500 / 100).
	CacheSize int
	Window    int
	// DisableCache turns iGQ off entirely (plain filter-then-verify).
	DisableCache bool
	// Shards is the segment count of the path methods' saved index
	// snapshots (rounded up to a power of two, capped at 64): eager loads
	// decode the segments in parallel and lazy loads open them one at a
	// time. 0 keeps the count of the snapshot the engine was loaded from,
	// else picks one per CPU. It never changes the index in memory or any
	// answer.
	Shards int
	// BuildWorkers is the path methods' build and eager-restore
	// parallelism: feature enumeration and snapshot decoding run on this
	// many goroutines; 0 means one per CPU (runtime.GOMAXPROCS). The index
	// is byte-identical at any width: its snapshot bytes equal a one-worker
	// build's.
	BuildWorkers int
	// WrapMethod, when non-nil, wraps the freshly built dataset index
	// before the engine starts using it — an instrumentation seam
	// (latency probes, fault injection in serving tests). The argument and
	// the return value are the engine's internal method interface; the
	// wrapper must embed or delegate to the original so the optional
	// capabilities it relies on (mutation, persistence) stay visible, and
	// a return value that is not a method index fails NewEngine. Only
	// NewEngine consults it; engines restored from a snapshot are unwrapped.
	// Subgraph queries go through the wrapper; supergraph queries read the
	// index it wraps.
	WrapMethod func(m any) any
}

// Mode is a query's direction.
type Mode = core.Mode

const (
	// SubgraphQueries answers which dataset graphs contain the query.
	SubgraphQueries = core.SubgraphQueries
	// SupergraphQueries answers which dataset graphs the query contains.
	SupergraphQueries = core.SupergraphQueries
)

// mode is the engine's default query direction.
func (opt EngineOptions) mode() Mode {
	if opt.Supergraph {
		return SupergraphQueries
	}
	return SubgraphQueries
}

// Engine answers graph queries over a dataset, accelerated by iGQ. Safe
// for concurrent use — including live dataset mutation via AddGraphs and
// RemoveGraphs; see the package comment for the concurrency model.
type Engine struct {
	// view is the serving generation: the dataset and the method index
	// answering over it, swapped together so every query sees a consistent
	// pair. Dataset mutations install new generations; everything that
	// reads the dataset or the method loads one view first.
	view atomic.Pointer[engineView]
	opt  EngineOptions // resolved construction options (persistence reuse)

	// mutMu serialises generation changes — AddGraphs, RemoveGraphs,
	// LoadIndex and the persistence lineage calls — against each other and
	// against the creation of a direction's cache. Queries take it only to
	// create the non-default direction's cache, on that direction's first
	// query.
	mutMu sync.Mutex

	// lazySrc is the snapshot mapping backing a lazily loaded index (nil
	// otherwise); guarded by mutMu, released by Close.
	lazySrc io.Closer

	// modes holds each query direction's cache and counters, indexed by
	// Mode. Both directions read the one dataset index of the view.
	modes [2]modeState
}

// modeState is one query direction of an engine.
type modeState struct {
	// ig is the direction's cache, stored once when it is made or
	// restored and read atomically. A nil pointer means the cache is
	// disabled, the index cannot answer the direction, or the direction
	// has not been queried yet (Engine.cache).
	ig atomic.Pointer[core.IGQ]

	// Engine-lifetime aggregate counters (Stats).
	nQueries    atomic.Int64
	nCacheShort atomic.Int64
	nDatasetIso atomic.Int64
	nCacheIso   atomic.Int64
	nSubHits    atomic.Int64
	nSuperHits  atomic.Int64
	nPanics     atomic.Int64
}

// Result is the outcome of one query.
type Result struct {
	// Matches holds the answer: for subgraph queries, the dataset graphs
	// containing the query; for supergraph queries, those contained in it.
	Matches []*Graph
	// IDs are the dataset positions of Matches.
	IDs []int32
	// Stats carries the iGQ processing counters (zero-valued when the
	// cache is disabled).
	Stats QueryStats
}

// QueryStats summarises one query's processing effort.
type QueryStats struct {
	BaseCandidates  int  // method M's candidate-set size
	FinalCandidates int  // candidates left after iGQ pruning
	DatasetIsoTests int  // isomorphism tests against dataset graphs
	CacheIsoTests   int  // tests against cached query graphs
	SubHits         int  // cached supergraph-of-query hits
	SuperHits       int  // cached subgraph-of-query hits
	AnsweredByCache bool // short-circuited via §4.3 optimal cases
}

// EngineStats is an aggregate snapshot of an engine's lifetime activity,
// maintained with atomic counters so it can be sampled at any time while
// queries are in flight (an Engine.Stats monitoring endpoint costs nothing
// on the query path).
type EngineStats struct {
	Queries         int64 // queries served (all entry points)
	AnsweredByCache int64 // queries short-circuited by the §4.3 optimal cases
	DatasetIsoTests int64 // isomorphism tests against dataset graphs
	CacheIsoTests   int64 // isomorphism tests against cached query graphs
	SubHits         int64 // cached supergraph-of-query hits across all queries
	SuperHits       int64 // cached subgraph-of-query hits across all queries
	Panics          int64 // query panics contained by Query and returned as a PanicError
	CachedQueries   int   // current committed cache population
	WindowPending   int   // admissions awaiting the next flush
	Flushes         int   // window flushes (cache-index rebuilds) so far
	MemoRenewals    int64 // dataset filters run by identical hits to renew their base memo, by the current cache

	// Residency of a lazily loaded dataset index (see WithLazyLoad); all
	// zero for eagerly loaded or freshly built engines.
	// The unit of residency is the posting list; the shard-named counters
	// keep their names (and /stats keys, and metric names) and count the
	// snapshot's segments.
	LazyLoaded      bool  // serving from a lazy snapshot, not yet materialised
	TotalShards     int   // segments in the dataset index snapshot
	ResidentShards  int   // segments whose offset directory is open (pinned once open)
	ResidentBytes   int64 // decoded posting lists currently resident
	LazyBudgetBytes int64 // configured budget on ResidentBytes (0 = unbounded)
	ShardFaults     int64 // posting-list decodes since load (re-decodes after eviction included)
	ShardEvictions  int64 // posting lists evicted under the budget
}

// newMethod constructs the (unbuilt) dataset index selected by opt, which
// must already be normalized.
func newMethod(opt EngineOptions) (index.Method, error) {
	switch opt.Method {
	case Grapes:
		return grapes.New(grapes.Options{
			MaxPathLen:   opt.MaxPathLen,
			Threads:      opt.Threads,
			Shards:       opt.Shards,
			BuildWorkers: opt.BuildWorkers,
		}), nil
	case GGSX:
		return ggsx.New(ggsx.Options{
			MaxPathLen:   opt.MaxPathLen,
			Shards:       opt.Shards,
			BuildWorkers: opt.BuildWorkers,
		}), nil
	case CTIndex:
		return ctindex.New(ctindex.DefaultOptions()), nil
	default:
		return nil, fmt.Errorf("igq: unknown method %v", opt.Method)
	}
}

// normalized fills option defaults.
func (opt EngineOptions) normalized() EngineOptions {
	if opt.MaxPathLen <= 0 {
		opt.MaxPathLen = 4
	}
	return opt
}

// coreOptions maps the engine options onto the iGQ core configuration of
// mode's cache.
func (e *Engine) coreOptions(mode Mode) core.Options {
	return core.Options{
		CacheSize:  e.opt.CacheSize,
		Window:     e.opt.Window,
		MaxPathLen: e.opt.MaxPathLen,
		Mode:       mode,
	}
}

// NewEngine indexes db and returns a ready engine.
func NewEngine(db []*Graph, opt EngineOptions) (*Engine, error) {
	if len(db) == 0 {
		return nil, errors.New("igq: empty dataset")
	}
	opt = opt.normalized()
	m, err := newMethod(opt)
	if err != nil {
		return nil, err
	}
	m.Build(db)
	v := newView(db, m)
	if v.method(opt.mode()) == nil {
		return nil, noSupergraph(m)
	}
	if opt.WrapMethod != nil {
		wrapped, ok := opt.WrapMethod(m).(index.Method)
		if !ok {
			return nil, errors.New("igq: WrapMethod returned a non-method value")
		}
		v.m = wrapped
	}
	e := &Engine{opt: opt}
	e.view.Store(v)
	e.cacheLocked(opt.mode()) // e is not shared yet
	return e, nil
}

// cache returns the query cache serving mode, or nil when caching is
// disabled or the index does not answer mode. The default direction's
// cache exists from construction; the other direction's is made on its
// first query, under mutMu so that no mutation in flight can miss
// patching it. An engine that is only ever queried in one direction thus
// keeps one cache.
func (e *Engine) cache(mode Mode) *core.IGQ {
	if ig := e.modes[mode].ig.Load(); ig != nil || e.opt.DisableCache || e.view.Load().method(mode) == nil {
		return ig
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	return e.cacheLocked(mode)
}

// cacheLocked is cache for a caller that holds mutMu (or owns an engine
// not yet shared).
func (e *Engine) cacheLocked(mode Mode) *core.IGQ {
	ms := &e.modes[mode]
	if ig := ms.ig.Load(); ig != nil || e.opt.DisableCache {
		return ig
	}
	v := e.view.Load()
	m := v.method(mode)
	if m == nil {
		return nil
	}
	ig := core.New(m, v.db, e.coreOptions(mode))
	ms.ig.Store(ig)
	return ig
}

// Answers reports whether the engine answers mode's queries. Every engine
// answers subgraph queries; supergraph queries need a path index (GGSX or
// Grapes), whose postings the containment method reads.
func (e *Engine) Answers(mode Mode) bool { return e.view.Load().method(mode) != nil }

// engineView pairs one dataset generation with the index built over it and
// that index's supergraph read. Immutable once stored.
type engineView struct {
	db  []*Graph
	m   index.Method // the dataset index; it answers subgraph queries
	sup index.Method // its supergraph read, nil when m has none
}

// newView is the view of (db, m). A path index comes with its supergraph
// read: the containment method over the same postings.
func newView(db []*Graph, m index.Method) *engineView {
	v := &engineView{db: db, m: m}
	if x, ok := m.(*ggsx.Index); ok {
		v.sup = contain.Over(x)
	}
	return v
}

// method returns the index answering mode's queries (nil if none does).
func (v *engineView) method(mode Mode) index.Method {
	if mode == SupergraphQueries {
		return v.sup
	}
	return v.m
}

// noSupergraph is the error for a supergraph query to an index without a
// supergraph read.
func noSupergraph(m index.Method) error {
	return fmt.Errorf("igq: method %s does not answer supergraph queries", m.Name())
}

// queryConfig is the resolved per-call option set.
type queryConfig struct {
	mode    Mode
	noCache bool
	noAdmit bool
}

// InMode answers the query in mode instead of the engine's default
// direction (EngineOptions.Supergraph). Both directions read the engine's
// one dataset index; each has its own query cache and statistics
// (StatsOf).
func InMode(mode Mode) QueryOption { return func(c *queryConfig) { c.mode = mode } }

// QueryOption customises one Query call.
type QueryOption func(*queryConfig)

// WithoutCache bypasses iGQ for this call: plain filter-then-verify, no
// cache probe, no admission. Useful for measuring the cache's benefit or
// for queries known to be one-offs of no future value.
func WithoutCache() QueryOption { return func(c *queryConfig) { c.noCache = true } }

// WithoutAdmission probes the cache (the query still benefits from cached
// knowledge, and hits are still credited) but does not admit the query, so
// the call can never trigger a window flush. Useful for strictly
// latency-bounded serving paths.
func WithoutAdmission() QueryOption { return func(c *queryConfig) { c.noAdmit = true } }

// PanicError is the outcome of a query whose processing panicked — a
// malformed query graph or a misbehaving method implementation. The panic
// is contained to the one query: the engine keeps serving, concurrent
// queries and mutations are unaffected, and Stats().Panics counts the
// containment. The panic value and the goroutine stack at the panic site
// are preserved for diagnosis.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // debug.Stack() captured at recovery
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("igq: query panicked: %v", p.Value)
}

// Query answers q under the engine's configured semantics: for subgraph
// engines, the dataset graphs containing q; for supergraph engines
// (EngineOptions.Supergraph), the dataset graphs contained in q.
//
// Safe for concurrent use from any number of goroutines. ctx is checked
// before work starts and before every isomorphism test of the
// verification loop — one loop (index.VerifyCandidates) for cached and
// WithoutCache queries alike — and a cancelled query returns ctx's error,
// leaving no trace in the cache or the statistics. A panic anywhere in the
// query path — a poisoned query graph, a buggy method — is contained to
// this call and surfaced as a *PanicError instead of crashing the process.
func (e *Engine) Query(ctx context.Context, q *Graph, opts ...QueryOption) (res Result, err error) {
	cfg := queryConfig{mode: e.opt.mode()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.mode != SubgraphQueries && cfg.mode != SupergraphQueries {
		return Result{}, fmt.Errorf("igq: unknown query mode %d", cfg.mode)
	}
	ms := &e.modes[cfg.mode]
	defer func() {
		if r := recover(); r != nil {
			ms.nPanics.Add(1)
			res = Result{}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if q == nil {
		return Result{}, errors.New("igq: nil query")
	}
	if cfg.noCache {
		return e.queryPlain(ctx, q, cfg.mode)
	}
	ig := e.cache(cfg.mode)
	if ig == nil {
		return e.queryPlain(ctx, q, cfg.mode)
	}
	var o *core.Outcome
	if cfg.noAdmit {
		o, err = ig.QueryNoAdmit(ctx, q)
	} else {
		o, err = ig.QueryCtx(ctx, q)
	}
	if err != nil {
		return Result{}, err
	}
	st := QueryStats{
		BaseCandidates:  o.BaseCandidates,
		FinalCandidates: o.FinalCandidates,
		DatasetIsoTests: o.DatasetIsoTests,
		CacheIsoTests:   o.CacheIsoTests,
		SubHits:         o.SubHits,
		SuperHits:       o.SuperHits,
		AnsweredByCache: o.Short != core.NoShortCircuit,
	}
	ms.record(st)
	return resultFor(o.Dataset, o.Answer, st), nil
}

// queryPlain is the cache-free filter-then-verify path, with the same
// cooperative cancellation as the cached one.
func (e *Engine) queryPlain(ctx context.Context, q *Graph, mode Mode) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	v := e.view.Load() // one generation for the whole call
	m := v.method(mode)
	if m == nil {
		return Result{}, noSupergraph(v.m)
	}
	cands := m.Filter(q)
	ids, err := index.VerifyCandidates(ctx, m, q, cands)
	if err != nil {
		return Result{}, err
	}
	st := QueryStats{
		BaseCandidates:  len(cands),
		FinalCandidates: len(cands),
		DatasetIsoTests: len(cands),
	}
	e.modes[mode].record(st)
	return resultFor(v.db, ids, st), nil
}

// resultFor materialises the Result for a sorted answer id set against the
// dataset generation the ids were computed over.
func resultFor(db []*Graph, ids []int32, st QueryStats) Result {
	res := Result{IDs: ids, Stats: st}
	for _, id := range ids {
		res.Matches = append(res.Matches, db[id])
	}
	return res
}

// record folds one query's counters into the direction's aggregates.
func (ms *modeState) record(st QueryStats) {
	ms.nQueries.Add(1)
	if st.AnsweredByCache {
		ms.nCacheShort.Add(1)
	}
	ms.nDatasetIso.Add(int64(st.DatasetIsoTests))
	ms.nCacheIso.Add(int64(st.CacheIsoTests))
	ms.nSubHits.Add(int64(st.SubHits))
	ms.nSuperHits.Add(int64(st.SuperHits))
}

// Stats returns an aggregate snapshot of the engine's activity since
// construction in its default direction (StatsOf reports either).
// Counters are maintained atomically; sampling them is safe and cheap while
// queries are in flight. The per-counter values are mutually consistent to
// within the queries currently executing.
func (e *Engine) Stats() EngineStats { return e.StatsOf(e.opt.mode()) }

// StatsOf is Stats for the queries answered in mode. The residency fields
// describe the one dataset index both directions read.
func (e *Engine) StatsOf(mode Mode) EngineStats {
	ms := &e.modes[mode]
	st := EngineStats{
		Queries:         ms.nQueries.Load(),
		AnsweredByCache: ms.nCacheShort.Load(),
		DatasetIsoTests: ms.nDatasetIso.Load(),
		CacheIsoTests:   ms.nCacheIso.Load(),
		SubHits:         ms.nSubHits.Load(),
		SuperHits:       ms.nSuperHits.Load(),
		Panics:          ms.nPanics.Load(),
	}
	if ig := ms.ig.Load(); ig != nil {
		st.CachedQueries = ig.CacheLen()
		st.WindowPending = ig.WindowLen()
		st.Flushes = ig.Flushes()
		st.MemoRenewals = ig.MemoRenewals()
	}
	if res := e.Residency(); res.Lazy {
		st.LazyLoaded = !res.Materialized
		st.TotalShards = res.TotalShards
		st.ResidentShards = res.ResidentShards
		st.ResidentBytes = res.ResidentBytes
		st.LazyBudgetBytes = res.BudgetBytes
		st.ShardFaults = res.Faults
		st.ShardEvictions = res.Evictions
	}
	return st
}

// SaveIndex serialises the engine's built dataset index (the method's trie,
// postings and feature dictionary) so a later process can skip the
// O(dataset) re-enumeration entirely — cold start becomes O(read). Returns
// an error if the configured method does not support index persistence
// (GGSX and Grapes do). Like Build, the index is immutable after
// construction, so SaveIndex is safe while queries are in flight.
func (e *Engine) SaveIndex(w io.Writer) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	v := e.view.Load()
	p, ok := v.m.(index.Persistable)
	if !ok {
		return fmt.Errorf("igq: method %s does not support index persistence", v.m.Name())
	}
	return p.SaveIndex(w)
}

// TailRecovery describes a torn trailing delta journal a load salvaged —
// the signature of a crash mid-AppendIndexDelta. Everything up to
// CommittedBytes (an absolute offset in the loaded stream) was intact and
// loaded; the DiscardedBytes beyond it — the torn section, claiming
// DroppedOps mutations that never fully committed — were dropped. The
// loaded state is exactly the snapshot as of the last completed append:
// pre-crash-op or post-crash-op, never in between.
type TailRecovery struct {
	CommittedBytes int64 // absolute end of the intact prefix
	DiscardedBytes int64 // torn bytes dropped after it
	DroppedOps     int   // mutation ops the torn section claimed (best-effort)
}

// LoadReport describes what a load found and did.
type LoadReport struct {
	// RecoveredTail is non-nil when the load self-healed a torn journal
	// tail (nil for a clean snapshot).
	RecoveredTail *TailRecovery
	// CacheDiscarded reports that a combined snapshot's cache section was
	// dropped along with the torn tail (the stream beyond the tear is
	// untrustworthy); the engine starts with a fresh empty cache. Cached
	// knowledge is re-earnable — the index is what recovery protects.
	CacheDiscarded bool
	// Repaired reports that LoadEngineFile rewrote the file as a clean
	// snapshot after a recovery.
	Repaired bool
}

// tailRecoveryFrom translates an index-layer recovery report into the
// public one, shifting its offsets by the bytes this layer consumed before
// handing the stream down.
func tailRecoveryFrom(rec *trie.TailRecovery, base int64) *TailRecovery {
	if rec == nil {
		return nil
	}
	return &TailRecovery{
		CommittedBytes: base + rec.CommittedBytes,
		DiscardedBytes: rec.DiscardedBytes,
		DroppedOps:     rec.DroppedOps,
	}
}

// LoadIndex replaces the engine's dataset index with a snapshot previously
// written by SaveIndex on the same method kind and the same dataset (a
// checksum guard rejects anything else). The cache-side indexes are rebuilt
// against the restored dictionary. Unlike Query, LoadIndex is exclusive: it
// must not run concurrently with queries — it exists to re-synchronise a
// freshly constructed engine; pure cold starts should use LoadEngineFile,
// which never builds in the first place.
//
// A snapshot whose trailing delta journal is torn (crash mid-append) is
// self-healed: the committed prefix loads and the damage is reported in
// LoadReport.RecoveredTail. Corruption anywhere else fails the load and
// leaves the engine untouched.
func (e *Engine) LoadIndex(r io.Reader) (LoadReport, error) {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	v := e.view.Load()
	p, ok := v.m.(index.Persistable)
	if !ok {
		return LoadReport{}, fmt.Errorf("igq: method %s does not support index persistence", v.m.Name())
	}
	rep, err := p.LoadIndex(r, v.db)
	if err != nil {
		return LoadReport{}, err
	}
	// The method's dictionary was reset by the load; cache postings keyed
	// by the old FeatureIDs must be rebuilt, in both directions.
	for mode := range e.modes {
		if ig := e.modes[mode].ig.Load(); ig != nil {
			ig.RebuildIndexes()
		}
	}
	return LoadReport{RecoveredTail: tailRecoveryFrom(rep.RecoveredTail, 0)}, nil
}

// AddGraphs appends graphs to the engine's dataset, maintaining everything
// the engine has earned in O(delta): the method index inserts only the new
// graphs' features (copy-on-write per 64-list page of the postings table —
// untouched pages are shared with the previous generation; each touched
// feature's list is copied once), and every cached query's
// answer set is extended with the new graphs that match it, so the paper's
// correctness theorems keep holding over the grown dataset. Each new graph
// is enumerated once per query direction and probes that direction's cache
// index, so only the cached queries it may match are tested; and each
// cached query's memoised candidate-set credit (what an identical hit is
// credited with) is extended in the same pass, so no identical hit has to
// run the dataset filter again. The new graphs occupy dataset positions
// len(Dataset()).. in order.
//
// Safe while queries are in flight: in-flight queries finish on the
// generation they started with, later queries see the new one; no query
// ever observes a half-applied mutation. Mutations serialise against each
// other. ctx is observed before the mutation begins; once underway it
// always completes (the work is O(new graphs), not O(dataset)).
//
// Only methods implementing incremental maintenance support this (the path
// indexes of GGSX and Grapes do, and with them the supergraph read over
// them, whose cache is patched in the same call); otherwise an error
// wrapping the method name is returned and the engine is unchanged. The
// pending delta can additionally be persisted in O(delta) with
// AppendIndexDelta.
func (e *Engine) AddGraphs(ctx context.Context, gs []*Graph) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(gs) == 0 {
		return errors.New("igq: no graphs to add")
	}
	for _, g := range gs {
		if g == nil {
			return errors.New("igq: nil graph in AddGraphs batch")
		}
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	v := e.view.Load()
	mm, ok := v.m.(index.Mutable)
	if !ok {
		return fmt.Errorf("igq: method %s: %w", v.m.Name(), index.ErrNotMutable)
	}
	// A lazily loaded index must be fully resident before copy-on-write
	// mutation; forcing it here surfaces deferred corruption as an error
	// instead of a panic mid-apply.
	if err := e.materializeIndexLocked(); err != nil {
		return err
	}
	newM, newDB, err := mm.AppendGraphs(gs)
	if err != nil {
		return fmt.Errorf("igq: appending graphs: %w", err)
	}
	nv := newView(newDB, newM)
	for mode := range e.modes {
		if ig := e.modes[mode].ig.Load(); ig != nil {
			// Background ctx: the cache patch must complete once the method
			// generation exists, or the recorded delta journal would diverge
			// from the served state.
			if err := ig.DatasetAppended(context.Background(), nv.method(Mode(mode)), newDB, len(v.db)); err != nil {
				return fmt.Errorf("igq: patching cache: %w", err)
			}
		}
	}
	e.view.Store(nv)
	return nil
}

// RemoveGraphs removes the dataset graphs at the given positions
// (interpreted against the current Dataset()). To keep the maintenance
// O(delta), removal uses swap-removal semantics: positions are processed
// highest first and each vacated position is filled by the then-last
// graph, so surviving graphs keep their identity but may change position —
// Dataset() reflects the result deterministically. The method index scrubs
// only the removed and moved graphs' postings, and cached answers are
// rewritten through the position mapping (no isomorphism tests). A cached
// query keeps its memoised candidate-set credit unless a removed or moved
// graph was among its candidates; the removed and moved graphs probe each
// direction's cache index once to find those.
//
// Concurrency, serialisation, ctx and method-support semantics match
// AddGraphs.
func (e *Engine) RemoveGraphs(ctx context.Context, positions []int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	v := e.view.Load()
	mm, ok := v.m.(index.Mutable)
	if !ok {
		return fmt.Errorf("igq: method %s: %w", v.m.Name(), index.ErrNotMutable)
	}
	// Pre-flight the batch before the method mutates anything: a rejected
	// removal must leave no trace — in particular nothing recorded in the
	// method's delta log, or a later AppendIndexDelta would persist an
	// operation that was never applied.
	preDB, _, _, err := index.SwapRemove(v.db, positions)
	if err != nil {
		return fmt.Errorf("igq: removing graphs: %w", err)
	}
	if len(preDB) == 0 {
		return errors.New("igq: removal would empty the dataset")
	}
	// See AddGraphs: mutation requires a fully resident index.
	if err := e.materializeIndexLocked(); err != nil {
		return err
	}
	newM, newDB, mapping, err := mm.RemoveGraphs(positions)
	if err != nil {
		return fmt.Errorf("igq: removing graphs: %w", err)
	}
	nv := newView(newDB, newM)
	for mode := range e.modes {
		if ig := e.modes[mode].ig.Load(); ig != nil {
			if err := ig.DatasetRemoved(context.Background(), nv.method(Mode(mode)), newDB, mapping); err != nil {
				return fmt.Errorf("igq: patching cache: %w", err)
			}
		}
	}
	e.view.Store(nv)
	return nil
}

// AppendIndexDelta persists every dataset mutation applied since f's index
// snapshot was written (by SaveIndex, or a previous AppendIndexDelta on
// the same file) as a CRC-guarded journal appended to f — an O(delta)
// write where SaveIndex would re-serialise the whole index. When the
// accumulated journals outgrow the base snapshot, the file is instead
// compacted back into a fresh full snapshot (f must support truncation for
// that, as *os.File does). The file must be a pure index snapshot
// (SaveIndex), not a combined engine snapshot (Save). LoadIndex replays
// journals transparently; a journaled snapshot still
// refuses to load against any dataset other than the one it was appended
// for (index.ErrDatasetMismatch).
func (e *Engine) AppendIndexDelta(f io.ReadWriteSeeker) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	v := e.view.Load()
	dp, ok := v.m.(index.DeltaPersistable)
	if !ok {
		return fmt.Errorf("igq: method %s does not support index delta persistence", v.m.Name())
	}
	return dp.AppendDelta(f)
}

// MaintainIndexDelta is AppendIndexDelta plus idle compaction: it persists
// any pending mutations and, even when nothing is pending, folds the
// journals into a fresh compact base once their replay-weighted debt
// crosses the compaction threshold. AppendIndexDelta checks compaction
// *before* appending, so the last append of a mutation burst can leave the
// file just over the threshold; a process that then goes quiet would carry
// that journal debt until its next mutation. Serving deployments call this
// from a maintenance timer (cmd/igqserve's -maintain-every) and on
// graceful shutdown. Returns whether f was modified.
func (e *Engine) MaintainIndexDelta(f io.ReadWriteSeeker) (bool, error) {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	v := e.view.Load()
	dm, ok := v.m.(index.DeltaMaintainable)
	if !ok {
		return false, fmt.Errorf("igq: method %s does not support index delta maintenance", v.m.Name())
	}
	return dm.MaintainDelta(f)
}

// Engine snapshot envelope: magic, version, flags, then the index snapshot
// (self-delimiting — every section reads exactly its own bytes) followed
// (when flagged) by the cache snapshot. engineFlagSuperCache marks that
// cache as the supergraph direction's; without it the cache is the
// subgraph direction's (the only one snapshots carried before the flag).
const (
	engineMagic           = "IGQENG"
	engineSnapshotVersion = 1
	engineFlagCache       = 1 << 0
	engineFlagSuperCache  = 1 << 1
)

// Save writes one combined snapshot of everything the engine has earned:
// the dataset index (as SaveIndex) and, when the cache is enabled, the iGQ
// query cache of the default direction, marked with its direction; the
// other direction's cache restarts empty. LoadEngineFile restores both in
// one call, the cache into the direction it was saved from, whatever the
// loader's default. Safe while queries are in flight — the cache section
// is cut at a consistent generation, excluding admissions that had not yet
// committed. Both sections stream to w section by section (the trie writer
// buffers one encoded segment at a time, never the whole index).
func (e *Engine) Save(w io.Writer) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	v := e.view.Load()
	p, ok := v.m.(index.Persistable)
	if !ok {
		return fmt.Errorf("igq: method %s does not support index persistence", v.m.Name())
	}
	mode := e.opt.mode()
	ig := e.modes[mode].ig.Load()
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, engineMagic...)
	hdr = binary.AppendUvarint(hdr, engineSnapshotVersion)
	var flags uint64
	if ig != nil {
		flags |= engineFlagCache
		if mode == SupergraphQueries {
			flags |= engineFlagSuperCache
		}
	}
	hdr = binary.AppendUvarint(hdr, flags)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if err := p.SaveIndex(w); err != nil {
		return err
	}
	if ig != nil {
		return ig.Save(w)
	}
	return nil
}

// LoadEngineReport constructs an engine over db from a combined snapshot
// written by Engine.Save, without enumerating the dataset: the index is
// decoded from its segments (across opt.BuildWorkers goroutines) and the
// cache — if the snapshot carries one and opt does not disable it — is
// restored on top, into the direction it was saved from. The snapshot must
// match db (checksum-guarded) and opt.Method must match the saved index's
// method. The loaded engine answers byte-identically to one freshly built
// by NewEngine.
//
// A snapshot whose trailing delta journal is torn (crash mid-append) is
// self-healed to the state of the last committed append: a non-nil
// LoadReport.RecoveredTail reports it, and the cache section, which
// follows the tear in a combined snapshot, is discarded and rebuilt empty.
// The offsets in the report are absolute within r, so a caller owning the
// underlying file can repair it — or use LoadEngineFile, which does.
func LoadEngineReport(r io.Reader, db []*Graph, opt EngineOptions) (*Engine, LoadReport, error) {
	if len(db) == 0 {
		return nil, LoadReport{}, errors.New("igq: empty dataset")
	}
	opt = opt.normalized()
	// Count header bytes so index-section recovery offsets can be
	// translated into r-absolute ones.
	cr := &index.CountingScanner{R: index.AsByteScanner(r)}
	var magic [len(engineMagic)]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, LoadReport{}, fmt.Errorf("igq: reading snapshot magic: %w", err)
	}
	if string(magic[:]) != engineMagic {
		return nil, LoadReport{}, fmt.Errorf("igq: not an engine snapshot (magic %q)", magic)
	}
	version, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, LoadReport{}, fmt.Errorf("igq: reading snapshot version: %w", err)
	}
	if version < 1 || version > engineSnapshotVersion {
		return nil, LoadReport{}, fmt.Errorf("igq: engine snapshot version %d unsupported (this build reads ≤ %d)",
			version, engineSnapshotVersion)
	}
	flags, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, LoadReport{}, fmt.Errorf("igq: reading snapshot flags: %w", err)
	}
	m, err := newMethod(opt)
	if err != nil {
		return nil, LoadReport{}, err
	}
	p, ok := m.(index.Persistable)
	if !ok {
		return nil, LoadReport{}, fmt.Errorf("igq: method %s does not support index persistence", m.Name())
	}
	headerBytes := cr.N
	// cr is a ByteScanner, so LoadIndex consumes exactly the index section
	// and leaves cr positioned at the cache section.
	idxRep, err := p.LoadIndex(cr, db)
	if err != nil {
		return nil, LoadReport{}, err
	}
	rep := LoadReport{RecoveredTail: tailRecoveryFrom(idxRep.RecoveredTail, headerBytes)}
	// cr is positioned at the cache section.
	e, err := restoredEngine(db, m, opt, flags, &rep, func() io.Reader { return cr })
	if err != nil {
		return nil, LoadReport{}, err
	}
	return e, rep, nil
}

// restoredEngine assembles the engine a snapshot load produced around its
// loaded index m: the cache section, when the snapshot carries one (flags)
// that no torn tail precedes, restored into the direction it was saved
// from, and a fresh cache for the default direction if that is another.
func restoredEngine(db []*Graph, m index.Method, opt EngineOptions, flags uint64, rep *LoadReport, cache func() io.Reader) (*Engine, error) {
	if cf, ok := m.(index.CountFilterer); ok {
		// The snapshot's feature length wins (the index was built with it);
		// keep the cache-side enumeration consistent with it.
		opt.MaxPathLen = cf.FeatureMaxPathLen()
	}
	v := newView(db, m)
	if v.method(opt.mode()) == nil {
		return nil, noSupergraph(m)
	}
	e := &Engine{opt: opt}
	e.view.Store(v)
	if !opt.DisableCache && flags&engineFlagCache != 0 {
		saved := SubgraphQueries
		if flags&engineFlagSuperCache != 0 {
			saved = SupergraphQueries
		}
		if rep.RecoveredTail != nil {
			// Tail recovery consumed the rest of the stream: the cache
			// section sits after the tear and cannot be trusted. Start with
			// a fresh cache — cached knowledge is cheap to re-earn, the index
			// is not.
			rep.CacheDiscarded = true
		} else {
			// Every persistable index is a path index, so it has both reads.
			ig, err := core.Load(cache(), v.method(saved), db, e.coreOptions(saved))
			if err != nil {
				return nil, fmt.Errorf("igq: restoring cache: %w", err)
			}
			e.modes[saved].ig.Store(ig)
		}
	}
	e.cacheLocked(opt.mode()) // e is not shared yet
	return e, nil
}

// SaveEngineFile atomically writes a combined engine snapshot (Engine.Save)
// to path: the bytes land in a temp file in path's directory, are fsynced,
// and replace path with a rename only once complete — a crash at any point
// leaves either the old snapshot or the new one, never a torn file.
func SaveEngineFile(path string, e *Engine) error {
	return persistio.AtomicWriteFile(path, e.Save)
}

// SaveIndexFile atomically writes an index-only snapshot (Engine.SaveIndex)
// to path, with the same all-or-nothing guarantee as SaveEngineFile. The
// written file is the new base for AppendIndexDelta.
func SaveIndexFile(path string, e *Engine) error {
	return persistio.AtomicWriteFile(path, e.SaveIndex)
}

// LoadEngineFile is LoadEngineReport over a snapshot file, with on-disk
// self-healing: when the load recovers a torn journal tail, the file is
// rewritten (atomically) as a clean snapshot of the recovered state, so
// the next start loads cleanly and the file accepts delta appends again.
// LoadReport.Repaired reports the rewrite.
//
// With WithLazyLoad the snapshot is mapped rather than decoded: posting
// segments load on first touch under the given residency budget, and the
// returned engine holds the mapping open (release with Engine.Close). The
// self-healing behaviour is unchanged — repairing a torn tail materialises
// the index first.
func LoadEngineFile(path string, db []*Graph, opt EngineOptions, lopts ...EngineLoadOption) (*Engine, LoadReport, error) {
	var lcfg engineLoadConfig
	for _, o := range lopts {
		o(&lcfg)
	}
	if lcfg.lazy {
		return loadEngineFileLazy(path, db, opt, lcfg.budget)
	}
	return loadEngineFileEager(path, db, opt)
}

// loadEngineFileEager is the decode-everything load path.
func loadEngineFileEager(path string, db []*Graph, opt EngineOptions) (*Engine, LoadReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, LoadReport{}, err
	}
	e, rep, err := LoadEngineReport(f, db, opt)
	f.Close()
	if err != nil {
		return nil, rep, err
	}
	if rep.RecoveredTail != nil {
		if err := SaveEngineFile(path, e); err != nil {
			return nil, rep, fmt.Errorf("igq: repairing snapshot %s: %w", path, err)
		}
		rep.Repaired = true
	}
	return e, rep, nil
}

// BatchResult pairs a query index with its result.
type BatchResult struct {
	Index  int
	Result Result
	Err    error
}

// QueryStream answers a continuous stream of queries: queries are accepted
// from in as they arrive and outcomes are emitted on the returned channel
// as they finish — the channel-fed core of the serving front-end, and the
// primitive QueryBatchCtx is built on. BatchResult.Index is the arrival
// order (0 for the first query received); results are emitted in
// completion order, which under concurrency is not arrival order.
//
// Up to workers queries (0 → one per runtime.GOMAXPROCS(0)) are in flight
// at once, each through the same snapshot-isolated Query path any other
// caller uses, with opts applied to every one — a stream runs concurrently
// with other streams, single queries and dataset mutations. The stream ends
// when in is closed and every accepted query has been emitted, or when ctx
// is cancelled: in-flight queries then return ctx's error promptly (the
// per-query cancellation path), queries not yet read from in are never
// accepted, and the result channel always closes.
//
// The caller must drain the returned channel until it closes; results are
// never dropped, so an abandoned receiver would block the workers (close
// in and drain to release them).
func (e *Engine) QueryStream(ctx context.Context, in <-chan *Graph, workers int, opts ...QueryOption) <-chan BatchResult {
	return StreamQueries(ctx, in, workers, func(ctx context.Context, q *Graph) (Result, error) {
		return e.Query(ctx, q, opts...)
	})
}

// StreamQueries is the worker pool behind Engine.QueryStream, for any
// query function (a partition group passes its scatter-gather): it answers
// each graph read from in with query on one of workers goroutines (0 → one
// per runtime.GOMAXPROCS(0)), under QueryStream's contract.
func StreamQueries(ctx context.Context, in <-chan *Graph, workers int, query func(context.Context, *Graph) (Result, error)) <-chan BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make(chan BatchResult)
	type job struct {
		i int
		g *Graph
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r, err := query(ctx, j.g)
				out <- BatchResult{Index: j.i, Result: r, Err: err}
			}
		}()
	}
	go func() {
		defer close(out)
		// The feeder assigns arrival indexes and stops at cancellation —
		// queries still unread from in are never accepted, and one read
		// after the cancellation is dropped. Workers then drain their
		// remaining jobs (each a prompt ctx-error return) and the output
		// closes deterministically.
		i := 0
	feed:
		for {
			select {
			case <-ctx.Done():
				break feed
			case g, ok := <-in:
				if !ok || ctx.Err() != nil {
					break feed
				}
				select {
				case jobs <- job{i, g}:
					i++
				case <-ctx.Done():
					break feed
				}
			}
		}
		close(jobs)
		wg.Wait()
	}()
	return out
}

// QueryBatchCtx answers the batch through the QueryStream pipeline across
// workers goroutines (0 → one per runtime.GOMAXPROCS(0)), cache enabled or
// not: the engine's snapshot-isolated query path lets every worker overlap
// its filtering, cache probes and verification with the others', with
// window flushes as the only serialization points. Results are in input
// order (the stream's completion-order results are re-indexed).
//
// Cancellation: queries not yet finished when ctx is cancelled report
// ctx's error in their BatchResult; already-completed results are kept.
func (e *Engine) QueryBatchCtx(ctx context.Context, queries []*Graph, workers int) []BatchResult {
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	in := make(chan *Graph)
	go func() {
		defer close(in)
		for _, q := range queries {
			select {
			case in <- q:
			case <-ctx.Done():
				return
			}
		}
	}()
	seen := make([]bool, len(queries))
	for br := range e.QueryStream(ctx, in, workers) {
		out[br.Index] = br
		seen[br.Index] = true
	}
	// Queries the cancelled stream never accepted still owe a result.
	for i := range out {
		if !seen[i] {
			out[i] = BatchResult{Index: i, Err: context.Cause(ctx)}
		}
	}
	return out
}

// MethodName returns the display name of the method answering the engine's
// default direction ("Contain", the containment read, for an engine with
// Supergraph set).
func (e *Engine) MethodName() string { return e.view.Load().method(e.opt.mode()).Name() }

// Dataset returns the engine's current dataset generation. Callers must
// treat the slice and the graphs as read-only; mutation goes through
// AddGraphs/RemoveGraphs.
func (e *Engine) Dataset() []*Graph { return e.view.Load().db }

// CacheLen returns the number of cached queries of the default direction
// (0 when disabled).
func (e *Engine) CacheLen() int {
	if ig := e.modes[e.opt.mode()].ig.Load(); ig != nil {
		return ig.CacheLen()
	}
	return 0
}

// IndexSizeBytes returns the dataset index footprint plus the iGQ overhead
// of both directions' caches.
func (e *Engine) IndexSizeBytes() (method, cache int) {
	method = e.view.Load().m.SizeBytes()
	for mode := range e.modes {
		if ig := e.modes[mode].ig.Load(); ig != nil {
			cache += ig.SizeBytes()
		}
	}
	return method, cache
}

// DatasetSpec describes a synthetic dataset family (re-export of the
// generator used to emulate the paper's datasets).
type DatasetSpec = dataset.Spec

// Dataset families matching the paper's Table 1 (full scale); use
// Scaled(countFrac, sizeFrac) for tractable derivatives.
func AIDSSpec() DatasetSpec { return dataset.AIDS() }
func PPISpec() DatasetSpec  { return dataset.PPI() }

// GenerateDataset produces a synthetic dataset from a spec.
func GenerateDataset(spec DatasetSpec) []*Graph { return dataset.Generate(spec) }

// WorkloadSpec describes a query workload (re-export; see the paper §7.1).
type WorkloadSpec = workload.Spec

// Workload distributions.
const (
	Uniform = workload.Uniform
	Zipf    = workload.Zipf
)

// GenerateWorkload extracts a query stream from db per the paper's
// protocol, returning the query graphs.
func GenerateWorkload(db []*Graph, spec WorkloadSpec) []*Graph {
	qs := workload.Generate(db, spec)
	out := make([]*Graph, len(qs))
	for i, q := range qs {
		out[i] = q.G
	}
	return out
}

// ExtractQuery performs one BFS query extraction from g (paper §7.1).
func ExtractQuery(g *Graph, startVertex, targetEdges int) *Graph {
	return workload.Extract(g, startVertex, targetEdges)
}
