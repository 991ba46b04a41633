// Package partition scales the engine horizontally inside one process:
// a Group wraps N igq.Engine partitions behind the familiar Engine-shaped
// surface. The dataset is split by a stable hash of each graph's
// position-independent ID, queries scatter to every partition and gather a
// mode-correct union (both subgraph and supergraph answers union across
// partitions; per-partition caches and §5.1 credits stay partition-local),
// and mutations route to the single owning partition — so an add or remove
// touches one partition's index instead of serialising the whole dataset
// behind one mutation lock. A single engine is a group of one (New with one
// partition, or Of around an engine built elsewhere): the serving layer has
// no other back-end.
//
// This is the single-process analogue of the scatter-gather architecture
// of "Efficient Subgraph Matching on Billion Node Graphs": push the
// filtering down to the data partitions, keep the merge trivial. Because
// partitions are whole graphs (the dataset is a *collection* of small
// graphs, not one billion-node graph), no cross-partition joins exist and
// the merged answer is exactly the union of partition answers.
//
// Identity, not position. A partitioned dataset has no useful global
// position space — partition-local swap-removal reorders neighbours
// invisibly — so the Group addresses graphs by their ID everywhere:
// Query results carry global graph IDs (sorted ascending), RemoveGraphs
// takes IDs, and routing is PartitionOf(id, n). Every dataset graph must
// carry a unique ID (dataset.Generate and the wire codec both preserve
// them); New rejects datasets that do not. For a generated dataset IDs
// equal positions until the first mutation.
//
// Persistence reuses the engine machinery per partition: SaveAll writes
// one engine snapshot per partition, LoadGroup restores each partition
// from its own lineage (eagerly, or lazily mapped with igq.WithLazyLoad),
// and AppendDeltas / MaintainDeltas keep one O(delta) journal lineage per
// partition. The files are named by PartPath: a one-partition group uses
// the base path itself, byte-identical to igq.SaveEngineFile of its
// engine, and N > 1 partitions use base.p0, base.p1, ...
package partition

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	igq "repro"
	"repro/internal/trie"
)

// Mode selects the query direction a Group call serves.
type Mode = igq.Mode

const (
	// Sub answers subgraph queries: which dataset graphs contain q.
	Sub = igq.SubgraphQueries
	// Super answers supergraph queries: which dataset graphs are
	// contained in q. Requires Options.Super.
	Super = igq.SupergraphQueries
)

// Options configures a Group.
type Options struct {
	// Partitions is the number of in-process partitions (default 1).
	Partitions int
	// Engine configures each partition's engine.
	Engine igq.EngineOptions
	// Super serves Mode Super too: each partition engine answers
	// supergraph queries from a second query cache over its one index.
	Super bool
}

// ErrModeNotServed is QueryMode's error for Mode Super on a group built
// without Options.Super.
var ErrModeNotServed = errors.New("partition: supergraph queries are not served (Options.Super)")

// Group serves one logical dataset split across N engine partitions.
// Queries are lock-free scatter-gather over an atomic partition-set
// pointer; mutations and persistence serialise on one mutex but touch
// only the partitions they route to. All methods are safe for
// concurrent use.
type Group struct {
	opt   Options
	mu    sync.Mutex // serialises mutations and persistence
	parts atomic.Pointer[[]*igq.Engine]
}

// PartitionOf is the routing function: the partition owning graph ID id
// among n partitions. Stable across processes and runs (FNV-1a over the
// little-endian ID bytes), so a dataset always resplits the same way.
func PartitionOf(id, n int) int {
	if n <= 1 {
		return 0
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(id)))
	h := fnv.New32a()
	h.Write(b[:])
	return int(h.Sum32() % uint32(n))
}

// New builds a Group over db split into opt.Partitions partitions. Every
// graph must carry a unique ID (graph.Graph.ID); the split must leave no
// partition empty — if one is, reduce the partition count (an engine
// cannot serve an empty dataset).
func New(db []*igq.Graph, opt Options) (*Group, error) {
	opt = normalized(opt)
	if err := checkIDs(db); err != nil {
		return nil, err
	}
	split, err := route(db, opt.Partitions)
	if err != nil {
		return nil, err
	}
	parts, err := buildParts(split, opt)
	if err != nil {
		return nil, err
	}
	return newGroup(parts, opt)
}

// Of serves an engine built elsewhere as a group of one partition,
// answering Mode Super too when super is set. The engine's dataset must
// carry unique graph IDs.
func Of(e *igq.Engine, super bool) (*Group, error) {
	if err := checkIDs(e.Dataset()); err != nil {
		return nil, err
	}
	return newGroup([]*igq.Engine{e}, Options{Partitions: 1, Super: super})
}

// newGroup installs parts, rejecting Options.Super over partition engines
// that cannot answer supergraph queries (every partition runs the same
// method).
func newGroup(parts []*igq.Engine, opt Options) (*Group, error) {
	if opt.Super && !parts[0].Answers(Super) {
		return nil, fmt.Errorf("partition: Options.Super needs a path index; %s answers subgraph queries only", parts[0].MethodName())
	}
	g := &Group{opt: opt}
	g.parts.Store(&parts)
	return g, nil
}

func normalized(opt Options) Options {
	if opt.Partitions <= 0 {
		opt.Partitions = 1
	}
	return opt
}

// checkIDs rejects datasets without unique graph IDs — identity routing
// cannot work over ambiguous IDs.
func checkIDs(db []*igq.Graph) error {
	seen := make(map[int]struct{}, len(db))
	for i, g := range db {
		if g == nil {
			return fmt.Errorf("partition: nil graph at position %d", i)
		}
		if _, dup := seen[g.ID]; dup {
			return fmt.Errorf("partition: duplicate graph ID %d (partitioning routes by unique graph ID)", g.ID)
		}
		seen[g.ID] = struct{}{}
	}
	return nil
}

// route splits db into n per-partition datasets by PartitionOf, preserving
// input order within each partition.
func route(db []*igq.Graph, n int) ([][]*igq.Graph, error) {
	split := make([][]*igq.Graph, n)
	for _, g := range db {
		p := PartitionOf(g.ID, n)
		split[p] = append(split[p], g)
	}
	for p, pdb := range split {
		if len(pdb) == 0 {
			return nil, fmt.Errorf("partition: partition %d/%d would be empty (%d graphs total) — use fewer partitions", p, n, len(db))
		}
	}
	return split, nil
}

// buildParts builds every partition's engine, partitions in parallel, the
// CPUs shared out between them unless Options.Engine sets BuildWorkers. A
// panic in one build reaches the caller as a *trie.WorkerPanic once every
// build has joined.
func buildParts(split [][]*igq.Graph, opt Options) ([]*igq.Engine, error) {
	parts := make([]*igq.Engine, len(split))
	errs := make([]error, len(split))
	eopt := opt.Engine
	if eopt.BuildWorkers <= 0 {
		eopt.BuildWorkers = max(runtime.GOMAXPROCS(0)/len(split), 1)
	}
	trie.ParallelFor(len(split), len(split), func(_ int, claim func() int) {
		for i := claim(); i >= 0; i = claim() {
			e, err := igq.NewEngine(split[i], eopt)
			if err != nil {
				errs[i] = fmt.Errorf("partition %d: %w", i, err)
				continue
			}
			parts[i] = e
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return parts, nil
}

// Partitions returns the current partition count.
func (g *Group) Partitions() int { return len(*g.parts.Load()) }

// NumGraphs returns the total dataset size across partitions.
func (g *Group) NumGraphs() int {
	n := 0
	for _, p := range *g.parts.Load() {
		n += len(p.Dataset())
	}
	return n
}

// Dataset returns the whole dataset in canonical restore order: partition
// 0's graphs in their local order, then partition 1's, and so on. Routing
// this exact slice at the same partition count reproduces every
// partition's local dataset — including the ordering that mutation
// history (swap-removal) produced — which is what LoadGroup needs to
// restore a mutated group from its snapshots. The slice is freshly
// allocated; the graphs are shared.
func (g *Group) Dataset() []*igq.Graph {
	parts := *g.parts.Load()
	var all []*igq.Graph
	for _, p := range parts {
		all = append(all, p.Dataset()...)
	}
	return all
}

// QueryMode scatters q to every partition at once and gathers the union of
// answers. Result.Matches are the matched dataset graphs and Result.IDs
// their *global graph IDs*, sorted ascending — not positions; a partitioned
// dataset has no global position space. Result.Stats sums the
// per-partition counters; AnsweredByCache is true only when every
// partition short-circuited through its own cache (caches and credits are
// partition-local by design). Mode Super on a group without Options.Super
// returns ErrModeNotServed.
//
// Each partition query runs through that engine's ordinary snapshot-
// isolated Query path, so a scatter-gather runs concurrently with other
// queries, streams and routed mutations. A one-partition group queries on
// the caller's goroutine. A panic anywhere in the scatter is contained to
// this call and returned as a *igq.PanicError.
func (g *Group) QueryMode(ctx context.Context, mode Mode, q *igq.Graph, opts ...igq.QueryOption) (res igq.Result, err error) {
	if mode == Super && !g.opt.Super {
		return igq.Result{}, ErrModeNotServed
	}
	defer func() {
		if r := recover(); r != nil {
			pe := &igq.PanicError{Value: r, Stack: debug.Stack()}
			if wp, ok := r.(*trie.WorkerPanic); ok {
				pe.Value, pe.Stack = wp.Value, wp.Stack
			}
			res, err = igq.Result{}, pe
		}
	}()
	parts := *g.parts.Load()
	opts = append(opts[:len(opts):len(opts)], igq.InMode(mode))
	results := make([]igq.Result, len(parts))
	errs := make([]error, len(parts))
	trie.ParallelFor(len(parts), len(parts), func(_ int, claim func() int) {
		for i := claim(); i >= 0; i = claim() {
			results[i], errs[i] = parts[i].Query(ctx, q, opts...)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return igq.Result{}, err
	}
	return mergeResults(results), nil
}

// mergeResults unions partition answers into one identity-keyed Result.
func mergeResults(results []igq.Result) igq.Result {
	var merged igq.Result
	total := 0
	for _, r := range results {
		total += len(r.Matches)
	}
	merged.Matches = make([]*igq.Graph, 0, total)
	cacheAll := true
	for _, r := range results {
		merged.Matches = append(merged.Matches, r.Matches...)
		merged.Stats.BaseCandidates += r.Stats.BaseCandidates
		merged.Stats.FinalCandidates += r.Stats.FinalCandidates
		merged.Stats.DatasetIsoTests += r.Stats.DatasetIsoTests
		merged.Stats.CacheIsoTests += r.Stats.CacheIsoTests
		merged.Stats.SubHits += r.Stats.SubHits
		merged.Stats.SuperHits += r.Stats.SuperHits
		cacheAll = cacheAll && r.Stats.AnsweredByCache
	}
	merged.Stats.AnsweredByCache = cacheAll && len(results) > 0
	slices.SortFunc(merged.Matches, func(a, b *igq.Graph) int { return a.ID - b.ID })
	merged.IDs = make([]int32, len(merged.Matches))
	for i, m := range merged.Matches {
		merged.IDs[i] = int32(m.ID)
	}
	if len(merged.IDs) == 0 {
		merged.IDs = nil
		merged.Matches = nil
	}
	return merged
}

// QueryStream answers a continuous stream of queries in mode through
// igq.StreamQueries, under Engine.QueryStream's contract: BatchResult.Index
// is arrival order, results are emitted in completion order, up to workers
// scatter-gathers run at once (0 = one per GOMAXPROCS), the stream ends
// when in closes or ctx cancels, and the caller must drain the returned
// channel.
func (g *Group) QueryStream(ctx context.Context, mode Mode, in <-chan *igq.Graph, workers int, opts ...igq.QueryOption) <-chan igq.BatchResult {
	return igq.StreamQueries(ctx, in, workers, func(ctx context.Context, q *igq.Graph) (igq.Result, error) {
		return g.QueryMode(ctx, mode, q, opts...)
	})
}
