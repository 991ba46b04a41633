// Package grapes provides Grapes (Giugno et al., PLoS One 2013), the
// multi-core path index the paper uses as its strongest baseline (Grapes(1)
// and Grapes(6) denote 1 and 6 build/query threads).
//
// Like GGSX, Grapes exhaustively enumerates labeled simple paths up to
// MaxLen edges, and its index holds exactly GGSX's (graph, count) postings,
// so it is GGSX's index type with a thread count (ggsx.Options.Threads): one
// implementation of build, filtering, verification, persistence, lazy
// loading and mutation, named Grapes and tagged "Grapes" in its snapshots.
// Index construction is parallel: each worker enumerates whole graphs — or,
// when there are too few graphs for the workers, the paths starting from
// its share of one graph's vertices — and the per-worker results are merged
// (exactly the paper's description of per-thread tries merged into the
// graph's path index).
//
// The published Grapes also stores *location information* — the vertices
// each feature's occurrences touch in each graph — to restrict a test to
// the candidate's located vertices, split into connected components. This
// implementation stores none. A 0-edge path is a feature too
// (features.PathsID: "a 0-edge path is a single vertex"), so every vertex of
// the candidate whose label occurs in the query is located by that label's
// own feature, and every longer feature only re-locates a subset of those:
// the located set is exactly {v ∈ g : label(v) ∈ labels(q)}. The matcher's
// label check confines the search to those vertices anyway, and its
// parent-directed candidate generation never leaves the component it
// started in — so the restriction bought nothing, while materialising it
// per candidate was over 90 % of the cost of a test and the lists were
// 60 % of the index's memory. Verify tests the dataset graph itself with
// the compiled matcher of package iso, for connected and disconnected
// queries alike. Snapshots from writers that stored the lists still load:
// the trie reader validates them and discards them.
package grapes

import "repro/internal/index/ggsx"

// Options configures a Grapes index.
type Options struct {
	// MaxPathLen is the maximum path length in edges (paper default 4).
	MaxPathLen int
	// Threads is the build parallelism (paper: 1 and 6); ≤ 0 means 1.
	Threads int
	// Shards is the segment count of a saved snapshot; see
	// ggsx.Options.Shards.
	Shards int
	// BuildWorkers overrides the number of goroutines Build fans graph
	// enumeration out over (0 = Threads, matching the paper's Grapes(T)
	// parallel construction). Any worker count produces an identical index.
	BuildWorkers int
}

// DefaultOptions mirrors the paper's Grapes(1) configuration.
func DefaultOptions() Options { return Options{MaxPathLen: 4, Threads: 1} }

// Index is the Grapes method: GGSX's index type, built with threads.
type Index = ggsx.Index

// New returns an unbuilt Grapes index.
func New(opt Options) *Index {
	return ggsx.New(ggsx.Options{
		MaxPathLen:   opt.MaxPathLen,
		Threads:      max(opt.Threads, 1),
		Shards:       opt.Shards,
		BuildWorkers: opt.BuildWorkers,
	})
}
