// Package grapes reimplements Grapes (Giugno et al., PLoS One 2013), the
// multi-core path index the paper uses as its strongest baseline
// (Grapes(1) and Grapes(6) denote 1 and 6 build/query threads).
//
// Like GGSX, Grapes exhaustively enumerates labeled simple paths up to
// MaxLen edges, and its index holds exactly GGSX's (graph, count)
// postings. Index construction is parallel: each worker enumerates the
// paths starting from its share of the vertices and the per-worker results
// are merged (exactly the paper's description of per-thread tries merged
// into the graph's path index).
//
// The published Grapes also stores *location information* — the vertices
// each feature's occurrences touch in each graph — to restrict a test to
// the candidate's located vertices, split into connected components. This
// implementation stores none. A 0-edge path is a feature too
// (features.Paths: "a 0-edge path is a single vertex"), so every vertex of
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
//
// Filtering runs on interned feature IDs (see package ggsx).
package grapes

import (
	"sync"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/iso"
	"repro/internal/trie"
)

// Options configures a Grapes index.
type Options struct {
	// MaxPathLen is the maximum path length in edges (paper default 4).
	MaxPathLen int
	// Threads is the build/verification parallelism (paper: 1 and 6).
	Threads int
	// Shards is the postings shard count of the path trie (rounded up to a
	// power of two; 0 = trie.DefaultShards()).
	Shards int
	// BuildWorkers overrides the number of goroutines Build fans graph
	// enumeration out over (0 = Threads, matching the paper's Grapes(T)
	// parallel construction). Any worker count produces an identical index.
	BuildWorkers int
}

// DefaultOptions mirrors the paper's Grapes(1) configuration.
func DefaultOptions() Options { return Options{MaxPathLen: 4, Threads: 1} }

// Index is the Grapes method. Create with New, then Build.
type Index struct {
	opt  Options
	db   []*graph.Graph
	dict *features.Dict
	tr   *trie.Trie
	log  *index.DeltaLog // unsaved mutations; shared across generations
}

var (
	_ index.Method        = (*Index)(nil)
	_ index.DictProvider  = (*Index)(nil)
	_ index.CountFilterer = (*Index)(nil)
	_ index.Preparer      = (*Index)(nil)
)

// New returns an unbuilt Grapes index.
func New(opt Options) *Index {
	if opt.MaxPathLen <= 0 {
		opt.MaxPathLen = 4
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	if opt.BuildWorkers <= 0 {
		opt.BuildWorkers = opt.Threads
	}
	d := features.NewDict()
	return &Index{opt: opt, dict: d, tr: trie.NewSharded(d, opt.Shards), log: index.NewDeltaLog()}
}

// Name implements index.Method, including the thread count as in the paper.
func (x *Index) Name() string {
	if x.opt.Threads == 1 {
		return "Grapes"
	}
	return "Grapes(" + itoa(x.opt.Threads) + ")"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// FeatureDict implements index.DictProvider.
func (x *Index) FeatureDict() *features.Dict { return x.dict }

// FeatureMaxPathLen implements index.CountFilterer.
func (x *Index) FeatureMaxPathLen() int { return x.opt.MaxPathLen }

// Build implements index.Method with the paper's parallel construction:
// BuildWorkers goroutines (default Threads) each enumerate whole graphs and
// stage postings into private per-shard buffers that merge
// deterministically, so the index is identical at any worker count (the
// shared pipeline is ggsx.BuildPaths). When the dataset is too small to
// feed the graph-level workers — a handful of huge graphs, or an explicit
// single build worker — the legacy per-vertex-range strategy applies
// Threads-way parallelism *within* each graph instead, the original Grapes
// description. Both strategies produce the same index. The trie and the
// dictionary contents are reset on entry — the *Dict object handed out by
// FeatureDict stays valid, but a re-Build does not retain the previous
// dataset's dead vocabulary.
func (x *Index) Build(db []*graph.Graph) {
	x.db = db
	x.dict.Reset()
	x.tr = trie.NewSharded(x.dict, x.opt.Shards)
	x.log.NoteFullSave(0) // a rebuild invalidates any snapshot lineage
	opt := features.PathOptions{MaxLen: x.opt.MaxPathLen}
	if x.opt.Threads > 1 && (x.opt.BuildWorkers <= 1 || len(db) < 2*x.opt.BuildWorkers) {
		for i, g := range db {
			for k, c := range x.enumerate(g, opt).Counts {
				x.tr.Insert(k, trie.Posting{Graph: int32(i), Count: int32(c)})
			}
		}
		x.tr.SetGallopProbeCost(index.CalibrateGallopProbeCost(x.tr))
		return
	}
	ggsx.BuildPaths(x.tr, db, opt, x.opt.BuildWorkers)
	x.tr.SetGallopProbeCost(index.CalibrateGallopProbeCost(x.tr))
}

// enumerate splits the start-vertex range across Threads workers and merges
// the per-worker path sets.
func (x *Index) enumerate(g *graph.Graph, opt features.PathOptions) *features.PathSet {
	n := g.NumVertices()
	w := x.opt.Threads
	if w == 1 || n < 2*w {
		return features.Paths(g, opt)
	}
	parts := make([]*features.PathSet, w)
	var wg sync.WaitGroup
	for t := 0; t < w; t++ {
		lo := t * n / w
		hi := (t + 1) * n / w
		wg.Add(1)
		go func(t, lo, hi int) {
			defer wg.Done()
			parts[t] = features.PathsRange(g, opt, lo, hi)
		}(t, lo, hi)
	}
	wg.Wait()
	out := parts[0]
	for _, p := range parts[1:] {
		features.MergePathSets(out, p)
	}
	return out
}

// Filter implements index.Method: identical count-based filtering to GGSX
// (the two share the path feature family and the shared count filter).
func (x *Index) Filter(q *graph.Graph) []int32 {
	s := index.GetCountFilterScratch()
	defer index.PutCountFilterScratch(s)
	qf := features.PathsID(q, features.PathOptions{MaxLen: x.opt.MaxPathLen}, x.dict, s.Feat, false)
	return ggsx.FilterFresh(x.tr, qf, len(x.db), s)
}

// FilterByFeatureCounts implements index.CountFilterer.
func (x *Index) FilterByFeatureCounts(qf features.IDSet) []int32 {
	s := index.GetCountFilterScratch()
	defer index.PutCountFilterScratch(s)
	return ggsx.FilterFresh(x.tr, qf, len(x.db), s)
}

// Verify implements index.Method: q ⊆ db[id], tested on the dataset graph
// itself (see the package comment on why not on its located vertices).
func (x *Index) Verify(q *graph.Graph, id int32) bool {
	return iso.Subgraph(q, x.db[id])
}

// Prepare implements index.Preparer.
func (x *Index) Prepare(q *graph.Graph) index.Verifier {
	return index.PrepareSubgraph(x.db, q)
}

// SizeBytes implements index.Method: the path trie plus the feature
// dictionary the index owns, counted at the live vocabulary (see
// ggsx.SizeBytes on why the dictionary is counted at its owner and why
// retired features are excluded).
func (x *Index) SizeBytes() int { return x.tr.SizeBytes() + x.tr.LiveDictSizeBytes() }
