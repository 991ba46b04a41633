// Package ggsx reimplements GraphGrepSX (Bonnici et al., PRIB 2010), one of
// the three state-of-the-art baselines the paper incorporates iGQ into.
//
// GGSX exhaustively enumerates all labeled simple paths of up to MaxLen
// edges (4 in the paper's experiments) in every dataset graph and stores
// them in a suffix-tree-like trie with per-graph occurrence counts. A query
// graph is decomposed the same way; a dataset graph survives filtering only
// if it contains every query path feature at least as many times as the
// query does. Verification is a subgraph isomorphism test of the query
// against the candidate graph (package iso's compiled matcher).
//
// Filtering runs on interned feature IDs: the query is canonicalised once
// against the index's dictionary (read-only, allocation-free), the
// per-feature candidate lists are intersected rarest-first, and each
// intersection step gallops when the list lengths are skewed.
package ggsx

import (
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/iso"
	"repro/internal/trie"
)

// Options configures a GGSX index.
type Options struct {
	// MaxPathLen is the maximum path length in edges (paper default 4;
	// Fig 18 also evaluates 5).
	MaxPathLen int
	// Shards is the postings shard count of the path trie (rounded up to a
	// power of two; 0 = trie.DefaultShards()).
	Shards int
	// BuildWorkers is the number of goroutines Build fans graph feature
	// enumeration out over (0 or 1 = sequential, the original
	// single-threaded GGSX). Any worker count produces an identical index.
	BuildWorkers int
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions() Options { return Options{MaxPathLen: 4} }

// Index is the GGSX method. Create with New, then Build. Dataset mutation
// (AppendGraphs/RemoveGraphs) is copy-on-write: it returns a new Index
// generation and leaves the receiver serving the old dataset; generations
// share the dictionary and the delta log.
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

// New returns an unbuilt GGSX index.
func New(opt Options) *Index {
	if opt.MaxPathLen <= 0 {
		opt.MaxPathLen = 4
	}
	if opt.BuildWorkers <= 0 {
		opt.BuildWorkers = 1
	}
	d := features.NewDict()
	return &Index{opt: opt, dict: d, tr: trie.NewSharded(d, opt.Shards), log: index.NewDeltaLog()}
}

// Name implements index.Method.
func (x *Index) Name() string { return "GGSX" }

// FeatureDict implements index.DictProvider.
func (x *Index) FeatureDict() *features.Dict { return x.dict }

// FeatureMaxPathLen implements index.CountFilterer.
func (x *Index) FeatureMaxPathLen() int { return x.opt.MaxPathLen }

// Build implements index.Method: enumerate paths of every dataset graph
// into the shared trie (interning every feature into the dictionary). With
// BuildWorkers > 1 the enumeration fans out over workers, each staging into
// private per-shard buffers that merge deterministically (trie.Builder) —
// the resulting index is identical to the sequential build at any worker
// count. The trie and the dictionary contents are reset on entry — the
// *Dict object handed out by FeatureDict stays valid (holders remain wired
// to this index), but a re-Build does not retain the previous dataset's
// dead vocabulary; structures keyed by the old IDs must be rebuilt, which
// iGQ does at its next cache-index build.
func (x *Index) Build(db []*graph.Graph) {
	x.db = db
	x.dict.Reset()
	x.tr = trie.NewSharded(x.dict, x.opt.Shards)
	x.log.NoteFullSave(0) // a rebuild invalidates any snapshot lineage
	BuildPaths(x.tr, db, features.PathOptions{MaxLen: x.opt.MaxPathLen}, x.opt.BuildWorkers)
	x.tr.SetGallopProbeCost(index.CalibrateGallopProbeCost(x.tr))
}

// BuildPaths runs the shared parallel path-index build pipeline: workers
// claim dataset graphs, enumerate their path features and stage the
// postings; the per-shard merges run in parallel after the enumeration
// joins. Shared with Grapes, whose index is the same postings. workers ≤ 1
// enumerates inline, avoiding staging memory for the sequential case.
func BuildPaths(tr *trie.Trie, db []*graph.Graph, opt features.PathOptions, workers int) {
	if workers > len(db) {
		workers = len(db)
	}
	if workers <= 1 {
		for i, g := range db {
			ps := features.Paths(g, opt)
			insertPathSet(tr.Insert, int32(i), ps)
		}
		return
	}
	b := tr.NewBuilder(workers)
	trie.ParallelFor(len(db), workers, func(w int, claim func() int) {
		bw := b.Worker(w)
		for i := claim(); i >= 0; i = claim() {
			ps := features.Paths(db[i], opt)
			insertPathSet(bw.Insert, int32(i), ps)
		}
	})
	b.Merge()
}

// insertPathSet emits one graph's enumerated features through insert —
// either Trie.Insert (sequential) or BuildWorker.Insert (staged).
func insertPathSet(insert func(string, trie.Posting), graphID int32, ps *features.PathSet) {
	for k, c := range ps.Counts {
		insert(k, trie.Posting{Graph: graphID, Count: int32(c)})
	}
}

// Filter implements index.Method. A graph is a candidate iff for every
// query feature f: count_G(f) >= count_q(f).
func (x *Index) Filter(q *graph.Graph) []int32 {
	s := index.GetCountFilterScratch()
	defer index.PutCountFilterScratch(s)
	qf := features.PathsID(q, features.PathOptions{MaxLen: x.opt.MaxPathLen}, x.dict, s.Feat, false)
	return FilterFresh(x.tr, qf, len(x.db), s)
}

// FilterByFeatureCounts implements index.CountFilterer: filtering from a
// query already enumerated against this index's dictionary.
func (x *Index) FilterByFeatureCounts(qf features.IDSet) []int32 {
	s := index.GetCountFilterScratch()
	defer index.PutCountFilterScratch(s)
	return FilterFresh(x.tr, qf, len(x.db), s)
}

// FilterFresh runs the shared count filter and copies the result out of the
// scratch (an empty query matches every dataset position). Shared with
// Grapes, whose filter is identical.
func FilterFresh(tr *trie.Trie, qf features.IDSet, nGraphs int, s *index.CountFilterScratch) []int32 {
	if len(qf.Counts) == 0 && qf.Unknown == 0 {
		return index.AllIDs(nGraphs)
	}
	return copyIDs(index.FilterCountGE(tr, qf, s))
}

// Verify implements index.Method with a first-match test.
func (x *Index) Verify(q *graph.Graph, id int32) bool {
	return iso.Subgraph(q, x.db[id])
}

// Prepare implements index.Preparer.
func (x *Index) Prepare(q *graph.Graph) index.Verifier {
	return index.PrepareSubgraph(x.db, q)
}

// SizeBytes implements index.Method: the path trie plus the feature
// dictionary it owns (the dictionary is real index footprint — Fig 18
// under-reports without it; it is counted here, at its owner, not in
// trie.SizeBytes, because the cache-side index shares the same dictionary).
// Counted at the live vocabulary: features retired by removals are
// bookkeeping residue, not index content, so an incrementally maintained
// index accounts exactly like a fresh build over the surviving dataset.
func (x *Index) SizeBytes() int { return x.tr.SizeBytes() + x.tr.LiveDictSizeBytes() }

func copyIDs(ids []int32) []int32 {
	if len(ids) == 0 {
		return nil
	}
	return append([]int32(nil), ids...)
}

// FilterByCounts is the legacy string-keyed count filter, kept for callers
// holding a map of canonical keys (tests, tooling). The hot path is
// FilterFresh over index.FilterCountGE.
func FilterByCounts(tr *trie.Trie, want map[string]int, nGraphs int) []int32 {
	if len(want) == 0 {
		out := make([]int32, nGraphs)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	var cand []int32
	first := true
	for k, c := range want {
		posts := tr.Get(k)
		var ids []int32
		for _, p := range posts {
			if int(p.Count) >= c {
				ids = append(ids, p.Graph)
			}
		}
		// posts (and hence ids) are sorted by construction
		if first {
			cand = ids
			first = false
		} else {
			cand = index.IntersectSorted(cand, ids)
		}
		if len(cand) == 0 {
			return nil
		}
	}
	return cand
}
