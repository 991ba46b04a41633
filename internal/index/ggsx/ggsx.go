// Package ggsx reimplements GraphGrepSX (Bonnici et al., PRIB 2010), one of
// the three state-of-the-art baselines the paper incorporates iGQ into. Its
// index is Grapes' too (package grapes): the two methods enumerate the same
// path features into the same postings and differ only in how a build
// spreads the enumeration over threads (Options.Threads), so one type holds
// both. And one store serves both query directions: Filter reads it for
// subgraph queries, package contain for supergraph queries, from the same
// postings plus NF (see Index.NF).
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
	"strconv"
	"sync"
	"sync/atomic"

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
	// Threads, when positive, makes the index Grapes(Threads), the paper's
	// parallel path index: the method and its snapshots are named Grapes,
	// BuildWorkers defaults to Threads, and a build with too few graphs to
	// keep its workers busy splits each graph's start vertices over Threads
	// goroutines instead. The postings are GGSX's either way. 0 is GGSX.
	Threads int
	// Shards is the segment count of a saved snapshot (rounded up to a
	// power of two, capped at 64): eager loads decode the segments in
	// parallel and lazy loads open them one at a time. 0 keeps the count of
	// the snapshot the index was loaded from, else one per CPU. It never
	// changes the index in memory or its answers.
	Shards int
	// BuildWorkers is the number of goroutines Build fans graph feature
	// enumeration out over (0 = Threads, or 1 — sequential, the original
	// single-threaded GGSX — when Threads is 0). Any worker count produces
	// an identical index.
	BuildWorkers int
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions() Options { return Options{MaxPathLen: 4} }

// Index is the GGSX (or Grapes) method. Create with New, then Build. Dataset
// mutation (AppendGraphs/RemoveGraphs) is copy-on-write: it returns a new
// Index generation and leaves the receiver serving the old dataset;
// generations share the dictionary and the delta log.
type Index struct {
	opt  Options
	db   []*graph.Graph
	dict *features.Dict
	tr   *trie.Trie
	log  *index.DeltaLog // unsaved mutations; shared across generations

	// nf is NF: per dataset position, the number of distinct features of
	// the graph there, which a supergraph read needs beside the postings. A
	// build records it as it enumerates and a mutation carries it over. A
	// snapshot does not hold it, so a loaded index leaves it nil until the
	// first read counts it from the postings.
	nf atomic.Pointer[[]int32]
}

var (
	_ index.Method        = (*Index)(nil)
	_ index.DictProvider  = (*Index)(nil)
	_ index.CountFilterer = (*Index)(nil)
	_ index.Preparer      = (*Index)(nil)
)

// New returns an unbuilt GGSX index, or Grapes when opt.Threads > 0.
func New(opt Options) *Index {
	if opt.MaxPathLen <= 0 {
		opt.MaxPathLen = 4
	}
	opt.Threads = max(opt.Threads, 0)
	if opt.BuildWorkers <= 0 {
		opt.BuildWorkers = max(opt.Threads, 1)
	}
	x := &Index{opt: opt, dict: features.NewDict(), log: index.NewDeltaLog()}
	x.tr = x.newTrie()
	return x
}

// newTrie returns an empty trie over the index's dictionary that saves
// Options.Shards segments.
func (x *Index) newTrie() *trie.Trie {
	tr := trie.NewWithDict(x.dict)
	tr.SetSegments(x.opt.Shards)
	return tr
}

// adoptSegments applies the segment rule to a freshly loaded trie: an
// explicit Options.Shards overrides the count the snapshot carried.
func (x *Index) adoptSegments(tr *trie.Trie) {
	if x.opt.Shards > 0 {
		tr.SetSegments(x.opt.Shards)
	}
}

// Name implements index.Method: GGSX, or Grapes with its thread count as in
// the paper ("Grapes" for one thread, "Grapes(6)" for six).
func (x *Index) Name() string {
	switch x.opt.Threads {
	case 0:
		return "GGSX"
	case 1:
		return "Grapes"
	}
	return "Grapes(" + strconv.Itoa(x.opt.Threads) + ")"
}

// kind tags the index's snapshots and errors. The thread count is runtime
// configuration, not index content, so it is not part of the tag: a
// Grapes(6) process loads a Grapes(1) snapshot, but not a GGSX one.
func (x *Index) kind() string {
	if x.opt.Threads > 0 {
		return "Grapes"
	}
	return "GGSX"
}

// FeatureDict implements index.DictProvider.
func (x *Index) FeatureDict() *features.Dict { return x.dict }

// FeatureMaxPathLen implements index.CountFilterer.
func (x *Index) FeatureMaxPathLen() int { return x.opt.MaxPathLen }

// Trie returns the postings store, for reads that interpret the same
// postings another way (package contain) and for inspection. Callers must
// not modify it.
func (x *Index) Trie() *trie.Trie { return x.tr }

// NF returns, per dataset position, the number of distinct features of the
// graph there: the NF table of the paper's Algorithm 2, which package
// contain reads beside the postings. The slice is shared and read-only. On
// an index loaded from a snapshot the first call counts it from the
// postings (materialising a lazily opened trie); concurrent first calls may
// each count, and one result is kept.
func (x *Index) NF() []int32 {
	if p := x.nf.Load(); p != nil {
		return *p
	}
	nf := x.tr.GraphFeatureCounts(len(x.db))
	x.nf.CompareAndSwap(nil, &nf)
	return *x.nf.Load()
}

// Build implements index.Method: enumerate the paths of every dataset graph
// through the dictionary's path table (features.PathsID, interning every
// feature) into the trie, recording each graph's NF on the way. With
// BuildWorkers > 1 the enumeration fans out over graphs, each worker
// staging into private buffers that merge deterministically
// (trie.Builder). A Grapes index with too few graphs for
// its workers — a handful of huge graphs, or an explicit single build worker
// — splits each graph's start vertices over Threads goroutines instead, the
// original Grapes description. Every strategy builds the same postings; a
// sequential build also numbers the features the same way every time (in
// DFS first-visit order), so two sequential builds of one dataset save
// identical snapshots.
// The trie and the dictionary contents are reset on entry — the *Dict object
// handed out by FeatureDict stays valid (holders remain wired to this
// index), but a re-Build does not retain the previous dataset's dead
// vocabulary; structures keyed by the old IDs must be rebuilt, which iGQ
// does at its next cache-index build.
func (x *Index) Build(db []*graph.Graph) {
	x.db = db
	x.dict.Reset()
	x.tr = x.newTrie()
	x.log.NoteFullSave(0) // a rebuild invalidates any snapshot lineage
	opt := features.PathOptions{MaxLen: x.opt.MaxPathLen}
	nf := make([]int32, len(db))
	if x.opt.Threads > 1 && (x.opt.BuildWorkers <= 1 || len(db) < 2*x.opt.BuildWorkers) {
		ss := make([]*features.Scratch, x.opt.Threads)
		for t := range ss {
			ss[t] = features.NewScratch()
		}
		for i, g := range db {
			nf[i] = insertFeatures(x.tr.InsertID, int32(i), x.enumerate(g, opt, ss))
		}
	} else {
		buildPaths(x.tr, db, opt, x.opt.BuildWorkers, nf)
	}
	x.nf.Store(&nf)
	x.tr.SetGallopProbeCost(index.CalibrateGallopProbeCost(x.tr))
}

// buildPaths runs the parallel build pipeline: workers claim dataset graphs,
// enumerate their path features through the trie's dictionary, stage the
// postings and record each graph's NF in nf; the merges run in parallel
// after the enumeration joins. workers ≤ 1 enumerates inline, avoiding
// staging memory for the sequential case.
func buildPaths(tr *trie.Trie, db []*graph.Graph, opt features.PathOptions, workers int, nf []int32) {
	workers = min(workers, len(db))
	d := tr.Dict()
	if workers <= 1 {
		s := features.NewScratch()
		for i, g := range db {
			nf[i] = insertFeatures(tr.InsertID, int32(i), features.PathsID(g, opt, d, s, true).Counts)
		}
		return
	}
	b := tr.NewBuilder(workers)
	trie.ParallelFor(len(db), workers, func(w int, claim func() int) {
		bw, s := b.Worker(w), features.NewScratch()
		for i := claim(); i >= 0; i = claim() {
			nf[i] = insertFeatures(bw.InsertID, int32(i), features.PathsID(db[i], opt, d, s, true).Counts)
		}
	})
	b.Merge()
}

// insertFeatures emits one graph's enumerated features through insert —
// either Trie.InsertID (sequential) or BuildWorker.InsertID (staged) — and
// returns how many distinct features the graph has.
func insertFeatures(insert func(features.FeatureID, trie.Posting), graphID int32, feats []features.IDCount) int32 {
	for _, f := range feats {
		insert(f.ID, trie.Posting{Graph: graphID, Count: f.Count})
	}
	return int32(len(feats))
}

// enumerate is Grapes' per-graph parallelism: it splits g's start vertices
// across one worker per scratch in ss and sums the per-worker counts. The
// result is owned by ss[0], or fresh.
func (x *Index) enumerate(g *graph.Graph, opt features.PathOptions, ss []*features.Scratch) []features.IDCount {
	n, w := g.NumVertices(), len(ss)
	if w <= 1 || n < 2*w {
		return features.PathsID(g, opt, x.dict, ss[0], true).Counts
	}
	parts := make([][]features.IDCount, w)
	var wg sync.WaitGroup
	for t := 0; t < w; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			parts[t] = features.PathsIDRange(g, opt, x.dict, ss[t], true, t*n/w, (t+1)*n/w).Counts
		}(t)
	}
	wg.Wait()
	var out []features.IDCount
	at := make(map[features.FeatureID]int)
	for _, p := range parts {
		for _, f := range p {
			if i, ok := at[f.ID]; ok {
				out[i].Count += f.Count
			} else {
				at[f.ID] = len(out)
				out = append(out, f)
			}
		}
	}
	return out
}

// Filter implements index.Method. A graph is a candidate iff for every
// query feature f: count_G(f) >= count_q(f).
func (x *Index) Filter(q *graph.Graph) []int32 {
	s := index.GetCountFilterScratch()
	defer index.PutCountFilterScratch(s)
	qf := features.PathsID(q, features.PathOptions{MaxLen: x.opt.MaxPathLen}, x.dict, s.Feat, false)
	return x.filterFresh(qf, s)
}

// FilterByFeatureCounts implements index.CountFilterer: filtering from a
// query already enumerated against this index's dictionary.
func (x *Index) FilterByFeatureCounts(qf features.IDSet) []int32 {
	s := index.GetCountFilterScratch()
	defer index.PutCountFilterScratch(s)
	return x.filterFresh(qf, s)
}

// filterFresh runs the shared count filter and copies the result out of the
// scratch (an empty query matches every dataset position).
func (x *Index) filterFresh(qf features.IDSet, s *index.CountFilterScratch) []int32 {
	if len(qf.Counts) == 0 && qf.Unknown == 0 {
		return index.AllIDs(len(x.db))
	}
	return copyIDs(index.FilterCountGE(x.tr, qf, s))
}

// Verify implements index.Method with a first-match test.
func (x *Index) Verify(q *graph.Graph, id int32) bool {
	return iso.Subgraph(q, x.db[id])
}

// Prepare implements index.Preparer.
func (x *Index) Prepare(q *graph.Graph) index.Verifier {
	return index.PrepareSubgraph(x.db, q)
}

// SizeBytes implements index.Method: the path trie, the feature dictionary
// it owns and NF. The dictionary is real index footprint — Fig 18
// under-reports without it; it is counted here, at its owner, not in
// trie.SizeBytes, because the cache-side index shares the same dictionary.
// Counted at the live vocabulary: features retired by removals are
// bookkeeping residue, not index content, so an incrementally maintained
// index accounts exactly like a fresh build over the surviving dataset. NF
// is counted at 4 B per graph whether or not a loaded index has counted it
// yet, so a loaded index sizes like a built one.
func (x *Index) SizeBytes() int { return x.tr.SizeBytes() + x.tr.LiveDictSizeBytes() + 4*len(x.db) }

func copyIDs(ids []int32) []int32 {
	if len(ids) == 0 {
		return nil
	}
	return append([]int32(nil), ids...)
}
