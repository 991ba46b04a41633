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
	"runtime"
	"strconv"
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
	// and a build with too few graphs to keep its workers busy (or with
	// one build worker) splits each graph's start vertices into Threads
	// ranges, on at least Threads goroutines. The postings are GGSX's
	// either way. 0 is GGSX.
	Threads int
	// Shards is the segment count of a saved snapshot (rounded up to a
	// power of two, capped at 64): eager loads decode the segments in
	// parallel and lazy loads open them one at a time. 0 keeps the count of
	// the snapshot the index was loaded from, else one per CPU. It never
	// changes the index in memory or its answers.
	Shards int
	// BuildWorkers is the number of goroutines Build runs its pipeline on,
	// and an eager or lazy load decodes segments on (0 = one per CPU,
	// runtime.GOMAXPROCS). The index does not depend on it: at any width a
	// build saves the bytes a one-worker build saves, down to the feature
	// numbering.
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
		opt.BuildWorkers = runtime.GOMAXPROCS(0)
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
// through the dictionary's path table, interning every feature, into the
// trie, recording each graph's NF on the way. It runs one pipeline at every
// width, on Options.BuildWorkers goroutines (every CPU by default). The
// dataset is cut into contiguous chunks, which are enumerated in rounds:
// workers walk a round's chunks against the frozen dictionary
// (features.Round), an ordered pass interns the round's new keys chunk by
// chunk, and the chunks' postings are appended in chunk order, page stripes
// in parallel (trie.Builder). Features are thus numbered in DFS first-visit
// order over the graphs in dataset order, as a one-graph-at-a-time build
// numbers them: every width, chunking and Threads split builds the same
// index and saves the same snapshot bytes. A Grapes index with too few
// graphs for its workers — a handful of huge graphs, or a single build
// worker — cuts each graph's start vertices into Threads ranges, the
// original Grapes description, and runs on at least Threads goroutines.
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
	workers, split := x.opt.BuildWorkers, 1
	if x.opt.Threads > 1 && (workers <= 1 || len(db) < 2*workers) {
		split, workers = x.opt.Threads, max(workers, x.opt.Threads)
	}
	nf := make([]int32, len(db))
	buildPaths(x.tr, db, features.PathOptions{MaxLen: x.opt.MaxPathLen}, chunkPieces(db, split, workers), workers, nf)
	x.nf.Store(&nf)
	x.tr.SetGallopProbeCost(index.CalibrateGallopProbeCost(x.tr))
}

// Build-pipeline geometry: a chunk holds consecutive graphs with at most
// about chunkVertices vertices in all — fewer on a dataset too small to give
// every worker roundChunks chunks — and a round is roundChunks chunks per
// worker: enough for the workers to even out uneven chunks, and a bound on
// the round's staging memory.
const (
	chunkVertices = 512
	roundChunks   = 4
)

// piece is the paths of dataset graph g that start in [lo, hi).
type piece struct{ g, lo, hi int32 }

// chunkPieces cuts db into chunks of consecutive pieces for workers: whole
// graphs, except that with split > 1 a graph of at least 2·split vertices
// is cut into split start-vertex ranges, a chunk each.
func chunkPieces(db []*graph.Graph, split, workers int) [][]piece {
	total := 0
	for _, g := range db {
		total += g.NumVertices()
	}
	limit := min(chunkVertices, max(total/(roundChunks*workers), 1))
	var chunks [][]piece
	var cur []piece
	size := 0
	flush := func() {
		if len(cur) > 0 {
			chunks = append(chunks, cur)
			cur, size = nil, 0
		}
	}
	for i, g := range db {
		n := g.NumVertices()
		if split > 1 && n >= 2*split {
			flush()
			for t := 0; t < split; t++ {
				chunks = append(chunks, []piece{{int32(i), int32(t * n / split), int32((t + 1) * n / split)}})
			}
			continue
		}
		cur = append(cur, piece{int32(i), 0, int32(n)})
		if size += n; size >= limit {
			flush()
		}
	}
	flush()
	return chunks
}

// buildPaths runs the build pipeline over chunks on up to workers
// goroutines, round by round, and adds each graph's distinct features to
// nf. Staging memory is bounded by the round.
func buildPaths(tr *trie.Trie, db []*graph.Graph, opt features.PathOptions, chunks [][]piece, workers int, nf []int32) {
	workers = max(min(workers, len(chunks)), 1)
	per := roundChunks * workers
	p := &pipeline{d: tr.Dict(), b: tr.NewBuilder(), db: db, opt: opt, ss: make([]*features.Scratch, workers),
		walked: make([]features.Chunk, per), ends: make([][]int32, per), nf: nf}
	for w := range p.ss {
		p.ss[w] = features.NewScratch()
	}
	for at := 0; at < len(chunks); at += per {
		p.round(chunks[at:min(at+per, len(chunks))])
	}
	p.b.Fill(workers, nf, nil)
}

// pipeline is the state of a build that persists from round to round.
type pipeline struct {
	d      *features.Dict
	b      *trie.Builder
	db     []*graph.Graph
	opt    features.PathOptions
	ss     []*features.Scratch // one per worker
	walked []features.Chunk    // per chunk of the round: its scratch and counts
	ends   [][]int32           // per chunk of the round: where each piece's counts end
	nf     []int32
}

// round enumerates one round's chunks against the frozen dictionary;
// commits the round (interns its new keys in chunk order, extends the path
// table) while the previous round's postings fill the trie; and stages the
// round's postings under their interned IDs.
func (p *pipeline) round(chunks [][]piece) {
	walked, ends := p.walked[:len(chunks)], p.ends
	r := p.d.Freeze()
	defer r.Close()
	trie.ParallelFor(len(chunks), len(p.ss), func(w int, claim func() int) {
		s := p.ss[w]
		for c := claim(); c >= 0; c = claim() {
			counts, e := walked[c].Counts[:0], ends[c][:0]
			for _, pc := range chunks[c] {
				counts = r.AppendPaths(s, counts, p.db[pc.g], p.opt, int(pc.lo), int(pc.hi))
				e = append(e, int32(len(counts)))
			}
			walked[c], ends[c] = features.Chunk{S: s, Counts: counts}, e
		}
	})
	p.b.Fill(len(p.ss), p.nf, func() { r.Commit(walked) })
	staged := p.b.Chunks(len(chunks))
	trie.ParallelFor(len(chunks), len(p.ss), func(_ int, claim func() int) {
		for c := claim(); c >= 0; c = claim() {
			wc, from := walked[c], int32(0)
			for i, pc := range chunks[c] {
				for _, f := range wc.Counts[from:ends[c][i]] {
					staged[c].InsertID(wc.S.Resolve(f.ID), trie.Posting{Graph: pc.g, Count: f.Count})
				}
				from = ends[c][i]
			}
		}
	})
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
