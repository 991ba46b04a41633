package core

import (
	"sync"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/trie"
)

// ContainmentIndex is the paper's novel supergraph index (Algorithms 1 and
// 2): a trie over the features of a set of indexed graphs that, given a
// query graph g, returns the candidate indexed graphs that may be
// *subgraphs* of g.
//
// For each indexed graph gi, the index stores every feature f of gi with its
// occurrence count o as a posting {gi, o} (Algorithm 1), plus NF[gi], the
// number of distinct features of gi. A query g with feature occurrences
// O[f, g] produces candidates gi for which every feature of gi appears in g
// with o ≤ O[f, g] — realised, exactly as in Algorithm 2, by counting for
// each gi the features that pass the occurrence test and keeping gi iff the
// count equals NF[gi]. The candidate set has no false negatives (see the
// paper's §6.2 argument); callers verify gi ⊆ g to remove false positives.
//
// Postings are probed by interned FeatureID. Query features unknown to the
// dictionary are harmless here: they can only make the query *larger*, and
// Algorithm 2 only requires every *indexed* feature to appear in the query.
//
// Package index/contain wraps a ContainmentIndex over the dataset graphs to
// obtain a standalone supergraph query processing method (the paper's §4.4
// Msuper); graph ids are then dataset positions, which is why every per-graph
// table here is an array indexed by id. iGQ's own Isuper over the cached
// query graphs is the same algorithm on a flat layout (cacheIndex).
type ContainmentIndex struct {
	maxPathLen int
	tr         *trie.Trie
	nf         []int32 // NF[gi]: distinct feature count per graph id; -1 = not indexed

	// pool of scratch state for the entry points. A built index is
	// immutable — dataset mutation goes through the copy-on-write
	// NewMutation/ApplyMutation pair — so lookups are concurrency-safe.
	pool sync.Pool
}

// ciScratch is the reusable state of one Algorithm 2 pass.
type ciScratch struct {
	feat    *features.Scratch
	matched []int32 // per graph id: features that passed the occurrence test
}

// NewContainmentIndex returns an empty containment index with a private
// feature dictionary, using labeled simple paths of up to maxPathLen edges
// as the feature family.
func NewContainmentIndex(maxPathLen int) *ContainmentIndex {
	return NewContainmentIndexWithDict(maxPathLen, features.NewDict())
}

// NewContainmentIndexWithDict returns an empty containment index whose
// features are interned through d (shared with other indexes over the same
// feature family), with the default postings shard count.
func NewContainmentIndexWithDict(maxPathLen int, d *features.Dict) *ContainmentIndex {
	if maxPathLen <= 0 {
		maxPathLen = 4
	}
	return newContainmentIndex(maxPathLen, trie.NewSharded(d, 0), nil)
}

// newContainmentIndex assembles an index around an existing trie and NF
// table (the constructors and the copy-on-write mutation path share it).
func newContainmentIndex(maxPathLen int, tr *trie.Trie, nf []int32) *ContainmentIndex {
	ci := &ContainmentIndex{maxPathLen: maxPathLen, tr: tr, nf: nf}
	ci.pool.New = func() any { return &ciScratch{feat: features.NewScratch()} }
	return ci
}

// setNF records id's distinct-feature count, growing the table to reach it.
func (ci *ContainmentIndex) setNF(id int32, n int) {
	for int(id) >= len(ci.nf) {
		ci.nf = append(ci.nf, -1)
	}
	ci.nf[id] = int32(n)
}

// Add indexes graph g under identifier id (Algorithm 1's loop body).
func (ci *ContainmentIndex) Add(id int32, g *graph.Graph) {
	s := ci.pool.Get().(*ciScratch)
	qf := features.PathsID(g, features.PathOptions{MaxLen: ci.maxPathLen}, ci.tr.Dict(), s.feat, true)
	ci.AddFromIDCounts(id, qf)
	ci.pool.Put(s)
}

// AddFromIDCounts indexes a graph by its pre-enumerated, interned feature
// occurrences, letting callers share one enumeration across several indexes.
func (ci *ContainmentIndex) AddFromIDCounts(id int32, qf features.IDSet) {
	ci.setNF(id, len(qf.Counts))
	for _, fc := range qf.Counts {
		ci.tr.InsertID(fc.ID, trie.Posting{Graph: id, Count: fc.Count})
	}
}

// Dict returns the index's feature dictionary.
func (ci *ContainmentIndex) Dict() *features.Dict { return ci.tr.Dict() }

// MaxPathLen returns the feature length the index was built with.
func (ci *ContainmentIndex) MaxPathLen() int { return ci.maxPathLen }

// Len returns the number of indexed graphs.
func (ci *ContainmentIndex) Len() int {
	n := 0
	for _, c := range ci.nf {
		if c >= 0 {
			n++
		}
	}
	return n
}

// CandidateSubgraphs implements Algorithm 2: the ids of indexed graphs that
// may satisfy gi ⊆ g. The result is sorted ascending, freshly allocated,
// and contains no false negatives. Safe for concurrent use.
func (ci *ContainmentIndex) CandidateSubgraphs(g *graph.Graph) []int32 {
	s := ci.pool.Get().(*ciScratch)
	defer ci.pool.Put(s)
	// Lookup-only enumeration: unknown features cannot disqualify an
	// indexed subgraph, they only enlarge the query.
	qf := features.PathsID(g, features.PathOptions{MaxLen: ci.maxPathLen}, ci.tr.Dict(), s.feat, false)
	return ci.candidatesFromIDs(qf, s)
}

// CandidatesFromIDSet is Algorithm 2 given a query already enumerated
// against this index's dictionary (lookup-only enumeration is sufficient:
// unknown features only enlarge the query). The result is freshly
// allocated and sorted. Safe for concurrent use.
func (ci *ContainmentIndex) CandidatesFromIDSet(qf features.IDSet) []int32 {
	s := ci.pool.Get().(*ciScratch)
	defer ci.pool.Put(s)
	return ci.candidatesFromIDs(qf, s)
}

// candidatesFromIDs is Algorithm 2 given pre-enumerated query occurrences
// O[f, g]: count per graph id, in an array, the features that pass the
// occurrence test, then keep in id order the graphs whose count is their NF
// — which a graph with no features, the empty graph that is a subgraph of
// everything, meets with no posting at all.
func (ci *ContainmentIndex) candidatesFromIDs(qf features.IDSet, s *ciScratch) []int32 {
	if cap(s.matched) < len(ci.nf) {
		s.matched = make([]int32, len(ci.nf))
	}
	matched := s.matched[:len(ci.nf)]
	clear(matched)
	for _, fc := range qf.Counts {
		pl := ci.tr.GetByID(fc.ID)
		if pl.UniformCounts() && fc.Count >= 1 {
			// Every posting has count 1 ≤ fc.Count: no per-posting test.
			pl.Range(func(_ int, g int32) bool {
				matched[g]++
				return true
			})
			continue
		}
		want := fc.Count
		pl.Range(func(i int, g int32) bool {
			if pl.CountAt(i) <= want {
				matched[g]++
			}
			return true
		})
	}
	var cs []int32
	for id, cnt := range matched {
		if cnt == ci.nf[id] {
			cs = append(cs, int32(id))
		}
	}
	return cs
}

// SizeBytes approximates the index footprint (trie plus NF table).
func (ci *ContainmentIndex) SizeBytes() int {
	return ci.tr.SizeBytes() + 4*len(ci.nf)
}

// LiveDictSizeBytes reports the feature dictionary's footprint counted at
// live features only — dead entries left behind by removals are excluded,
// so a mutated index sizes identically to a from-scratch rebuild.
func (ci *ContainmentIndex) LiveDictSizeBytes() int { return ci.tr.LiveDictSizeBytes() }
