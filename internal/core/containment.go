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
	elig    []int32            // graphs that pass the NF gate
	lists   []trie.PostingList // the query's lists, aligned with its features
	matched []int32            // per graph id: features that passed the occurrence test (walk)
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
// O[f, g], behind an NF gate. A graph's matched count can reach NF[g] only
// if NF[g] ≤ |qf| — each query feature adds at most one — so only the
// eligible graphs with 0 ≤ NF[g] ≤ |qf| are counted; the empty graph (NF
// 0), a subgraph of everything, is always among them. The eligible set and
// the query's posting lists then fix the cheaper of two counting
// strategies before any counting is done:
//
//   - probes (countByProbes), when |elig|·|qf| < Σ|postings|: each eligible
//     graph looks itself up in the query's lists, stopping as soon as its
//     count reaches NF or no longer can. Small queries — most supergraph
//     queries against a dataset of larger graphs — leave few eligible
//     graphs and pay per graph, not per posting;
//   - the walk (countByWalk), otherwise: every posting of every query
//     feature bumps its graph's counter, as in the paper. Dataset-sized
//     queries, the paper's own supergraph setting, stay here.
//
// Both keep the eligible graphs whose count equals their NF, in id order,
// so the candidate set does not depend on the choice.
func (ci *ContainmentIndex) candidatesFromIDs(qf features.IDSet, s *ciScratch) []int32 {
	elig, lists, postings := ci.gate(qf, s)
	defer clear(lists) // the scratch must not pin an old generation's lists
	if len(elig)*len(lists) < postings {
		return ci.countByProbes(qf, lists, elig)
	}
	return ci.countByWalk(qf, lists, elig, s)
}

// gate returns the graphs with 0 ≤ NF[g] ≤ |qf| in id order, the query's
// posting lists (aligned with qf.Counts) and their total length.
func (ci *ContainmentIndex) gate(qf features.IDSet, s *ciScratch) (elig []int32, lists []trie.PostingList, postings int) {
	n := int32(len(qf.Counts))
	elig = s.elig[:0]
	for g, nf := range ci.nf {
		if nf >= 0 && nf <= n {
			elig = append(elig, int32(g))
		}
	}
	lists = s.lists[:0]
	for _, fc := range qf.Counts {
		pl := ci.tr.GetByID(fc.ID)
		lists = append(lists, pl)
		postings += pl.Len()
	}
	s.elig, s.lists = elig, lists
	return elig, lists, postings
}

// countByProbes decides each eligible graph g by probing the query's lists
// for it: a feature of g the query holds often enough counts, one it holds
// too rarely rejects g outright, and g is rejected once the lists left
// cannot lift its count to NF[g].
func (ci *ContainmentIndex) countByProbes(qf features.IDSet, lists []trie.PostingList, elig []int32) []int32 {
	var cs []int32
	for _, g := range elig {
		need, matched := ci.nf[g], int32(0)
		for i := 0; matched < need && need-matched <= int32(len(lists)-i); i++ {
			c := lists[i].CountOf(g)
			if c > qf.Counts[i].Count {
				break
			}
			if c > 0 {
				matched++
			}
		}
		if matched == need {
			cs = append(cs, g)
		}
	}
	return cs
}

// countByWalk counts per graph id, in an array, the features that pass the
// occurrence test by walking every posting of the query's lists, then keeps
// the eligible graphs whose count is their NF.
func (ci *ContainmentIndex) countByWalk(qf features.IDSet, lists []trie.PostingList, elig []int32, s *ciScratch) []int32 {
	if cap(s.matched) < len(ci.nf) {
		s.matched = make([]int32, len(ci.nf))
	}
	matched := s.matched[:len(ci.nf)]
	clear(matched)
	for i, pl := range lists {
		want := qf.Counts[i].Count
		if pl.UniformCounts() && want >= 1 {
			// Every posting has count 1 ≤ want: no per-posting test.
			pl.Range(func(_ int, g int32) bool {
				matched[g]++
				return true
			})
			continue
		}
		pl.Range(func(r int, g int32) bool {
			if pl.CountAt(r) <= want {
				matched[g]++
			}
			return true
		})
	}
	var cs []int32
	for _, g := range elig {
		if matched[g] == ci.nf[g] {
			cs = append(cs, g)
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
