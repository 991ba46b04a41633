// Package contain answers *supergraph* queries — the paper's Msuper of §4.4:
// which dataset graphs are contained in the query — by reading the path
// index the subgraph methods already keep (package ggsx, which GGSX and
// Grapes share). The paper designed its containment structure (Algorithms 1
// and 2) so that one trie could "perform both subgraph and supergraph query
// indexing and processing", and this package takes that literally:
// Algorithm 1's postings {graph, count} per feature are the path index's
// postings, and the only extra state Algorithm 2 needs, NF (the number of
// distinct features per graph), is kept by the path index beside them. So
// an Index here is a view — no dictionary, build or mutation path of its
// own — and every mutation of the store is a mutation of both reads.
//
// Semantics are the inverse of the subgraph methods: Filter(q) returns the
// dataset graphs that may be *contained in* q, and Verify(q, id) tests
// db[id] ⊆ q. The index.Method interface is shared; iGQ distinguishes the
// two via core.Options.Mode.
package contain

import (
	"sync"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/iso"
	"repro/internal/trie"
)

// Options configures a standalone containment method (New).
type Options struct {
	// MaxPathLen is the feature path length in edges (default 4).
	MaxPathLen int
}

// DefaultOptions mirrors the feature configuration of the path baselines.
func DefaultOptions() Options { return Options{MaxPathLen: 4} }

// Index is the supergraph read of one generation of a path index.
type Index struct {
	store *ggsx.Index
}

var (
	_ index.Method        = (*Index)(nil)
	_ index.DictProvider  = (*Index)(nil)
	_ index.CountFilterer = (*Index)(nil)
	_ index.Mutable       = (*Index)(nil)
)

// New returns an unbuilt containment method over a path index of its own:
// the standalone Msuper. An engine that also answers subgraph queries reads
// the index it already has instead (Over).
func New(opt Options) *Index {
	return Over(ggsx.New(ggsx.Options{MaxPathLen: opt.MaxPathLen}))
}

// Over returns the supergraph read of store. Nothing is copied or built:
// the read shares store's dictionary, postings and NF, and Build and the
// mutations below act on store.
func Over(store *ggsx.Index) *Index { return &Index{store: store} }

// Name implements index.Method.
func (x *Index) Name() string { return "Contain" }

// FeatureDict implements index.DictProvider: the store's dictionary, which
// a wrapping iGQ shares.
func (x *Index) FeatureDict() *features.Dict { return x.store.FeatureDict() }

// FeatureMaxPathLen implements index.CountFilterer.
func (x *Index) FeatureMaxPathLen() int { return x.store.FeatureMaxPathLen() }

// Build implements index.Method by building the store: Algorithm 1 is the
// path index's build, which records NF as it enumerates.
func (x *Index) Build(db []*graph.Graph) { x.store.Build(db) }

// Filter implements index.Method (Algorithm 2): candidates that may be
// subgraphs of q. No false negatives. The enumeration is lookup-only:
// features the dictionary does not know cannot disqualify an indexed graph,
// they only enlarge the query.
func (x *Index) Filter(q *graph.Graph) []int32 {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	qf := features.PathsID(q, features.PathOptions{MaxLen: x.FeatureMaxPathLen()}, x.FeatureDict(), s.feat, false)
	return x.candidates(qf, s)
}

// FilterByFeatureCounts implements index.CountFilterer: Algorithm 2 from a
// query already enumerated against the shared dictionary.
func (x *Index) FilterByFeatureCounts(qf features.IDSet) []int32 {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return x.candidates(qf, s)
}

// Verify implements index.Method with the inverted test db[id] ⊆ q.
func (x *Index) Verify(q *graph.Graph, id int32) bool {
	return iso.Subgraph(x.store.Dataset()[id], q)
}

// SizeBytes implements index.Method: the store's footprint, NF included.
// The read adds nothing of its own.
func (x *Index) SizeBytes() int { return x.store.SizeBytes() }

// AppendGraphs implements index.Mutable: the read of the store's
// copy-on-write generation over append(db, gs...).
func (x *Index) AppendGraphs(gs []*graph.Graph) (index.Mutable, []*graph.Graph, error) {
	next, db, err := x.store.AppendGraphs(gs)
	if err != nil {
		return nil, nil, err
	}
	return Over(next.(*ggsx.Index)), db, nil
}

// RemoveGraphs implements index.Mutable under the swap-removal semantics of
// index.SwapRemove, likewise.
func (x *Index) RemoveGraphs(positions []int) (index.Mutable, []*graph.Graph, []int32, error) {
	next, db, mapping, err := x.store.RemoveGraphs(positions)
	if err != nil {
		return nil, nil, nil, err
	}
	return Over(next.(*ggsx.Index)), db, mapping, nil
}

// Algorithm 2. For each indexed graph g the store holds every feature f of
// g with its occurrence count as a posting {g, count}, and NF[g], the number
// of distinct features of g. A query with feature occurrences O[f, q] keeps
// g iff every feature of g appears in q at least as often — realised,
// exactly as in Algorithm 2, by counting for each g the features that pass
// the occurrence test and keeping g iff the count equals NF[g]. The
// candidate set has no false negatives (the paper's §6.2 argument); Verify
// removes the false positives. Postings are probed by interned FeatureID,
// so query features unknown to the dictionary drop out of the count — they
// can only make the query larger.

// scratch is the reusable state of one Algorithm 2 pass.
type scratch struct {
	feat    *features.Scratch
	elig    []int32            // graphs that pass the NF gate
	lists   []trie.PostingList // the query's lists, aligned with its features
	matched []int32            // per graph id: features that passed the occurrence test (walk)
}

var scratchPool = sync.Pool{New: func() any { return &scratch{feat: features.NewScratch()} }}

// candidates is Algorithm 2 behind an NF gate. A graph's matched count can
// reach NF[g] only if NF[g] ≤ |qf| — each query feature adds at most one —
// so only the eligible graphs with NF[g] ≤ |qf| are counted; the empty
// graph (NF 0), a subgraph of everything, is always among them. The
// eligible set and the query's posting lists then fix the cheaper of two
// counting strategies before any counting is done:
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
// so the candidate set does not depend on the choice. The result is freshly
// allocated. Safe for concurrent use.
func (x *Index) candidates(qf features.IDSet, s *scratch) []int32 {
	nf := x.store.NF()
	elig, lists, postings := gate(x.store.Trie(), nf, qf, s)
	defer clear(lists) // the scratch must not pin an old generation's lists
	if len(elig)*len(lists) < postings {
		return countByProbes(nf, qf, lists, elig)
	}
	return countByWalk(nf, qf, lists, elig, s)
}

// gate returns the graphs with NF[g] ≤ |qf| in id order, the query's
// posting lists (aligned with qf.Counts) and their total length.
func gate(tr *trie.Trie, nf []int32, qf features.IDSet, s *scratch) (elig []int32, lists []trie.PostingList, postings int) {
	n := int32(len(qf.Counts))
	elig = s.elig[:0]
	for g, c := range nf {
		if c <= n {
			elig = append(elig, int32(g))
		}
	}
	lists = s.lists[:0]
	for _, fc := range qf.Counts {
		pl := tr.GetByID(fc.ID)
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
func countByProbes(nf []int32, qf features.IDSet, lists []trie.PostingList, elig []int32) []int32 {
	var cs []int32
	for _, g := range elig {
		need, matched := nf[g], int32(0)
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
func countByWalk(nf []int32, qf features.IDSet, lists []trie.PostingList, elig []int32, s *scratch) []int32 {
	if cap(s.matched) < len(nf) {
		s.matched = make([]int32, len(nf))
	}
	matched := s.matched[:len(nf)]
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
		if matched[g] == nf[g] {
			cs = append(cs, g)
		}
	}
	return cs
}
