package index

import (
	"slices"
	"sync"

	"repro/internal/features"
	"repro/internal/trie"
)

// cfView is one query feature's posting list awaiting intersection. The
// container is intersected as it stands; n is its length; want is non-zero
// when the list's occurrence counts still have to be checked on the
// survivors.
type cfView struct {
	pl   trie.PostingList
	n    int
	want int32
}

// CountFilterScratch holds the reusable buffers of one count-filter pass:
// the feature-enumeration scratch, the per-feature views, and the
// intersection scratch.
type CountFilterScratch struct {
	Feat *features.Scratch

	views []cfView    // per-feature posting lists
	vbuf  []View      // intersection operands
	vs    ViewScratch // intersection scratch
	cur   []int32     // survivors, copied out of the intersection
}

var countFilterPool = sync.Pool{
	New: func() any { return &CountFilterScratch{Feat: features.NewScratch()} },
}

// GetCountFilterScratch borrows a scratch from the shared pool.
func GetCountFilterScratch() *CountFilterScratch {
	return countFilterPool.Get().(*CountFilterScratch)
}

// PutCountFilterScratch returns a scratch to the pool. Any FilterCountGE
// result aliasing it must have been copied out first.
func PutCountFilterScratch(s *CountFilterScratch) { countFilterPool.Put(s) }

// FilterCountGE computes the candidate ids for a count-based feature filter
// over tr: graphs holding every feature of qf with at least the wanted
// multiplicity.
//
// Every feature contributes its posting container as it stands, with no
// materialisation, and the lists are intersected in one rarest-first fold
// (IntersectViews): bitmap∧bitmap pairs collapse to word-ANDs, sparse
// partials probe dense containers in O(1) per element, and every
// slice-vs-slice step picks merge vs gallop from the trie's calibrated
// probe cost.
//
// Count thresholds run after the intersection, on the survivors only: a
// feature wanted at least twice whose list carries non-unit counts checks
// them in one forward pass over the sorted survivors
// (PostingList.RetainCountGE), so it costs O(survivors + container words)
// instead of a walk over all of its postings. Two cases need no pass at
// all: an empty list, and a threshold ≥ 2 against an all-count-1 list,
// both of which empty the result outright. The result may alias s and is
// only valid until the scratch is reused.
//
// Callers must handle the empty-feature case (len(qf.Counts) == 0 &&
// qf.Unknown == 0) themselves: the matching universe (all dataset
// positions, ...) differs per index. Shared by GGSX and Grapes; iGQ's
// Isub applies the same per-feature count comparison in its own pass over
// the cached graphs (cacheIndex.candidates in internal/core).
func FilterCountGE(tr *trie.Trie, qf features.IDSet, s *CountFilterScratch) []int32 {
	if qf.Unknown > 0 {
		// Some query feature was never seen by this index's dictionary, so
		// no indexed graph contains it.
		return nil
	}
	if len(qf.Counts) == 0 {
		return nil
	}
	views, vbuf := s.views[:0], s.vbuf[:0]
	for _, fc := range qf.Counts {
		v := cfView{pl: tr.GetByID(fc.ID)}
		v.n = v.pl.Len()
		if fc.Count >= 2 {
			v.want = fc.Count
		}
		if v.n == 0 || (v.want > 0 && v.pl.UniformCounts()) {
			// No posting at all, or a threshold ≥ 2 against all-count-1
			// postings: nothing passes.
			s.views = views
			return nil
		}
		views = append(views, v)
	}
	// Rarest first, by the lengths already in hand: IntersectViews then
	// finds its operands in order, and the thresholds below run from the
	// shortest list up.
	slices.SortFunc(views, func(a, b cfView) int { return a.n - b.n })
	for _, v := range views {
		vbuf = append(vbuf, View{C: v.pl.IDs()})
	}
	s.views, s.vbuf = views, vbuf
	// Copy the survivors out: the intersection may alias a posting list,
	// and the thresholds below filter in place.
	s.cur = append(s.cur[:0], IntersectViews(vbuf, tr.GallopProbeCost(), &s.vs)...)
	cur := s.cur
	for _, v := range views {
		if v.want > 0 && len(cur) > 0 {
			cur = v.pl.RetainCountGE(cur, v.want)
		}
	}
	if len(cur) == 0 {
		return nil
	}
	return cur
}

// AllIDs returns the identity universe [0, n) — the empty-query candidate
// set for dense dataset indexes.
func AllIDs(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
