package index

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/features"
	"repro/internal/trie"
)

// cfView is one query feature's posting list awaiting intersection. The
// container is intersected as it stands; want is non-zero when the list's
// occurrence counts still have to be checked on the survivors.
type cfView struct {
	pl   trie.PostingList
	want int32
}

// CountFilterScratch holds the reusable buffers of one count-filter pass:
// the feature-enumeration scratch, the shard-grouped feature copy, the
// per-feature views, and the intersection scratch.
type CountFilterScratch struct {
	Feat *features.Scratch

	feats    []features.IDCount // query features regrouped by shard
	shardOff []int32            // per-shard group boundaries (len K+1)
	shardCur []int32            // scatter cursors during grouping
	views    []cfView           // per-feature posting lists
	groups   [][3]int           // per-shard group: [views start, views end, min list len]
	vbuf     []View             // per-group operand assembly
	vs       ViewScratch        // serial intersection scratch
	cur      []int32            // running cross-shard partial result
	parts    [][]int32          // per-group partials (parallel fan-out)
	buf      [2][]int32         // fold buffers for the parallel path
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

// parallelGroupMin is the per-group rarest-list cardinality above which a
// multi-group query fans its shard-group intersections over goroutines:
// below it the serial partial-threading (the globally rarest list capping
// all later groups) beats any parallel speedup.
const parallelGroupMin = 1 << 13

// FilterCountGE computes the candidate ids for a count-based feature filter
// over tr: graphs holding every feature of qf with at least the wanted
// multiplicity.
//
// The pass follows the store's shard layout: query features are grouped by
// postings shard and each shard's lists are intersected as one group (all
// probes against one small per-shard map, so the map stays cache-resident
// across the group). Every feature contributes its posting container as it
// stands, with no materialisation: bitmap∧bitmap pairs inside a group
// collapse to word-ANDs and sparse partials probe dense containers in O(1)
// per element (IntersectViews). Shard groups are processed in ascending
// order of their rarest list, with the running cross-shard partial threaded
// into each group's intersection — so the globally rarest list still prunes
// all later work, exactly as the unsharded rarest-first fold did. Every
// slice-vs-slice step picks merge vs gallop from the trie's calibrated
// probe cost. Very large queries — every group's rarest list at least
// parallelGroupMin — fan the per-group intersections over bounded
// goroutines and fold the partials rarest-first.
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
// positions, all cached entries, ...) differs per index. Shared by GGSX,
// Grapes and iGQ's Isub.
func FilterCountGE(tr *trie.Trie, qf features.IDSet, s *CountFilterScratch) []int32 {
	if qf.Unknown > 0 {
		// Some query feature was never seen by this index's dictionary, so
		// no indexed graph contains it.
		return nil
	}
	if len(qf.Counts) == 0 {
		return nil
	}
	feats, off := s.groupByShard(tr, qf.Counts)

	// Phase 1: fetch each feature's posting list, one shard's group at a
	// time.
	views := s.views[:0]
	groups := s.groups[:0]
	for sh := 0; sh < tr.ShardCount(); sh++ {
		lo, hi := off[sh], off[sh+1]
		if lo == hi {
			continue
		}
		gStart := len(views)
		minLen := int(^uint(0) >> 1)
		for _, fc := range feats[lo:hi] {
			v := cfView{pl: tr.GetByID(fc.ID)}
			if fc.Count >= 2 {
				v.want = fc.Count
			}
			if v.pl.Len() == 0 || (v.want > 0 && v.pl.UniformCounts()) {
				// No posting at all, or a threshold ≥ 2 against all-count-1
				// postings: nothing passes.
				s.views, s.groups = views, groups
				return nil
			}
			minLen = min(minLen, v.pl.Len())
			views = append(views, v)
		}
		groups = append(groups, [3]int{gStart, len(views), minLen})
	}
	s.views = views

	// Phase 2: intersect shard by shard, rarest shard first, folding the
	// running partial into each group so it caps the group's work.
	slices.SortFunc(groups, func(a, b [3]int) int { return a[2] - b[2] })
	s.groups = groups
	probeCost := tr.GallopProbeCost()
	if len(groups) >= 2 && groups[0][2] >= parallelGroupMin && runtime.GOMAXPROCS(0) > 1 {
		return s.thresholdSurvivors(s.filterParallel(probeCost))
	}
	var cur []int32
	for gi, g := range groups {
		vbuf := s.vbuf[:0]
		if gi > 0 {
			vbuf = append(vbuf, View{IDs: cur})
		}
		vbuf = s.appendGroupViews(vbuf, g)
		s.vbuf = vbuf
		part := IntersectViews(vbuf, probeCost, &s.vs)
		if len(part) == 0 {
			return nil
		}
		// Copy the partial out of the intersection scratch: the next
		// group's IntersectViews reuses it.
		s.cur = append(s.cur[:0], part...)
		cur = s.cur
	}
	return s.thresholdSurvivors(cur)
}

// appendGroupViews assembles one shard group's intersection operands.
func (s *CountFilterScratch) appendGroupViews(dst []View, g [3]int) []View {
	for _, v := range s.views[g[0]:g[1]] {
		dst = append(dst, View{C: v.pl.IDs()})
	}
	return dst
}

// thresholdSurvivors applies the wanted counts to the intersection's
// survivors, in place (cur is scratch-owned), one forward pass per
// thresholded list.
func (s *CountFilterScratch) thresholdSurvivors(cur []int32) []int32 {
	for _, v := range s.views {
		if v.want > 0 && len(cur) > 0 {
			cur = v.pl.RetainCountGE(cur, v.want)
		}
	}
	if len(cur) == 0 {
		return nil
	}
	return cur
}

// filterParallel computes each shard group's intersection on its own
// goroutine (bounded by GOMAXPROCS, 4, and the group count), then folds
// the per-group partials rarest-first. Used only when every group's
// rarest list clears parallelGroupMin — large enough that the lost
// cross-group partial-threading is cheaper than the serial wall-clock.
func (s *CountFilterScratch) filterParallel(probeCost int) []int32 {
	groups := s.groups
	if cap(s.parts) < len(groups) {
		s.parts = make([][]int32, len(groups))
	}
	parts := s.parts[:len(groups)]
	workers := min(runtime.GOMAXPROCS(0), len(groups), 4)
	trie.ParallelFor(len(groups), workers, func(_ int, claim func() int) {
		for gi := claim(); gi >= 0; gi = claim() {
			vs := GetViewScratch()
			views := s.appendGroupViews(make([]View, 0, groups[gi][1]-groups[gi][0]), groups[gi])
			part := IntersectViews(views, probeCost, vs)
			parts[gi] = append(parts[gi][:0], part...) // copy out before pooling
			PutViewScratch(vs)
		}
	})
	slices.SortFunc(parts, func(a, b []int32) int { return len(a) - len(b) })
	cur := parts[0]
	which := 0
	for _, p := range parts[1:] {
		if len(cur) == 0 {
			return nil
		}
		s.buf[which] = IntersectIntoCost(s.buf[which], cur, p, probeCost)
		cur = s.buf[which]
		which = 1 - which
	}
	if len(cur) == 0 {
		return nil
	}
	return cur
}

// groupByShard scatters the query features into shard-contiguous order
// (counting sort over ShardOf). qf.Counts itself is left untouched: it is
// shared with the caller's other index probes, which may run concurrently.
func (s *CountFilterScratch) groupByShard(tr *trie.Trie, counts []features.IDCount) ([]features.IDCount, []int32) {
	k := tr.ShardCount()
	if cap(s.shardOff) < k+1 {
		s.shardOff = make([]int32, k+1)
		s.shardCur = make([]int32, k)
	}
	off := s.shardOff[:k+1]
	cur := s.shardCur[:k]
	for i := range off {
		off[i] = 0
	}
	for _, fc := range counts {
		off[tr.ShardOf(fc.ID)+1]++
	}
	for i := 1; i <= k; i++ {
		off[i] += off[i-1]
	}
	copy(cur, off[:k])
	if cap(s.feats) < len(counts) {
		s.feats = make([]features.IDCount, len(counts))
	}
	feats := s.feats[:len(counts)]
	for _, fc := range counts {
		sh := tr.ShardOf(fc.ID)
		feats[cur[sh]] = fc
		cur[sh]++
	}
	return feats, off
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
