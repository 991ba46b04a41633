package index

// Container-aware set intersection. The trie's posting containers
// (array / bitmap / run-length) expose three complementary fast paths:
//
//   - bitmap ∧ bitmap collapses to a word-wise AND over the overlapping
//     span — O(span/64) regardless of cardinality, the path that makes
//     intersections *cheaper* on the dense features that were previously
//     the worst case;
//   - sparse ∩ bitmap (or runs) probes each element of the running
//     partial through O(1)/O(log runs) membership — never materialising
//     the dense side at all;
//   - array ∩ array keeps the existing merge/gallop pair, switched by the
//     calibrated cost model (shouldGallopCost).
//
// The running partial stays the global cap: views fold in ascending
// cardinality order, so every step's work is bounded by the smallest set
// seen so far.

import (
	"math/bits"
	"slices"

	"repro/internal/trie"
)

// View is one intersection operand: either a plain ascending
// duplicate-free id slice (IDs) or a posting container (C). Exactly one
// of the two is set.
type View struct {
	IDs []int32
	C   trie.Container
}

// Len returns the operand's cardinality.
func (v View) Len() int {
	if v.C != nil {
		return v.C.Len()
	}
	return len(v.IDs)
}

// slice returns the operand as a plain id slice when that costs nothing
// (an IDs view or an array container), else nil.
func (v View) slice() []int32 {
	if v.IDs != nil {
		return v.IDs
	}
	if a, ok := v.C.(*trie.ArrayContainer); ok {
		return a.Slice()
	}
	return nil
}

// ViewScratch holds the reusable buffers of one IntersectViews pass.
type ViewScratch struct {
	views []View
	words []uint64
	out   []int32
	buf   [2][]int32
}

// IntersectViews intersects the operands and returns the ascending result
// ids. probeCost is the calibrated galloping probe cost (≤ 0 selects the
// package default). The result may alias s's buffers or an input slice
// and is valid until the scratch is reused; views is reordered in place
// of s's copy, never the caller's slice.
func IntersectViews(views []View, probeCost int, s *ViewScratch) []int32 {
	if probeCost <= 0 {
		probeCost = DefaultGallopProbeCost
	}
	if len(views) == 0 {
		return nil
	}
	// All-bitmap queries take the pure word-AND path: the span only
	// shrinks, so the whole chain is O(Σ overlap-words) with a single
	// materialisation at the end.
	allBitmap := true
	for _, v := range views {
		if _, ok := v.C.(*trie.BitmapContainer); !ok {
			allBitmap = false
			break
		}
	}
	if allBitmap && len(views) > 1 {
		return intersectBitmapViews(views, s)
	}
	vs := append(s.views[:0], views...)
	s.views = vs
	slices.SortFunc(vs, func(a, b View) int { return a.Len() - b.Len() })
	// Seed the partial from the smallest operand (zero-copy when it is
	// already a slice), then fold the rest in ascending order: slices via
	// merge/gallop, bitmap and run containers via membership probes of the
	// partial — the partial is never larger than the probed side, so the
	// probe direction is always the cheap one.
	cur := vs[0].slice()
	if cur == nil {
		s.out = vs[0].C.AppendTo(s.out[:0])
		cur = s.out
	}
	which := 0
	for _, v := range vs[1:] {
		if len(cur) == 0 {
			return nil
		}
		if ids := v.slice(); ids != nil {
			s.buf[which] = IntersectIntoCost(s.buf[which], cur, ids, probeCost)
		} else {
			dst := s.buf[which][:0]
			c := v.C
			for _, x := range cur {
				if c.Contains(x) {
					dst = append(dst, x)
				}
			}
			s.buf[which] = dst
		}
		cur = s.buf[which]
		which = 1 - which
	}
	return cur
}

// intersectBitmapViews ANDs bitmap operands word-wise over their
// overlapping span and materialises the surviving ids.
func intersectBitmapViews(views []View, s *ViewScratch) []int32 {
	b0 := views[0].C.(*trie.BitmapContainer)
	loW := int(b0.Base()) >> 6
	hiW := loW + len(b0.Words()) - 1
	for _, v := range views[1:] {
		b := v.C.(*trie.BitmapContainer)
		l := int(b.Base()) >> 6
		h := l + len(b.Words()) - 1
		loW = max(loW, l)
		hiW = min(hiW, h)
	}
	if hiW < loW {
		return nil
	}
	nw := hiW - loW + 1
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	}
	words := s.words[:nw]
	copy(words, b0.Words()[loW-int(b0.Base())>>6:])
	for _, v := range views[1:] {
		b := v.C.(*trie.BitmapContainer)
		bw := b.Words()[loW-int(b.Base())>>6:]
		for i := range words {
			words[i] &= bw[i]
		}
	}
	out := s.out[:0]
	for wi, w := range words {
		base := int32((loW + wi) << 6)
		for w != 0 {
			out = append(out, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	s.out = out
	return out
}
