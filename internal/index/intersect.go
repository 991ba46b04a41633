package index

import (
	"math/bits"
	"sort"
)

// Set-intersection strategies for the candidate pruning pipeline. All id
// slices are ascending and duplicate-free.
//
// The linear merge (IntersectSorted) is optimal when the inputs have similar
// lengths; when one side is much shorter — the common case once feature
// lists are processed in ascending-selectivity order — a galloping
// (exponential-probe) search over the longer side does O(|a|·log|b|/|a|)
// work instead of O(|a|+|b|).

// DefaultGallopProbeCost is the assumed cost of one galloping probe step
// relative to one step of the linear merge's branch-predictable scan
// (binary-search probes miss branch prediction and jump across cache
// lines). Calibrated against the skewed-intersect benchmarks below: at
// skew 4 the merge still wins at every list size measured, at skew 8
// galloping already wins, so the model's switchover must land between
// them. CalibrateGallopProbeCost (calibrate.go) re-measures the constant
// per dataset at Build time; index owners thread the result through
// Trie.SetGallopProbeCost.
const DefaultGallopProbeCost = 2

// shouldGallopCost picks the strategy from the two list lengths instead of
// a fixed skew ratio: galloping costs about probeCost·log2(|b|/|a|) probe
// steps per element of the short list, the merge scans all |a|+|b|
// elements once, so galloping wins exactly when the first estimate
// undercuts the second (a switchover near 6× skew at the default probe
// cost, growing with the log term near the boundary, instead of the
// previous hard-coded 8×).
func shouldGallopCost(la, lb, probeCost int) bool {
	if la == 0 {
		return false
	}
	r := lb / la
	if r < 4 { // quick reject: well below any measured crossover
		return false
	}
	return probeCost*la*bits.Len(uint(r)) < la+lb
}

// IntersectIntoCost appends the intersection of a and b to dst[:0] and
// returns it, choosing between the linear merge and the galloping search by
// length skew under the (calibrated) galloping probe cost; probeCost ≤ 0
// selects the package default. dst may alias neither a nor b.
func IntersectIntoCost(dst, a, b []int32, probeCost int) []int32 {
	dst = dst[:0]
	if probeCost <= 0 {
		probeCost = DefaultGallopProbeCost
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if shouldGallopCost(len(a), len(b), probeCost) {
		return intersectGalloping(dst, a, b)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// intersectGalloping appends a ∩ b to dst for len(a) ≤ len(b): for each
// element of a, probe positions j+1, j+2, j+4, ... in b to bracket it, then
// binary-search the bracket. The probe cursor only moves forward, so the
// whole pass is O(|a|·log(|b|/|a|)) on average.
func intersectGalloping(dst, a, b []int32) []int32 {
	j := 0
	for _, x := range a {
		if j >= len(b) {
			break
		}
		if b[j] < x {
			// gallop: find the first probe at or beyond x
			step := 1
			lo := j
			for j+step < len(b) && b[j+step] < x {
				lo = j + step
				step *= 2
			}
			hi := j + step
			if hi > len(b) {
				hi = len(b)
			}
			// binary search in (lo, hi]
			j = lo + 1 + sort.Search(hi-lo-1, func(k int) bool { return b[lo+1+k] >= x })
			if j >= len(b) {
				break
			}
		}
		if b[j] == x {
			dst = append(dst, x)
			j++
		}
	}
	return dst
}
