package trie

// Cardinality-adaptive posting containers.
//
// Every feature's graph-ID set is stored in one of three physical
// encodings, chosen per feature by byte cost (the indexing literature's
// "dense lists → bitmaps; sparse → arrays" rule, plus run-length for
// clustered ID ranges):
//
//   - array:  sorted []int32 — 4 bytes per member. Optimal for sparse
//     features, and the only encoding whose probe cost is independent of
//     the ID span.
//   - bitmap: 64-bit words covering [base, base+64·len) — span/8 bytes.
//     Optimal above ~3% density; intersections of two bitmaps collapse to
//     word-wise AND, and membership probes are O(1).
//   - runs:   maximal consecutive intervals — 8 bytes per run. Optimal for
//     clustered ID ranges (bulk-loaded datasets, appended tails).
//
// The choice is a *pure function* of the member set (kindFor): any build
// path — sequential inserts, parallel staged merges, COW mutation, snapshot
// decode of a legacy format — converges on the same container for the same
// set, which is what keeps differently-built tries byte-identical on disk
// and identical in SizeBytes accounting. In-place edits maintain the
// invariant by re-checking the choice after every operation (reencode);
// batched COW mutation re-checks once per touched feature at seal time.

import (
	"math"
	"math/bits"
	"slices"
)

// ContainerKind identifies the physical encoding of a posting container.
type ContainerKind uint8

const (
	// KindArray is a sorted []int32 of member IDs (sparse lists).
	KindArray ContainerKind = iota
	// KindBitmap is a 64-bit-word bitmap over the ID span (dense lists).
	KindBitmap
	// KindRuns is a list of maximal consecutive ID intervals (clustered
	// lists).
	KindRuns
)

// String names the kind for diagnostics and experiment tables.
func (k ContainerKind) String() string {
	switch k {
	case KindArray:
		return "array"
	case KindBitmap:
		return "bitmap"
	case KindRuns:
		return "runs"
	}
	return "unknown"
}

// ContainerPolicy selects how posting containers are chosen.
type ContainerPolicy uint8

const (
	// AdaptiveContainers picks the cheapest encoding per feature by byte
	// cost (the default).
	AdaptiveContainers ContainerPolicy = iota
	// ArrayOnlyContainers forces every posting list into a sorted array —
	// the pre-container flat representation, kept as the differential-test
	// and benchmarking reference.
	ArrayOnlyContainers
)

// Container is the graph-ID-set half of one feature's postings: an
// immutable-from-outside, duplicate-free ascending set of int32 IDs. All
// implementations are observationally identical — only probe cost, memory
// and on-disk footprint differ. A Container is never empty (drained
// features become the zero PostingList, which has no container).
type Container interface {
	// Kind identifies the physical encoding.
	Kind() ContainerKind
	// Len returns the cardinality (≥ 1).
	Len() int
	// Contains reports membership of g.
	Contains(g int32) bool
	// Rank returns the number of members smaller than g, and whether g is
	// itself a member — the index into the rank-aligned count array when
	// it is.
	Rank(g int32) (int, bool)
	// Range visits the members in ascending order with their ranks,
	// stopping early when fn returns false.
	Range(fn func(i int, g int32) bool)
	// AppendTo appends the members in ascending order.
	AppendTo(dst []int32) []int32
	// Min returns the smallest member.
	Min() int32
	// Max returns the largest member.
	Max() int32
	// SizeBytes approximates the in-memory footprint.
	SizeBytes() int
}

// smallSetMax is the cardinality below which the encoding choice is not
// even evaluated: tiny sets are arrays, full stop. This keeps the hot
// build path branch-cheap for the long tail of rare features.
const smallSetMax = 4

// kindFor picks the canonical encoding for a member set: n IDs spanning
// [lo, hi] in nruns maximal consecutive runs. The choice minimises encoded
// bytes (array 4n, runs 8·nruns, bitmap 8 bytes per 64-ID word of the
// span); ties prefer array, then runs, then bitmap, so the function is a
// deterministic total order — the purity every differential guarantee in
// this package leans on.
func kindFor(policy ContainerPolicy, n int, lo, hi int32, nruns int) ContainerKind {
	if policy == ArrayOnlyContainers || n <= smallSetMax {
		return KindArray
	}
	arrayBytes := 4 * n
	runBytes := 8 * nruns
	words := int(hi>>6) - int(lo>>6) + 1
	bitmapBytes := 8 * words
	best, bytes := KindArray, arrayBytes
	if runBytes < bytes {
		best, bytes = KindRuns, runBytes
	}
	if bitmapBytes < bytes {
		best = KindBitmap
	}
	return best
}

// countRuns returns the number of maximal consecutive runs in a sorted,
// duplicate-free ID slice.
func countRuns(ids []int32) int {
	if len(ids) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			runs++
		}
	}
	return runs
}

// buildContainer encodes a sorted, duplicate-free, non-empty ID slice as
// kind. The array container takes ownership of ids; the other kinds leave
// it untouched.
func buildContainer(kind ContainerKind, ids []int32) Container {
	switch kind {
	case KindBitmap:
		base := (ids[0] >> 6) << 6
		words := make([]uint64, int(ids[len(ids)-1]>>6)-int(ids[0]>>6)+1)
		for _, g := range ids {
			o := g - base
			words[o>>6] |= 1 << uint(o&63)
		}
		return &BitmapContainer{base: base, words: words, card: len(ids)}
	case KindRuns:
		var runs []Run
		for i := 0; i < len(ids); {
			j := i
			for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
				j++
			}
			runs = append(runs, Run{Start: ids[i], End: ids[j]})
			i = j + 1
		}
		return &RunContainer{runs: runs, card: len(ids)}
	default:
		return &ArrayContainer{ids: ids}
	}
}

// ArrayContainer stores the members as a sorted slice — the sparse-list
// (and forced-reference) encoding.
type ArrayContainer struct{ ids []int32 }

// Slice exposes the backing slice (ascending, duplicate-free). Callers
// must not modify it — it is the zero-copy fast path for array∩array
// intersections.
func (a *ArrayContainer) Slice() []int32 { return a.ids }

func (a *ArrayContainer) Kind() ContainerKind { return KindArray }
func (a *ArrayContainer) Len() int            { return len(a.ids) }

func (a *ArrayContainer) Contains(g int32) bool {
	_, ok := slices.BinarySearch(a.ids, g)
	return ok
}

func (a *ArrayContainer) Rank(g int32) (int, bool) { return slices.BinarySearch(a.ids, g) }

func (a *ArrayContainer) Range(fn func(i int, g int32) bool) {
	for i, g := range a.ids {
		if !fn(i, g) {
			return
		}
	}
}

func (a *ArrayContainer) AppendTo(dst []int32) []int32 { return append(dst, a.ids...) }
func (a *ArrayContainer) Min() int32                   { return a.ids[0] }
func (a *ArrayContainer) Max() int32                   { return a.ids[len(a.ids)-1] }
func (a *ArrayContainer) SizeBytes() int               { return 24 + 4*len(a.ids) }

func (a *ArrayContainer) insertAt(i int, g int32) { a.ids = slices.Insert(a.ids, i, g) }
func (a *ArrayContainer) removeAt(i int)          { a.ids = slices.Delete(a.ids, i, i+1) }

// BitmapContainer stores the members as 64-bit words covering the span
// [base, base+64·len(words)) — the dense-list encoding. Invariants: base
// is a multiple of 64 and the first and last words are non-zero, so Min
// and Max are O(1).
type BitmapContainer struct {
	base  int32
	words []uint64
	card  int
}

// Base returns the ID of bit 0 of the first word (a multiple of 64).
func (b *BitmapContainer) Base() int32 { return b.base }

// Words exposes the backing words. Callers must not modify them — this is
// the zero-copy input to the bitmap∧bitmap word-AND intersection path.
func (b *BitmapContainer) Words() []uint64 { return b.words }

func (b *BitmapContainer) Kind() ContainerKind { return KindBitmap }
func (b *BitmapContainer) Len() int            { return b.card }

func (b *BitmapContainer) Contains(g int32) bool {
	o := int64(g) - int64(b.base)
	if o < 0 || o >= int64(len(b.words))<<6 {
		return false
	}
	return b.words[o>>6]&(1<<uint(o&63)) != 0
}

func (b *BitmapContainer) Rank(g int32) (int, bool) {
	o := int64(g) - int64(b.base)
	if o < 0 {
		return 0, false
	}
	if o >= int64(len(b.words))<<6 {
		return b.card, false
	}
	r := 0
	for _, w := range b.words[:o>>6] {
		r += bits.OnesCount64(w)
	}
	w := b.words[o>>6]
	bit := uint(o & 63)
	r += bits.OnesCount64(w & (1<<bit - 1))
	return r, w&(1<<bit) != 0
}

func (b *BitmapContainer) Range(fn func(i int, g int32) bool) {
	i := 0
	for wi, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !fn(i, b.base+int32(wi<<6+t)) {
				return
			}
			i++
			w &= w - 1
		}
	}
}

func (b *BitmapContainer) AppendTo(dst []int32) []int32 {
	for wi, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			dst = append(dst, b.base+int32(wi<<6+t))
			w &= w - 1
		}
	}
	return dst
}

func (b *BitmapContainer) Min() int32 {
	return b.base + int32(bits.TrailingZeros64(b.words[0]))
}

func (b *BitmapContainer) Max() int32 {
	last := len(b.words) - 1
	return b.base + int32(last<<6+63-bits.LeadingZeros64(b.words[last]))
}

func (b *BitmapContainer) SizeBytes() int { return 32 + 8*len(b.words) }

// set adds g, extending the word span as needed. g must not be a member.
func (b *BitmapContainer) set(g int32) {
	if g < b.base {
		newBase := (g >> 6) << 6
		grow := int(b.base>>6) - int(newBase>>6)
		b.words = append(make([]uint64, grow, grow+len(b.words)), b.words...)
		b.base = newBase
	}
	o := int(g) - int(b.base)
	for o>>6 >= len(b.words) {
		b.words = append(b.words, 0)
	}
	b.words[o>>6] |= 1 << uint(o&63)
	b.card++
}

// clear removes g (which must be a member) and re-trims zero edge words to
// keep the Min/Max invariant.
func (b *BitmapContainer) clear(g int32) {
	o := int(g) - int(b.base)
	b.words[o>>6] &^= 1 << uint(o&63)
	b.card--
	lo := 0
	for lo < len(b.words) && b.words[lo] == 0 {
		lo++
	}
	hi := len(b.words)
	for hi > lo && b.words[hi-1] == 0 {
		hi--
	}
	if lo > 0 || hi < len(b.words) {
		b.base += int32(lo << 6)
		b.words = b.words[lo:hi]
	}
}

// runCount counts the maximal consecutive runs directly from the words.
func (b *BitmapContainer) runCount() int {
	runs := 0
	carry := uint64(0) // bit 63 of the previous word
	for _, w := range b.words {
		// A run starts at every 0→1 transition: bits set in w whose
		// predecessor (previous bit, or the carry across words) is clear.
		runs += bits.OnesCount64(w &^ (w<<1 | carry))
		carry = w >> 63
	}
	return runs
}

// Run is one maximal consecutive interval [Start, End] (inclusive).
type Run struct{ Start, End int32 }

// RunContainer stores the members as maximal consecutive intervals — the
// clustered-list encoding. Invariants: runs are ascending, Start ≤ End,
// and consecutive runs are separated by a gap of at least 2 (they would
// otherwise merge).
type RunContainer struct {
	runs []Run
	card int
}

func (r *RunContainer) Kind() ContainerKind { return KindRuns }
func (r *RunContainer) Len() int            { return r.card }

// find returns the index of the first run with End ≥ g.
func (r *RunContainer) find(g int32) int {
	lo, hi := 0, len(r.runs)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.runs[mid].End < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (r *RunContainer) Contains(g int32) bool {
	i := r.find(g)
	return i < len(r.runs) && r.runs[i].Start <= g
}

func (r *RunContainer) Rank(g int32) (int, bool) {
	rank := 0
	for _, run := range r.runs {
		if g < run.Start {
			return rank, false
		}
		if g <= run.End {
			return rank + int(g-run.Start), true
		}
		rank += int(run.End-run.Start) + 1
	}
	return rank, false
}

func (r *RunContainer) Range(fn func(i int, g int32) bool) {
	i := 0
	for _, run := range r.runs {
		for g := run.Start; ; g++ {
			if !fn(i, g) {
				return
			}
			i++
			if g == run.End {
				break
			}
		}
	}
}

func (r *RunContainer) AppendTo(dst []int32) []int32 {
	for _, run := range r.runs {
		for g := run.Start; ; g++ {
			dst = append(dst, g)
			if g == run.End {
				break
			}
		}
	}
	return dst
}

func (r *RunContainer) Min() int32     { return r.runs[0].Start }
func (r *RunContainer) Max() int32     { return r.runs[len(r.runs)-1].End }
func (r *RunContainer) SizeBytes() int { return 32 + 8*len(r.runs) }

// insert adds g (which must not be a member), extending, bridging or
// splitting runs as needed.
func (r *RunContainer) insert(g int32) {
	r.card++
	i := r.find(g)
	extendsPrev := g > math.MinInt32 && i > 0 && r.runs[i-1].End == g-1
	// find returned the first run with End ≥ g; since g is not a member,
	// that run (if any) starts beyond g.
	extendsNext := g < math.MaxInt32 && i < len(r.runs) && r.runs[i].Start == g+1
	switch {
	case extendsPrev && extendsNext:
		r.runs[i-1].End = r.runs[i].End
		r.runs = slices.Delete(r.runs, i, i+1)
	case extendsPrev:
		r.runs[i-1].End = g
	case extendsNext:
		r.runs[i].Start = g
	default:
		r.runs = slices.Insert(r.runs, i, Run{Start: g, End: g})
	}
}

// remove deletes g (which must be a member), shrinking or splitting its
// run.
func (r *RunContainer) remove(g int32) {
	r.card--
	i := r.find(g)
	run := r.runs[i]
	switch {
	case run.Start == run.End:
		r.runs = slices.Delete(r.runs, i, i+1)
	case g == run.Start:
		r.runs[i].Start = g + 1
	case g == run.End:
		r.runs[i].End = g - 1
	default:
		r.runs[i].End = g - 1
		r.runs = slices.Insert(r.runs, i+1, Run{Start: g + 1, End: run.End})
	}
}
