package trie

// PostingList is one feature's postings in container form: the graph-ID
// set lives in a Container, and the one satellite payload — occurrence
// counts — lives in a rank-aligned array that is elided entirely in the
// (overwhelmingly common) all-1 case.
//
// Canonical-form invariants, maintained by every edit path:
//
//   - counts == nil ⇔ every count is 1 (the default multiplicity);
//   - the container kind is kindFor(policy, set) — a pure function of the
//     member set.
//
// Together these make the in-memory representation (and therefore the v3
// snapshot bytes and SizeBytes accounting) a function of the logical
// postings alone, independent of the order of inserts, the number of
// build workers, or how many save→load→mutate cycles produced it.

import (
	"math/bits"
	"slices"
)

// PostingList is the container-backed replacement for []Posting. The zero
// value is an empty list. It is a small value type: copy freely, but the
// backing container/slices are shared by copies — mutation requires
// exclusive ownership (build paths) or copy-on-write (Mutation.Apply).
type PostingList struct {
	ids    Container
	counts []int32 // rank-aligned occurrence counts; nil ⇒ all 1
	nruns  int32   // maximal consecutive runs in ids (maintained incrementally)
}

// Len returns the number of postings.
func (pl PostingList) Len() int {
	if pl.ids == nil {
		return 0
	}
	return pl.ids.Len()
}

// IDs returns the graph-ID container (nil when the list is empty).
func (pl PostingList) IDs() Container { return pl.ids }

// UniformCounts reports whether every posting has count 1, in O(1).
func (pl PostingList) UniformCounts() bool { return pl.counts == nil }

// CountAt returns the occurrence count of the posting at rank i.
func (pl PostingList) CountAt(i int) int32 {
	if pl.counts == nil {
		return 1
	}
	return pl.counts[i]
}

// CountOf returns graph g's occurrence count, 0 when g is not a member: a
// membership probe, plus a rank only when the counts are not all 1.
func (pl PostingList) CountOf(g int32) int32 {
	switch {
	case pl.ids == nil:
		return 0
	case pl.counts == nil:
		if pl.ids.Contains(g) {
			return 1
		}
		return 0
	}
	if r, ok := pl.ids.Rank(g); ok {
		return pl.counts[r]
	}
	return 0
}

// Range visits the graph IDs in ascending order with their ranks.
func (pl PostingList) Range(fn func(i int, g int32) bool) {
	if pl.ids != nil {
		pl.ids.Range(fn)
	}
}

// RetainCountGE filters ids — ascending, duplicate-free — in place down to
// the members of the list whose occurrence count is at least want, and
// returns the shortened slice. It is one forward pass: the rank cursor
// into the count array only advances (popcounts of the bitmap words
// between consecutive ids, a gallop in an array, a walk over the runs), so
// the cost is O(len(ids) + container words/runs) — never a from-zero Rank
// per id, and never more than a full Range of the list.
func (pl PostingList) RetainCountGE(ids []int32, want int32) []int32 {
	out := ids[:0]
	switch c := pl.ids.(type) {
	case *ArrayContainer:
		j := 0
		for _, g := range ids {
			if j = gallopTo(c.ids, j, g); j == len(c.ids) {
				break
			}
			if c.ids[j] == g {
				if pl.CountAt(j) >= want {
					out = append(out, g)
				}
				j++
			}
		}
	case *BitmapContainer:
		wi, below := 0, 0 // below = members in words[:wi]
		for _, g := range ids {
			o := int(g) - int(c.base)
			if o < 0 {
				continue
			}
			if o>>6 >= len(c.words) {
				break
			}
			for ; wi < o>>6; wi++ {
				below += bits.OnesCount64(c.words[wi])
			}
			w, bit := c.words[wi], uint64(1)<<uint(o&63)
			if w&bit != 0 && pl.CountAt(below+bits.OnesCount64(w&(bit-1))) >= want {
				out = append(out, g)
			}
		}
	case *RunContainer:
		ri, below := 0, 0 // below = members in runs[:ri]
		for _, g := range ids {
			for ri < len(c.runs) && c.runs[ri].End < g {
				below += int(c.runs[ri].End-c.runs[ri].Start) + 1
				ri++
			}
			if ri == len(c.runs) {
				break
			}
			if r := c.runs[ri]; r.Start <= g && pl.CountAt(below+int(g-r.Start)) >= want {
				out = append(out, g)
			}
		}
	}
	return out
}

// gallopTo returns the first index i ≥ from with ids[i] ≥ g (len(ids) if
// none): exponential probes from the cursor, then a binary search of the
// bracket — O(log distance) per call, O(len(ids)) over a forward pass.
func gallopTo(ids []int32, from int, g int32) int {
	if from == len(ids) || ids[from] >= g {
		return from
	}
	step, lo := 1, from // ids[lo] < g
	for lo+step < len(ids) && ids[lo+step] < g {
		lo += step
		step *= 2
	}
	i, _ := slices.BinarySearch(ids[lo+1:min(lo+step, len(ids))], g)
	return lo + 1 + i
}

// Postings materialises the list as a fresh []Posting (the legacy flat
// shape).
func (pl PostingList) Postings() []Posting {
	if pl.ids == nil {
		return nil
	}
	return pl.appendPostings(make([]Posting, 0, pl.ids.Len()))
}

// appendPostings appends the materialised postings to dst.
func (pl PostingList) appendPostings(dst []Posting) []Posting {
	pl.Range(func(i int, g int32) bool {
		dst = append(dst, Posting{Graph: g, Count: pl.CountAt(i)})
		return true
	})
	return dst
}

// SizeBytes approximates the in-memory footprint of the list's backing
// storage (the PostingList header itself is accounted by its table entry).
func (pl PostingList) SizeBytes() int {
	if pl.ids == nil {
		return 0
	}
	sz := pl.ids.SizeBytes()
	if pl.counts != nil {
		sz += 24 + 4*len(pl.counts)
	}
	return sz
}

// sealPostings converts sorted, duplicate-free postings into canonical
// container form under policy. The Graph IDs are copied. An empty input
// seals to the zero PostingList.
func sealPostings(policy ContainerPolicy, ps []Posting) PostingList {
	n := len(ps)
	if n == 0 {
		return PostingList{}
	}
	ids := make([]int32, n)
	uniform := true
	nruns := 1
	for i, p := range ps {
		ids[i] = p.Graph
		if p.Count != 1 {
			uniform = false
		}
		if i > 0 && p.Graph != ps[i-1].Graph+1 {
			nruns++
		}
	}
	pl := PostingList{nruns: int32(nruns)}
	pl.ids = buildContainer(kindFor(policy, n, ids[0], ids[n-1], nruns), ids)
	if !uniform {
		pl.counts = make([]int32, n)
		for i, p := range ps {
			pl.counts[i] = p.Count
		}
	}
	return pl
}

// clone returns a copy that add and remove may edit without touching pl:
// the container and the counts are private.
func (pl PostingList) clone() PostingList {
	switch c := pl.ids.(type) {
	case *ArrayContainer:
		pl.ids = &ArrayContainer{ids: slices.Clone(c.ids)}
	case *BitmapContainer:
		pl.ids = &BitmapContainer{base: c.base, words: slices.Clone(c.words), card: c.card}
	case *RunContainer:
		pl.ids = &RunContainer{runs: slices.Clone(c.runs), card: c.card}
	}
	pl.counts = slices.Clone(pl.counts)
	return pl
}

// reencode re-checks the container choice after an in-place edit and
// converts when the set has crossed an encoding threshold.
func (pl *PostingList) reencode(policy ContainerPolicy) {
	want := kindFor(policy, pl.ids.Len(), pl.ids.Min(), pl.ids.Max(), int(pl.nruns))
	if want == pl.ids.Kind() {
		return
	}
	pl.ids = buildContainer(want, pl.ids.AppendTo(make([]int32, 0, pl.ids.Len())))
}

// add merges posting p into the list (same semantics as the legacy sorted
// []Posting insert: counts of an existing graph accumulate). Requires
// exclusive ownership of the list's backing storage.
func (pl *PostingList) add(policy ContainerPolicy, p Posting) {
	if pl.ids == nil {
		*pl = sealPostings(policy, []Posting{p})
		return
	}
	r, ok := pl.ids.Rank(p.Graph)
	if ok {
		// Existing member: accumulate count.
		if pl.counts == nil {
			pl.counts = ones(pl.ids.Len())
		}
		pl.counts[r] += p.Count
		if pl.counts[r] == 1 {
			pl.normalizeCounts()
		}
		return
	}
	// Structural insert at rank r: maintain the run count from the
	// neighbours, then extend the container in place.
	joins := 0
	if p.Graph > -1<<31 && pl.ids.Contains(p.Graph-1) {
		joins++
	}
	if p.Graph < 1<<31-1 && pl.ids.Contains(p.Graph+1) {
		joins++
	}
	pl.nruns += int32(1 - joins)
	switch c := pl.ids.(type) {
	case *ArrayContainer:
		c.insertAt(r, p.Graph)
	case *BitmapContainer:
		c.set(p.Graph)
	case *RunContainer:
		c.insert(p.Graph)
	}
	if pl.counts != nil {
		pl.counts = slices.Insert(pl.counts, r, p.Count)
	} else if p.Count != 1 {
		pl.counts = slices.Insert(ones(pl.ids.Len()-1), r, p.Count)
	}
	pl.reencode(policy)
}

// push adds posting p, which usually lies beyond the list's last graph and
// is then appended in place; otherwise it is added as add does. It reports
// whether the list gained a graph. Requires exclusive ownership.
func (pl *PostingList) push(policy ContainerPolicy, p Posting) bool {
	if pl.ids == nil {
		*pl = sealPostings(policy, []Posting{p})
		return true
	}
	n, last := pl.ids.Len(), pl.ids.Max()
	if p.Graph <= last {
		pl.add(policy, p)
		return pl.ids.Len() > n
	}
	adjacent := p.Graph == last+1
	if !adjacent {
		pl.nruns++
	}
	switch c := pl.ids.(type) {
	case *ArrayContainer:
		c.ids = append(c.ids, p.Graph)
	case *BitmapContainer:
		c.set(p.Graph)
	case *RunContainer:
		if adjacent {
			c.runs[len(c.runs)-1].End = p.Graph
		} else {
			c.runs = append(c.runs, Run{Start: p.Graph, End: p.Graph})
		}
		c.card++
	}
	if pl.counts != nil {
		pl.counts = append(pl.counts, p.Count)
	} else if p.Count != 1 {
		pl.counts = append(ones(n), p.Count)
	}
	pl.reencode(policy)
	return true
}

// remove deletes graph g from the list. It reports whether g was present
// and whether the list drained to empty. Requires exclusive ownership.
func (pl *PostingList) remove(policy ContainerPolicy, g int32) (removed, drained bool) {
	if pl.ids == nil {
		return false, false
	}
	r, ok := pl.ids.Rank(g)
	if !ok {
		return false, false
	}
	if pl.ids.Len() == 1 {
		*pl = PostingList{}
		return true, true
	}
	left := g > -1<<31 && pl.ids.Contains(g-1)
	right := g < 1<<31-1 && pl.ids.Contains(g+1)
	switch {
	case left && right:
		pl.nruns++
	case !left && !right:
		pl.nruns--
	}
	switch c := pl.ids.(type) {
	case *ArrayContainer:
		c.removeAt(r)
	case *BitmapContainer:
		c.clear(g)
	case *RunContainer:
		c.remove(g)
	}
	if pl.counts != nil {
		hot := pl.counts[r] != 1
		pl.counts = slices.Delete(pl.counts, r, r+1)
		if hot {
			pl.normalizeCounts()
		}
	}
	pl.reencode(policy)
	return true, false
}

// normalizeCounts restores the counts-nil-iff-all-1 canonical invariant
// after an edit that may have returned every count to 1.
func (pl *PostingList) normalizeCounts() {
	for _, c := range pl.counts {
		if c != 1 {
			return
		}
	}
	pl.counts = nil
}

// ones returns a fresh all-1 count slice.
func ones(n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = 1
	}
	return c
}
