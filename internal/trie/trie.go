// Package trie implements the feature-keyed postings store shared by the
// GraphGrepSX and Grapes dataset indexes and by the containment index of the
// supergraph method (the paper's Algorithm 1 stores features "in a trie").
//
// Keys are canonical feature strings (package features), interned into dense
// FeatureIDs by a features.Dict — shared across indexes or private to one
// trie. The lookup path is ID-keyed: postings live in one dense table
// indexed directly by FeatureID, split into fixed pages of 64 lists behind
// a page directory, and the zero PostingList means absent, so a probe is a
// shift, a mask and two indexed loads. Pages are the unit of copy-on-write:
// a mutation copies the directory and only the pages it writes (mutate.go).
// Index builds run in parallel through Builder: a build cuts its input into
// contiguous chunks of graphs, each chunk's postings are staged privately,
// bucketed by page stripe, and the stripes then fill independently — they
// own disjoint pages — appending each feature's chunk runs in chunk order,
// so a fill needs neither a sort nor a lock or atomic on the postings
// themselves. Grapes is explicitly a parallel indexing method in its
// original paper, so the contention-free build path is fidelity as much as
// speed. After a build the table is immutable and the read path
// (GetByID/Walk) is lock-free by construction. Walk visits keys in
// lexicographic order by sorting the live IDs' dictionary keys.
//
// Postings are stored in cardinality-adaptive containers (container.go):
// each feature's graph-ID set is an array, bitmap or run-length container
// chosen by byte cost, with occurrence counts in a rank-aligned satellite
// array elided in the all-1 case (postinglist.go). The choice is a pure function of the member set, so
// sequential builds, parallel merges, COW mutations and snapshot loads all
// converge on identical representations.
//
// The store persists itself (WriteTo/ReadFrom): a versioned header carrying
// the feature dictionary in ID order, then K independently-decodable,
// CRC-guarded segments with delta-encoded postings, segment s holding the
// features with ID ≡ s (mod K). K is a property of the file only: segments
// decode in parallel on an eager load and open one at a time on a lazy one,
// and any K yields the same loaded trie — see persist.go for the full
// format specification and compatibility rules.
package trie

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/features"
)

// Posting records one graph's occurrences of a feature.
type Posting struct {
	Graph int32 // graph identifier (dataset position or cache slot)
	Count int32 // number of occurrences of the feature in the graph
}

// Page geometry of the postings table: FeatureID id lives at
// pages[id>>pageShift][id&pageMask]. A page is 64 × 48 B = 3 KB.
const (
	pageShift = 6
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

// page is one fixed block of the postings table.
type page [pageLen]PostingList

// entryBytes is one table entry: a PostingList header inside its page.
const entryBytes = int(unsafe.Sizeof(PostingList{}))

// table is the postings table's page directory; a nil or short directory
// entry holds pageLen absent lists. Pages may be shared between trie
// generations (mutate.go), so only an exclusive owner writes through at.
type table []*page

// get returns id's list (the zero list when absent).
func (tb table) get(id features.FeatureID) PostingList {
	if p := int(id >> pageShift); p < len(tb) {
		if pg := tb[p]; pg != nil {
			return pg[id&pageMask]
		}
	}
	return PostingList{}
}

// at returns id's table entry, growing the directory and allocating the
// page as needed. The caller must own the page.
func (tb *table) at(id features.FeatureID) *PostingList {
	p := int(id >> pageShift)
	if p >= len(*tb) {
		*tb = append(*tb, make([]*page, p+1-len(*tb))...)
	}
	if (*tb)[p] == nil {
		(*tb)[p] = new(page)
	}
	return &(*tb)[p][id&pageMask]
}

// grow extends the directory over every ID below n and allocates each of
// its pages, so goroutines then filling disjoint entries through at never
// write the directory itself.
func (tb *table) grow(n int) {
	need := (n + pageMask) >> pageShift
	if need > len(*tb) {
		*tb = append(*tb, make([]*page, need-len(*tb))...)
	}
	for p, pg := range (*tb)[:need] {
		if pg == nil {
			(*tb)[p] = new(page)
		}
	}
}

// Trie maps canonical feature keys to postings lists, with an ID-keyed fast
// path for callers that have already interned their features.
type Trie struct {
	dict  *features.Dict
	pages table

	// segments is the segment count the next WriteTo writes, as set by
	// SetSegments or adopted from the last loaded snapshot; 0 leaves the
	// choice to save time (see Segments). It never affects the table.
	segments int

	// dead holds features whose postings this trie drained by removal.
	// Their dictionary entries cannot be reclaimed (FeatureIDs are dense
	// process-local handles shared across index generations), so the trie
	// remembers them instead: dead features are excluded from size
	// accounting (LiveDictSizeBytes) and from persisted snapshots, and are
	// resurrected if a later insert re-introduces the key. Invariant: a
	// dead feature has no postings in this trie. A mutated trie shares its
	// base's set until its first drain or resurrection.
	dead map[features.FeatureID]struct{}

	// stamp is the dataset fingerprint carried by the last delta journal
	// replayed into this trie by ReadFrom (nil when the snapshot had no
	// journal sections); see journal.go.
	stamp *JournalStamp

	// policy selects posting container encodings (AdaptiveContainers by
	// default; ArrayOnlyContainers forces the flat reference encoding).
	// Set before building; inherited by COW mutation.
	policy ContainerPolicy

	// probeCost is the calibrated galloping probe cost used by the count
	// filter's intersection cost model (0 ⇒ the package default). Written
	// once at Build time by the index owner, before concurrent reads.
	probeCost int

	// lazyLive is non-nil while this trie serves a lazily-opened snapshot
	// (OpenLazy, lazy.go): GetByID routes through its residency slots and
	// whole-store operations materialise first. Materialize clears it.
	lazyLive atomic.Pointer[lazyState]

	// lazyOrigin is set once by OpenLazy and survives Materialize, so
	// Residency keeps reporting fault/eviction counters afterwards.
	lazyOrigin *lazyState
}

// maxSegments bounds a snapshot's segment count: beyond this the segments
// are too small to pay for their frames even on very wide machines.
const maxSegments = 64

// normalizeSegments rounds k up to a power of two in [1, maxSegments];
// non-positive k selects one segment per CPU.
func normalizeSegments(k int) int {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < min(k, maxSegments) {
		p <<= 1
	}
	return p
}

// New returns an empty trie with a private feature dictionary.
func New() *Trie { return NewWithDict(features.NewDict()) }

// NewWithDict returns an empty trie whose keys are interned through d —
// shared with other tries so that all of them are probed by the same IDs.
func NewWithDict(d *features.Dict) *Trie { return &Trie{dict: d} }

// SetSegments sets the segment count the next WriteTo writes (rounded up
// to a power of two, capped at 64, at save time); k ≤ 0 picks one segment
// per CPU. Loads adopt the snapshot's count, so call it after loading to
// override that. The count shapes only the file: eager loads decode its
// segments in parallel and lazy loads open them one at a time.
func (t *Trie) SetSegments(k int) { t.segments = k }

// Segments returns the segment count the next WriteTo writes.
func (t *Trie) Segments() int { return normalizeSegments(t.segments) }

// SetContainerPolicy selects how posting containers are encoded. Call
// before inserting; an existing store is not re-encoded. The policy is
// inherited by COW mutations (Mutation.Apply).
func (t *Trie) SetContainerPolicy(p ContainerPolicy) { t.policy = p }

// SetGallopProbeCost records the calibrated galloping probe cost for this
// dataset (see index.CalibrateGallopProbeCost); 0 restores the package
// default. Called by index owners at Build time, before concurrent reads.
func (t *Trie) SetGallopProbeCost(c int) { t.probeCost = c }

// GallopProbeCost returns the calibrated probe cost (0 ⇒ default).
func (t *Trie) GallopProbeCost() int { return t.probeCost }

// Dict returns the trie's feature dictionary.
func (t *Trie) Dict() *features.Dict { return t.dict }

// each visits every live list of the table in ascending FeatureID order.
// fn may edit the list in place only when the caller owns every page.
func (t *Trie) each(fn func(id features.FeatureID, pl *PostingList)) {
	for p, pg := range t.pages {
		if pg == nil {
			continue
		}
		for j := range pg {
			if pg[j].ids != nil {
				fn(features.FeatureID(p<<pageShift|j), &pg[j])
			}
		}
	}
}

// Len returns the number of distinct keys stored.
func (t *Trie) Len() int {
	t.ensureMaterialized()
	n := 0
	t.each(func(features.FeatureID, *PostingList) { n++ })
	return n
}

// MaxPostingLen returns the cardinality of the longest posting list (0 for
// an empty store) — the dataset shape statistic the intersection cost
// model calibrates against.
func (t *Trie) MaxPostingLen() int {
	t.ensureMaterialized()
	longest := 0
	t.each(func(_ features.FeatureID, pl *PostingList) { longest = max(longest, pl.Len()) })
	return longest
}

// GraphFeatureCounts returns, for each graph id below n, the number of
// features whose postings hold it — the graph's distinct-feature count, the
// NF table a supergraph read needs. A lazily opened trie is materialised
// first.
func (t *Trie) GraphFeatureCounts(n int) []int32 {
	t.ensureMaterialized()
	nf := make([]int32, n)
	t.each(func(_ features.FeatureID, pl *PostingList) {
		pl.Range(func(_ int, g int32) bool {
			if int(g) < n {
				nf[g]++
			}
			return true
		})
	})
	return nf
}

// Insert adds (or merges) a posting for key, interning it into the
// dictionary. Postings for a key are kept sorted by graph id; inserting the
// same (key, graph) twice accumulates the count.
// Not safe for concurrent use — parallel builds go through Builder — and
// only for a trie that owns its pages (built or loaded, not Apply's result).
func (t *Trie) Insert(key string, p Posting) {
	t.ensureMaterialized()
	t.InsertID(t.dict.Intern(key), p)
}

// InsertID adds (or merges) a posting for an already-interned feature — the
// hot sequential build path for callers enumerating features as IDs.
func (t *Trie) InsertID(id features.FeatureID, p Posting) {
	t.ensureMaterialized()
	pl := t.pages.at(id)
	if pl.ids == nil {
		delete(t.dead, id) // resurrect a previously drained feature
	}
	pl.add(t.policy, p)
}

// GetByID returns the postings for an interned feature (a zero PostingList
// if this trie holds none). On an eager trie this is lock-free: two indexed
// loads (page directory, page) read the immutable table. On a lazily-opened
// trie (OpenLazy) the probe routes through the residency slots — one atomic
// load for a resident list; otherwise the list is decoded from its byte
// span, opening its segment's directory first if this is that segment's
// first touch — and a failure there panics with *ShardFaultError (see
// lazy.go).
func (t *Trie) GetByID(id features.FeatureID) PostingList {
	if ls := t.lazyLive.Load(); ls != nil {
		return ls.get(id)
	}
	return t.pages.get(id)
}

// Walk visits every (key, postings) pair in lexicographic key order. The
// postings slice is materialised fresh per key.
func (t *Trie) Walk(fn func(key string, postings []Posting)) {
	t.ensureMaterialized()
	type entry struct {
		key string
		pl  PostingList
	}
	var all []entry
	t.each(func(id features.FeatureID, pl *PostingList) { all = append(all, entry{t.dict.Key(id), *pl}) })
	slices.SortFunc(all, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	for _, e := range all {
		fn(e.key, e.pl.Postings())
	}
}

// SizeBytes approximates the in-memory footprint of the trie (page tables
// and postings), used for the paper's Fig 18 accounting.
func (t *Trie) SizeBytes() int {
	if t.lazyLive.Load() != nil {
		// Lazily opened: report the resident posting lists instead of
		// decoding everything — a monitoring scrape must never defeat
		// laziness. The eager figure applies once Materialize has run.
		return int(t.Residency().ResidentBytes)
	}
	return t.tableSizeBytes()
}

// tableSizeBytes is the eager footprint: the directory header, plus every
// live list's container bytes, its 48 B table entry and its share of page
// directory pointers. The table is counted at full occupancy — slots left
// by dead or foreign features of a shared dictionary are residue, like the
// dead dictionary entries LiveDictSizeBytes excludes — so a mutated trie
// reports exactly what a fresh build of the same content does.
func (t *Trie) tableSizeBytes() int {
	sz, live := 24, 0
	t.each(func(_ features.FeatureID, pl *PostingList) {
		live++
		sz += pl.SizeBytes()
	})
	return sz + live*entryBytes + 8*((live+pageMask)/pageLen)
}

// LiveDictSizeBytes reports the feature dictionary's footprint counted at
// this trie's live vocabulary: Dict.SizeBytes minus the entries this trie
// retired to the dead set. Index owners (the path methods) report this
// instead of Dict.SizeBytes so an incrementally maintained index accounts
// exactly like a from-scratch build over the surviving dataset — retired
// keys are bookkeeping residue, not index content.
func (t *Trie) LiveDictSizeBytes() int {
	if t.lazyLive.Load() != nil {
		// Retired-feature accounting needs the drain sets, which live in
		// segments not yet opened; while lazy, report the full dictionary
		// footprint (an upper bound) rather than faulting everything in.
		return t.dict.SizeBytes()
	}
	sz := t.dict.SizeBytes()
	for id := range t.dead {
		sz -= t.dict.EntrySizeBytes(id)
	}
	return sz
}

// ParallelFor fans n items out over up to workers goroutines (capped at n;
// ≤ 1 runs inline). Each goroutine receives its worker index — for
// per-worker state like an enumeration scratch — and a claim function
// yielding successive item indices until it returns -1:
//
//	trie.ParallelFor(len(chunks), workers, func(w int, claim func() int) {
//		s := scratches[w]
//		for i := claim(); i >= 0; i = claim() { ... }
//	})
//
// ParallelFor returns after every worker has finished, so it establishes
// the happens-before edge parallel builds rely on. Shared by the stripe
// fill below, the path-method builds, segment decoding and the partition
// builds.
//
// A panic in a worker body does not kill the process: the first one is
// captured with its goroutine's stack and, once every worker has joined,
// re-raised on the caller as a *WorkerPanic — so whatever recover guards
// the caller (Engine.Query's, for one) contains it exactly as it would at
// width 1.
func ParallelFor(n, workers int, body func(worker int, claim func() int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	claim := func() int {
		i := int(next.Add(1)) - 1
		if i >= n {
			return -1
		}
		return i
	}
	if workers <= 1 {
		body(0, claim)
		return
	}
	var wg sync.WaitGroup
	var first atomic.Pointer[WorkerPanic]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					first.CompareAndSwap(nil, &WorkerPanic{Value: r, Stack: debug.Stack()})
				}
			}()
			body(w, claim)
		}(w)
	}
	wg.Wait()
	if p := first.Load(); p != nil {
		panic(p)
	}
}

// WorkerPanic is the value ParallelFor panics with on its caller when a
// worker body panicked: the original panic value and the worker
// goroutine's stack at the panic site (the re-raise's own stack no longer
// shows it).
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// Unwrap exposes an error panic value to errors.Is/As.
func (p *WorkerPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// stagedPosting is one posting awaiting Fill.
type stagedPosting struct {
	id features.FeatureID
	p  Posting
}

// fillStripes is the number of independent fill tasks a Builder splits the
// table into: page p belongs to stripe p % fillStripes, so stripes own
// disjoint pages and fill without synchronisation.
const fillStripes = 64

// Builder fills a trie from postings staged chunk by chunk: a build splits
// its input into contiguous chunks of graphs, stages each chunk's postings
// (in parallel, one goroutine per chunk at a time), and Fill appends them
// chunk after chunk. So when each chunk stages its graphs in ascending
// order, every feature's postings arrive in graph order — its chunk runs
// concatenated — and Fill appends without sorting or merging. Stripes of
// the table fill in parallel, each filling its own pages. Postings that
// arrive out of graph order are inserted as Trie.InsertID would, and a
// posting for a feature's last graph adds to its count, so the result
// always equals inserting the staged postings sequentially in chunk order.
type Builder struct {
	t      *Trie
	chunks []*Chunk
	n      int // chunks staged since the last Fill
}

// Chunk is the staging area of one chunk. It is used by one goroutine at a
// time; distinct chunks of a Builder stage concurrently.
type Chunk struct {
	staged   [fillStripes][]stagedPosting
	min, max int32              // graph span of the staged postings
	top      features.FeatureID // largest staged ID + 1
}

// NewBuilder returns a Builder over t. The trie must not be read or written
// between NewBuilder and the last Fill.
func (t *Trie) NewBuilder() *Builder {
	t.ensureMaterialized()
	return &Builder{t: t}
}

// Chunks makes chunks 0..n-1 the staging areas of the next Fill and
// returns them, empty.
func (b *Builder) Chunks(n int) []*Chunk {
	for len(b.chunks) < n {
		b.chunks = append(b.chunks, &Chunk{})
	}
	b.n = n
	for _, c := range b.chunks[:n] {
		c.min, c.max, c.top = 1<<31-1, -1, 0
	}
	return b.chunks[:n]
}

// InsertID stages a posting for an already-interned feature.
func (c *Chunk) InsertID(id features.FeatureID, p Posting) {
	s := (id >> pageShift) % fillStripes
	c.staged[s] = append(c.staged[s], stagedPosting{id: id, p: p})
	c.min, c.max, c.top = min(c.min, p.Graph), max(c.max, p.Graph), max(c.top, id+1)
}

// Fill appends the postings staged in the chunks of the last Chunks call,
// in chunk order, over up to workers goroutines, and empties the chunks for
// reuse. When nf is non-nil, it adds to nf[g] the number of features that
// gained a posting for graph g (graphs must lie below len(nf)). alongside,
// when non-nil, runs on one of the fill's goroutines, concurrently with the
// fill: a build commits its next round's keys there, work that touches
// neither the trie nor the chunks.
func (b *Builder) Fill(workers int, nf []int32, alongside func()) {
	t, chunks := b.t, b.chunks[:b.n]
	lo, hi, top := int32(1<<31-1), int32(-1), features.FeatureID(0)
	for _, c := range chunks {
		lo, hi, top = min(lo, c.min), max(hi, c.max), max(top, c.top)
	}
	// The directory is sized once, so the stripes only ever fill their own
	// pages.
	t.pages.grow(int(top))
	var revived [fillStripes][]features.FeatureID
	var gained [fillStripes][]int32
	ParallelFor(fillStripes+1, max(workers, 1), func(_ int, claim func() int) {
		for i := claim(); i >= 0; i = claim() {
			if i == 0 {
				if alongside != nil {
					alongside()
				}
				continue
			}
			s := i - 1
			var got []int32
			if nf != nil && hi >= lo {
				got = make([]int32, hi-lo+1)
				gained[s] = got
			}
			for _, c := range chunks {
				for _, sp := range c.staged[s] {
					pl := t.pages.at(sp.id)
					if pl.ids == nil {
						if _, dead := t.dead[sp.id]; dead {
							revived[s] = append(revived[s], sp.id)
						}
					}
					if pl.push(t.policy, sp.p) && got != nil {
						got[sp.p.Graph-lo]++
					}
				}
				c.staged[s] = c.staged[s][:0]
			}
		}
	})
	b.n = 0
	for _, got := range gained {
		for i, n := range got {
			nf[lo+int32(i)] += n
		}
	}
	// The dead set is shared by all stripes, so resurrections are applied
	// after the parallel phase.
	for _, ids := range revived {
		for _, id := range ids {
			delete(t.dead, id)
		}
	}
}
