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
// Index builds run in parallel through Builder: each build goroutine stages
// its postings privately, bucketed by page stripe, and the stripes then
// merge independently — they own disjoint pages — so a build uses one merge
// worker per CPU without a single lock or atomic on the postings
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

	// recovered is the tail-recovery report of the last ReadFrom (nil
	// when that load was clean); see persist.go's durability section.
	recovered *TailRecovery

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

// Policy returns the trie's container policy.
func (t *Trie) Policy() ContainerPolicy { return t.policy }

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

// RemoveGraph deletes every posting of the given graph id across all keys.
// Features drained to zero postings are removed outright: their table entry
// becomes the zero list (so Walk, SizeBytes and a persisted snapshot all
// agree with a trie never holding the key) and their dictionary ID is
// retired to the dead set. Like the build path, RemoveGraph is exclusive —
// no concurrent readers, pages owned; concurrent mutation goes through
// Mutation/Apply instead.
func (t *Trie) RemoveGraph(id int32) {
	t.ensureMaterialized()
	t.each(func(fid features.FeatureID, pl *PostingList) {
		if _, drained := pl.remove(t.policy, id); drained {
			if t.dead == nil {
				t.dead = make(map[features.FeatureID]struct{})
			}
			t.dead[fid] = struct{}{}
		}
	})
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
		sz -= features.DictEntrySizeBytes(t.dict.Key(id))
	}
	return sz
}

// DeadLen returns the number of retired (drained) features this trie
// tracks — diagnostics and tests.
func (t *Trie) DeadLen() int {
	t.ensureMaterialized()
	return len(t.dead)
}

// ParallelFor fans n items out over up to workers goroutines (capped at n;
// ≤ 1 runs inline). Each goroutine receives its worker index — for
// per-worker state like a BuildWorker or an enumeration scratch — and a
// claim function yielding successive item indices until it returns -1:
//
//	trie.ParallelFor(len(db), workers, func(w int, claim func() int) {
//		bw := b.Worker(w)
//		for i := claim(); i >= 0; i = claim() { ... }
//	})
//
// ParallelFor returns after every worker has finished, so it establishes
// the happens-before edge parallel builds rely on. Shared by the stripe
// merge below, the path-method builds and core's cache-side index builds.
//
// A panic in a worker body does not kill the process: the first one is
// captured with its goroutine's stack and, once every worker has joined,
// re-raised on the caller as a *WorkerPanic — so whatever recover guards
// the caller (Engine.Query, the shadow builder) contains it exactly as it
// would at width 1.
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

// stagedPosting is one posting awaiting its stripe merge.
type stagedPosting struct {
	id features.FeatureID
	p  Posting
}

// mergeStripes is the number of independent merge tasks a Builder splits
// the table into: page p belongs to stripe p % mergeStripes, so stripes own
// disjoint pages and merge without synchronisation.
const mergeStripes = 64

// Builder assembles a trie from concurrent producers without contention on
// the postings store. Each build goroutine claims one BuildWorker and stages
// its postings into private per-stripe buffers; Merge then folds every
// stripe's staged postings in — stripes in parallel (they own disjoint
// pages), each stripe deterministically: staged postings are ordered by
// (FeatureID, graph id) before insertion, so the resulting store is
// identical to a sequential build of the same postings regardless of how
// graphs were distributed over workers or interleaved in time.
//
// Workers stage by FeatureID: the dictionary the IDs come from is the
// producers' business (features.PathsID interns through it, internally
// synchronised), so staging touches nothing shared.
type Builder struct {
	t       *Trie
	workers []*BuildWorker
}

// BuildWorker is one goroutine's private staging area. Each BuildWorker may
// be used by only one goroutine at a time; distinct BuildWorkers of the same
// Builder are safe to use concurrently.
type BuildWorker struct {
	t      *Trie
	staged [mergeStripes][]stagedPosting
}

// NewBuilder returns a Builder with the given number of staging workers
// (min 1). The trie must not be read or written between NewBuilder and the
// completion of Merge.
func (t *Trie) NewBuilder(workers int) *Builder {
	t.ensureMaterialized()
	b := &Builder{t: t, workers: make([]*BuildWorker, max(workers, 1))}
	for i := range b.workers {
		b.workers[i] = &BuildWorker{t: t}
	}
	return b
}

// Worker returns staging worker i (0 ≤ i < the count passed to NewBuilder).
func (b *Builder) Worker(i int) *BuildWorker { return b.workers[i] }

// InsertID stages a posting for an already-interned feature.
func (w *BuildWorker) InsertID(id features.FeatureID, p Posting) {
	s := (id >> pageShift) % mergeStripes
	w.staged[s] = append(w.staged[s], stagedPosting{id: id, p: p})
}

// Merge folds all staged postings into the trie: one merge task per stripe,
// fanned out over up to GOMAXPROCS goroutines, each inserting its stripe's
// postings in (FeatureID, graph) order so the result is independent of the
// staging schedule. Duplicate (feature, graph) postings merge exactly as
// sequential Insert would (counts accumulate). Merge must
// be called once, after every staging goroutine has finished; afterwards the
// Builder is drained and the trie is ready for lock-free reads.
func (b *Builder) Merge() {
	t := b.t
	// Every staged ID is interned by now, so the directory can be sized
	// once and the stripes only ever fill their own pages.
	t.pages.grow(t.dict.Len())
	var revived [mergeStripes][]features.FeatureID
	ParallelFor(mergeStripes, runtime.GOMAXPROCS(0), func(_ int, claim func() int) {
		for s := claim(); s >= 0; s = claim() {
			revived[s] = t.mergeStripe(s, b.workers)
		}
	})
	// The dead set is shared by all stripes, so resurrections are applied
	// after the parallel phase.
	for _, ids := range revived {
		for _, id := range ids {
			delete(t.dead, id)
		}
	}
	for _, w := range b.workers {
		w.staged = [mergeStripes][]stagedPosting{}
	}
}

// mergeStripe inserts every staged posting for stripe s, filling its pages
// in ID order, and returns the dead features it brought back.
func (t *Trie) mergeStripe(s int, workers []*BuildWorker) []features.FeatureID {
	n := 0
	for _, w := range workers {
		n += len(w.staged[s])
	}
	if n == 0 {
		return nil
	}
	all := make([]stagedPosting, 0, n)
	for _, w := range workers {
		all = append(all, w.staged[s]...)
	}
	slices.SortFunc(all, func(a, b stagedPosting) int {
		if a.id != b.id {
			if a.id < b.id {
				return -1
			}
			return 1
		}
		if a.p.Graph != b.p.Graph {
			if a.p.Graph < b.p.Graph {
				return -1
			}
			return 1
		}
		return 0
	})
	var revived []features.FeatureID
	for i := 0; i < len(all); {
		j := i
		id := all[i].id
		for j < len(all) && all[j].id == id {
			j++
		}
		// Fold the group into one sorted run; duplicate (feature, graph)
		// pairs merge commutatively, so the fold is order-insensitive.
		run := make([]Posting, 0, j-i)
		for _, sp := range all[i:j] {
			if m := len(run); m > 0 && run[m-1].Graph == sp.p.Graph {
				run[m-1].Count += sp.p.Count
				continue
			}
			run = append(run, sp.p)
		}
		pl := t.pages.at(id)
		if pl.ids != nil {
			run = mergePostingRuns(pl.Postings(), run)
		} else if _, dead := t.dead[id]; dead {
			revived = append(revived, id)
		}
		*pl = sealPostings(t.policy, run)
		i = j
	}
	return revived
}

// mergePostingRuns merges two graph-sorted posting runs, combining postings
// of the same graph (counts add).
func mergePostingRuns(a, b []Posting) []Posting {
	out := make([]Posting, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Graph < b[j].Graph:
			out = append(out, a[i])
			i++
		case a[i].Graph > b[j].Graph:
			out = append(out, b[j])
			j++
		default:
			out = append(out, Posting{Graph: a[i].Graph, Count: a[i].Count + b[j].Count})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
