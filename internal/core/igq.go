// Package core implements iGQ — the paper's contribution: a query-graph
// index layered on top of any filter-then-verify graph query processing
// method M, exploiting subgraph/supergraph relationships between new and
// previously executed queries to prune M's candidate set before the
// expensive subgraph isomorphism tests (paper §4), plus the utility-based
// index space management of §5.
//
// The three knowledge paths of Fig 6 are all implemented:
//
//   - the dataset index path: M.Filter produces CS(g);
//   - the subgraph path (Isub): cached queries G ⊇ g contribute their
//     answers — removed from CS(g) (formula 3) and added to the final
//     answer (formula 4);
//   - the supergraph path (Isuper): cached queries G ⊆ g restrict CS(g) to
//     the intersection of their answers (formula 5).
//
// The two optimal cases of §4.3 (identical query, and an empty-answer
// subgraph hit) short-circuit verification entirely, and §4.4's inverse
// wiring supports supergraph query processing with the same two indexes.
//
// A query runs in one order: fingerprint probe → feature enumeration →
// M.Filter → Isub/Isuper lookup → verification. The probe recognises an
// identical cached query from a fingerprint table and answers it there and
// then — the stages after it exist to prune and verify a candidate set the
// hit does not need. What the hit still owes the replacement policy, the
// §5.1 credit over all of CS(g), comes from a per-entry memo of CS(g)'s
// size and cost taken when the entry was admitted (entry.base) and carried
// through dataset mutations by their cache patch; the filter runs for a hit
// only to make that memo anew — after a Load, an index rebuild, or a
// removal that took a graph out of CS(g).
//
// # Concurrency model
//
// Query, QueryCtx and QueryNoAdmit are safe for concurrent use from any
// number of goroutines. The hot path is lookup-only: each call loads one
// immutable cache snapshot (entries and the index over their features that
// serves as both Isub and Isuper) via an atomic pointer and runs filtering,
// cache probes and verification against it without locks. Per-query credit
// (§5.1 metadata) and window admission are accumulated in a per-call buffer
// and applied to the shared metadata under a short mutex at the end of the
// call. A window flush is the paper's §5.2 shadow index: it builds the new
// cache-side index beside the served one and installs it with a pointer
// swap. Queries keep reading the old snapshot meanwhile; only writers
// (admissions, dataset mutations, Save) wait for it on that mutex. A cached
// query owns what is derived from it — its features and its compiled
// matching program, each worked out once — so a flush only re-sorts
// postings it already has: its cost follows the window, not the cache. Any
// consistent snapshot yields correct answers (Theorems 1 and 2), so readers
// never wait for writers. See README.md.
package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/iso"
)

// Mode selects which query semantics the wrapped method M implements.
type Mode int

const (
	// SubgraphQueries: M answers "which dataset graphs contain g".
	SubgraphQueries Mode = iota
	// SupergraphQueries: M answers "which dataset graphs are contained in
	// g" (M.Verify(q, id) must test db[id] ⊆ q, e.g. contain.Index).
	SupergraphQueries
)

// String names the mode as the serving layer does: "sub" or "super".
func (m Mode) String() string {
	if m == SupergraphQueries {
		return "super"
	}
	return "sub"
}

// ShortCircuit describes the §4.3 optimal cases.
type ShortCircuit int

const (
	// NoShortCircuit: the normal three-path pipeline ran.
	NoShortCircuit ShortCircuit = iota
	// IdenticalHit: the query is isomorphic to a cached query; its stored
	// answer was returned with zero dataset isomorphism tests.
	IdenticalHit
	// EmptyAnswerHit: a cached subquery (resp. superquery) with an empty
	// answer proves the new query's answer is empty.
	EmptyAnswerHit
)

// Options configures an iGQ instance. Zero values select the paper's
// defaults (C=500, W=100, path features of length ≤ 4).
type Options struct {
	// CacheSize is C, the maximum number of cached query graphs.
	CacheSize int
	// Window is W, the batch window size (W ≤ C; paper default 100).
	Window int
	// MaxPathLen is the feature length for Isub/Isuper (default 4).
	MaxPathLen int
	// Labels is the label-domain size L of the cost model; 0 derives it
	// from the dataset at construction.
	Labels int
	// Mode selects subgraph (default) or supergraph query processing.
	Mode Mode
	// Shards has no effect: the cache-side index is one flat array with no
	// snapshot segments. The field remains only because the benchmark
	// harness sets it and goes with that harness's next revision (ROADMAP).
	Shards int
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 500
	}
	if o.Window <= 0 {
		o.Window = 100
	}
	if o.Window > o.CacheSize {
		o.Window = o.CacheSize
	}
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = 4
	}
	return o
}

// Outcome reports one query's processing, with the counters the paper's
// experiments are built on.
type Outcome struct {
	Answer []int32 // sorted dataset graph ids

	// Dataset is the dataset generation Answer indexes into — under live
	// mutation (DatasetAppended/DatasetRemoved) callers must materialise
	// answers against this exact slice, not whatever generation is current
	// by the time they look.
	Dataset []*graph.Graph

	// BaseCandidates is |CS(g)| from M alone. On an identical hit it is the
	// entry's memoised value for this dataset generation — equal to what the
	// filter would return, without running it.
	BaseCandidates  int
	FinalCandidates int // candidates verified after iGQ pruning
	Verified        int // final candidates that passed verification
	DatasetIsoTests int // subgraph isomorphism tests against dataset graphs
	CacheIsoTests   int // tests against cached (small) query graphs
	SubHits         int // |Isub(g)| (verified)
	SuperHits       int // |Isuper(g)| (verified)
	Short           ShortCircuit

	FilterDur time.Duration // M.Filter time; 0 on an identical hit that found its memo
	CacheDur  time.Duration // fingerprint probe + Isub/Isuper lookup, cache-side tests included
	VerifyDur time.Duration // dataset verification time
}

// snapshot is one immutable generation of the cache's read state: the
// dataset and method generation being answered over, the committed entries
// in ascending admission order, the fingerprint table, and the cache-side
// index built over exactly those entries, which names them by their position
// in the slice. Position order is therefore hit order, and hit order decides
// which entry is credited with a candidate several could have pruned, so it
// must not change. A snapshot is never mutated after it is
// installed; flushes build a new one and swap the pointer (the paper's
// "Ishadow replaces I with a pointer swap"), and dataset mutations
// (DatasetAppended/DatasetRemoved) install a generation whose db, m and
// patched entries change *together* — a query loads one snapshot and sees
// a fully consistent (dataset, index, cache) triple. Entry *metadata*
// (logCost) is the one mutable element reachable from a snapshot; it
// is written only under IGQ.mu and read only under IGQ.mu (eviction,
// Save), never on the lock-free answer path.
type snapshot struct {
	db      []*graph.Graph
	m       index.Method
	dbGen   int64 // dataset generation: bumped by each mutation, kept by flushes
	entries []*entry
	byFP    map[uint64][]*entry // structural fingerprint → entries, for the identical probe
	index   *cacheIndex         // Isub and Isuper over entries, by position
}

// newSnapshot assembles a snapshot over entries and the index built over them.
func newSnapshot(db []*graph.Graph, m index.Method, dbGen int64, entries []*entry, ix *cacheIndex) *snapshot {
	s := &snapshot{db: db, m: m, dbGen: dbGen, entries: entries, index: ix,
		byFP: make(map[uint64][]*entry, len(entries))}
	for _, e := range entries {
		s.byFP[e.fp] = append(s.byFP[e.fp], e)
	}
	return s
}

// IGQ wraps a built index.Method with the query-graph cache. Safe for
// concurrent Query/QueryCtx/QueryNoAdmit calls; see the package comment for
// the read/write split.
type IGQ struct {
	m   index.Method
	db  []*graph.Graph
	opt Options

	seq  atomic.Int64             // queries processed
	snap atomic.Pointer[snapshot] // lock-free read state

	// mu guards the write side: entry metadata, the admission window,
	// flushes and the id allocator.
	mu      sync.Mutex
	nextID  int32
	window  []*entry
	flushes int

	// Interned-feature machinery: the dictionary is shared with the wrapped
	// method when it exposes one (index.DictProvider), so a query graph is
	// canonicalised exactly once for dataset filtering and cache lookup.
	dict       *features.Dict
	methodDict bool // dict is the method's: its filter understands our IDs

	// scratches is a bounded free list of per-call buffers (feature
	// enumeration, cache lookup state, pending credits):
	// each in-flight query owns one exclusively, and at steady state the
	// list holds one warm scratch per degree of actual concurrency. A plain
	// free list rather than a sync.Pool because pools are emptied by the GC,
	// and a cold scratch re-grows its maps and buffers for thousands of
	// queries before reaching steady state again.
	scratchMu sync.Mutex
	scratches []*queryScratch

	memoRenewals atomic.Int64 // filters run by identical hits to renew their base memo
	patchTests   int64        // compiled tests run by dataset-mutation patches; guarded by mu
}

// queryScratch is the reusable per-call state of one Query.
type queryScratch struct {
	feat                 *features.Scratch
	ge, le               []int32     // cacheIndex.candidates: per-position counters
	subCands, superCands []int32     // its results
	subHits, superHits   []*entry    // cacheLookup's results
	prog                 iso.Program // the query compiled, for the sub-side tests
	credits              []pendingCredit
	isoCosts             []isoCost // logIsoCost's memo, by target vertex count
}

// isoCost is one memoised LogIsoCost value: the cost of a test of a
// queryNodes-vertex query against a target of the slot's vertex count.
// queryNodes is stored plus one, so that the zero slot is empty.
type isoCost struct {
	queryNodes int
	cost       float64
}

// logIsoCost is LogIsoCost(queryNodes, targetNodes, labels) with the value
// memoised in sc by target size — a query prices many candidates of few
// distinct sizes, and each slot stays valid until a query of another size
// claims it.
func (sc *queryScratch) logIsoCost(queryNodes, targetNodes, labels int) float64 {
	if targetNodes >= len(sc.isoCosts) {
		sc.isoCosts = append(sc.isoCosts, make([]isoCost, targetNodes+1-len(sc.isoCosts))...)
	}
	slot := &sc.isoCosts[targetNodes]
	if slot.queryNodes != queryNodes+1 {
		*slot = isoCost{queryNodes: queryNodes + 1, cost: LogIsoCost(queryNodes, targetNodes, labels)}
	}
	return slot.cost
}

// pendingCredit is one entry's deferred §5.1 metadata update: computed
// lock-free during the query, applied under IGQ.mu at commit.
type pendingCredit struct {
	e       *entry
	logCost float64 // log-sum-exp of the alleviated test costs (-Inf if none)
}

// New wraps method m (which must already be Built over db) with an iGQ
// query cache.
func New(m index.Method, db []*graph.Graph, opt Options) *IGQ {
	opt = opt.withDefaults()
	if opt.Labels == 0 {
		seen := map[graph.Label]struct{}{}
		for _, g := range db {
			for _, l := range g.LabelSet() {
				seen[l] = struct{}{}
			}
		}
		opt.Labels = len(seen)
	}
	q := &IGQ{
		m:   m,
		db:  db,
		opt: opt,
	}
	if dp, ok := m.(index.DictProvider); ok {
		q.dict = dp.FeatureDict()
		q.methodDict = true
	} else {
		q.dict = features.NewDict()
	}
	q.snap.Store(q.buildSnapshot(db, m, 0, nil))
	return q
}

// scratchKeep bounds the free list: enough for heavily parallel serving,
// small enough that an idle IGQ pins only a few warm scratches.
const scratchKeep = 32

// getScratch hands out an exclusive per-call scratch, reusing a warm one
// when available.
func (q *IGQ) getScratch() *queryScratch {
	q.scratchMu.Lock()
	if n := len(q.scratches); n > 0 {
		sc := q.scratches[n-1]
		q.scratches[n-1] = nil
		q.scratches = q.scratches[:n-1]
		q.scratchMu.Unlock()
		return sc
	}
	q.scratchMu.Unlock()
	return &queryScratch{feat: features.NewScratch()}
}

// putScratch returns a scratch to the free list (dropped if full). The
// credit and hit buffers are cleared so an idle scratch does not pin cache
// entries (and their cloned graphs and answer sets) past eviction.
func (q *IGQ) putScratch(sc *queryScratch) {
	clear(sc.credits)
	clear(sc.subHits)
	clear(sc.superHits)
	sc.credits = sc.credits[:0]
	q.scratchMu.Lock()
	if len(q.scratches) < scratchKeep {
		q.scratches = append(q.scratches, sc)
	}
	q.scratchMu.Unlock()
}

// CacheLen returns the number of active cached queries (excluding the
// pending window).
func (q *IGQ) CacheLen() int { return len(q.snap.Load().entries) }

// WindowLen returns the number of queries pending in the batch window.
func (q *IGQ) WindowLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.window)
}

// Flushes returns how many window flushes (shadow rebuilds) have occurred.
func (q *IGQ) Flushes() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.flushes
}

// MemoRenewals returns how many identical hits ran the dataset filter to
// renew their entry's base memo.
func (q *IGQ) MemoRenewals() int64 { return q.memoRenewals.Load() }

// SizeBytes reports the iGQ space overhead: the cache-side index, the stored
// query graphs with their programs and features, their answer sets, metadata
// and base memos, and the snapshot's fingerprint table (paper Fig 18). The
// feature dictionary is counted only when iGQ owns a private one — when the
// wrapped method shares its dictionary (index.DictProvider), the method's
// SizeBytes already accounts for it.
func (q *IGQ) SizeBytes() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	snap := q.snap.Load()
	sz := snap.index.SizeBytes()
	if !q.methodDict {
		sz += q.dict.SizeBytes()
	}
	for _, e := range snap.entries {
		sz += e.sizeBytes() + byFPEntryBytes
	}
	for _, e := range q.window {
		sz += e.sizeBytes()
	}
	return sz
}

// byFPEntryBytes approximates one entry's share of snapshot.byFP: the key,
// a one-element bucket (slice header + pointer) and the map's bookkeeping.
const byFPEntryBytes = 8 + 24 + 8 + 8

// Query processes one query through the full iGQ pipeline of Fig 6 and
// returns its outcome. The final answer is exactly what M alone would have
// produced (paper Theorems 1 and 2), with fewer verification tests.
// Equivalent to QueryCtx with a background context (which never errors).
func (q *IGQ) Query(g *graph.Graph) *Outcome {
	out, _ := q.run(context.Background(), g, true)
	return out
}

// QueryCtx is Query with cooperative cancellation: ctx is checked on entry
// and inside the candidate-verification loop (the dominant cost). A
// cancelled query returns ctx's error and leaves no trace in the cache — no
// credit, no admission. Safe for concurrent use.
func (q *IGQ) QueryCtx(ctx context.Context, g *graph.Graph) (*Outcome, error) {
	return q.run(ctx, g, true)
}

// QueryNoAdmit is QueryCtx for read-mostly serving: the query benefits from
// all cached knowledge and still credits the entries that pruned for it,
// but is not admitted to the window — so it can never trigger a flush.
func (q *IGQ) QueryNoAdmit(ctx context.Context, g *graph.Graph) (*Outcome, error) {
	return q.run(ctx, g, false)
}

func (q *IGQ) run(ctx context.Context, g *graph.Graph, admit bool) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := q.snap.Load()
	q.seq.Add(1)
	out := &Outcome{Dataset: snap.db}

	// §4.3 optimal case 1: identical query. It is recognised from the
	// fingerprint table alone, so a hit answers before the query's features
	// are enumerated, before the dataset is filtered and before Isub/Isuper
	// are probed. The entry is credited with the whole of CS(g) from its
	// memo; only a hit that finds no memo for this dataset generation
	// filters, to make one.
	qfp := graph.Fingerprint(g)
	t0 := time.Now()
	identical := snap.identical(g, qfp, out)
	out.CacheDur = time.Since(t0)
	if identical != nil {
		base := identical.base.Load()
		if base == nil || base.dbGen != snap.dbGen {
			q.memoRenewals.Add(1)
			sc := q.getScratch()
			_, cs := q.baseCandidates(snap, g, sc, out)
			base = q.newBaseMemo(snap, sc, g.NumVertices(), cs)
			q.putScratch(sc)
			identical.base.Store(base)
		}
		out.BaseCandidates = base.n
		out.SubHits, out.SuperHits = 1, 1 // an identical query is both
		out.Short = IdenticalHit
		if len(identical.answer) > 0 {
			out.Answer = append([]int32(nil), identical.answer...)
		}
		identical.applyCredit(base.logCost)
		return out, nil
	}

	sc := q.getScratch()
	defer q.putScratch(sc)
	sc.credits = sc.credits[:0]
	qf, cs := q.baseCandidates(snap, g, sc, out)

	t0 = time.Now()
	subHits, superHits := q.cacheLookup(snap, g, qf, sc, out)
	out.CacheDur += time.Since(t0)

	// unionSide entries contribute answers directly (formulas 3–4);
	// intersectSide entries bound the candidate set (formula 5). §4.4: the
	// roles swap for supergraph query processing.
	unionSide, intersectSide := subHits, superHits
	if q.opt.Mode == SupergraphQueries {
		unionSide, intersectSide = superHits, subHits
	}
	out.SubHits, out.SuperHits = len(subHits), len(superHits)

	// §4.3 optimal case 2: an empty-answer hit on the intersect side
	// empties the candidate set outright.
	for _, e := range intersectSide {
		if len(e.answer) == 0 {
			out.Short = EmptyAnswerHit
			out.Answer = nil
			q.pendCredit(sc, snap.db, e, g.NumVertices(), cs)
			q.commit(sc, snap, g, qf, nil, cs, admit)
			return out, nil
		}
	}

	// Formula (3): remove union-side answers from CS.
	pruned := cs
	for _, e := range unionSide {
		removed := index.IntersectSorted(cs, e.answer)
		q.pendCredit(sc, snap.db, e, g.NumVertices(), removed)
		pruned = index.SubtractSorted(pruned, e.answer)
	}
	// Formula (5): intersect with intersect-side answers.
	for _, e := range intersectSide {
		removed := index.SubtractSorted(pruned, e.answer)
		q.pendCredit(sc, snap.db, e, g.NumVertices(), removed)
		pruned = index.IntersectSorted(pruned, e.answer)
	}
	out.FinalCandidates = len(pruned)

	// Verification stage: the dominant cost, and therefore where
	// cancellation is checked (before every test). A cancelled query
	// commits nothing.
	t0 = time.Now()
	verified, err := index.VerifyCandidates(ctx, snap.m, g, pruned)
	if err != nil {
		return nil, err
	}
	out.DatasetIsoTests = len(pruned)
	out.Verified = len(verified)
	out.VerifyDur = time.Since(t0)

	// Formula (4): add union-side answers back.
	answer := verified
	for _, e := range unionSide {
		answer = index.UnionSorted(answer, e.answer)
	}
	if len(answer) == 0 {
		answer = nil // normalise: empty answers are nil, like index.Answer
	}
	out.Answer = answer

	q.commit(sc, snap, g, qf, answer, cs, admit)
	return out, nil
}

// identical returns the committed entry isomorphic to g, if any (§4.3's
// "easily recognized" case): entries sharing g's structural fingerprint and
// its vertex and edge counts are tested, at one cache-side isomorphism test
// each (containment between graphs of one size is isomorphism).
func (s *snapshot) identical(g *graph.Graph, qfp uint64, out *Outcome) *entry {
	for _, e := range s.byFP[qfp] {
		if e.sameSize(g) {
			out.CacheIsoTests++
			if e.prog.Match(g) {
				return e
			}
		}
	}
	return nil
}

// baseCandidates computes CS(g) = M.Filter(g) over snap's dataset
// generation, recording its size and duration in out. One lookup-only
// enumeration serves dataset filtering (when the method shares our
// dictionary) and the cache probe that follows, so the features are
// returned too. The dictionary is not grown here: features of g enter it at
// admission/flush time.
func (q *IGQ) baseCandidates(snap *snapshot, g *graph.Graph, sc *queryScratch, out *Outcome) (features.IDSet, []int32) {
	qf := features.PathsID(g, features.PathOptions{MaxLen: q.opt.MaxPathLen}, q.dict, sc.feat, false)

	var cs []int32
	t0 := time.Now()
	if countFilter := q.countFilter(snap.m); countFilter != nil {
		cs = normalizeIDs(countFilter.FilterByFeatureCounts(qf))
	} else {
		cs = normalizeIDs(snap.m.Filter(g))
	}
	out.FilterDur = time.Since(t0)
	out.BaseCandidates = len(cs)
	return qf, cs
}

// countFilter returns m's count filter when it is sound to feed it the
// cache's enumeration: m's index was built over the cache's own dictionary
// at the cache's feature length. Then CS(g) is decided graph by graph by
// per-feature count comparisons over the cache's feature IDs — the dataset
// side's FilterCountGE in subgraph mode, Algorithm 2 in supergraph mode,
// the same comparisons cacheIndex.candidates applies to the cached graphs —
// which the mutation patches rely on. nil otherwise.
func (q *IGQ) countFilter(m index.Method) index.CountFilterer {
	cf, counts := m.(index.CountFilterer)
	dp, shares := m.(index.DictProvider)
	if !counts || !shares || dp.FeatureDict() != q.dict || cf.FeatureMaxPathLen() != q.opt.MaxPathLen {
		return nil
	}
	return cf
}

// cacheLookup finds and verifies the Isub and Isuper hits for a query g
// that is not identical to any committed entry, in ascending admission
// order. Candidates of g's own size are skipped untested: equal sizes +
// containment ⇒ isomorphism, which the identical probe has already ruled
// out. Every test runs a compiled pattern: the entry's own program on the
// super side, and on the sub side g, compiled into the scratch when the
// first candidate gets that far. The results alias sc.
func (q *IGQ) cacheLookup(snap *snapshot, g *graph.Graph, qf features.IDSet, sc *queryScratch, out *Outcome) (subHits, superHits []*entry) {
	subCands, superCands := snap.index.candidates(qf, sc)
	// union-side entries with empty answers neither prune nor contribute
	// answers, so their verification is skipped; intersect-side empties are
	// maximally useful (the §4.3 empty-answer short-circuit) and are kept.
	subIsUnion := q.opt.Mode == SubgraphQueries
	subHits, superHits = sc.subHits[:0], sc.superHits[:0]
	compiled := false
	for _, pos := range subCands {
		e := snap.entries[pos]
		if e.sameSize(g) || (subIsUnion && len(e.answer) == 0) {
			continue
		}
		if !compiled {
			sc.prog.Recompile(g)
			compiled = true
		}
		out.CacheIsoTests++
		if sc.prog.Match(e.g) {
			subHits = append(subHits, e)
		}
	}
	for _, pos := range superCands {
		e := snap.entries[pos]
		if e.sameSize(g) || (!subIsUnion && len(e.answer) == 0) {
			continue
		}
		out.CacheIsoTests++
		if e.prog.Match(g) {
			superHits = append(superHits, e)
		}
	}
	sc.subHits, sc.superHits = subHits, superHits
	return subHits, superHits
}

// pendCredit buffers one entry's hit credit: the pruned candidates' cost
// contribution is folded into a single log-sum-exp delta here, lock-free,
// so the later application under IGQ.mu is O(1) per credited entry.
func (q *IGQ) pendCredit(sc *queryScratch, db []*graph.Graph, e *entry, queryNodes int, prunedIDs []int32) {
	sc.credits = append(sc.credits, pendingCredit{e: e, logCost: q.foldIsoCosts(math.Inf(-1), sc, db, queryNodes, prunedIDs)})
}

// foldIsoCosts folds the §5.1 test costs a queryNodes-vertex query would pay
// against the dataset graphs ids, in order, into the log-sum-exp sum (-Inf
// for none): every credit and base memo is one such fold, so a memo grown by
// a further fold over higher ids equals one folded over all of them.
func (q *IGQ) foldIsoCosts(sum float64, sc *queryScratch, db []*graph.Graph, queryNodes int, ids []int32) float64 {
	for _, id := range ids {
		sum = LogSumExp(sum, sc.logIsoCost(queryNodes, db[id].NumVertices(), q.opt.Labels))
	}
	return sum
}

// newBaseMemo records the credit an identical hit earns on snap's dataset
// generation: all of cs = CS(g), folded exactly as pendCredit would.
func (q *IGQ) newBaseMemo(snap *snapshot, sc *queryScratch, queryNodes int, cs []int32) *baseMemo {
	return &baseMemo{dbGen: snap.dbGen, n: len(cs), logCost: q.foldIsoCosts(math.Inf(-1), sc, snap.db, queryNodes, cs)}
}

// commit applies one query's buffered writes. The §5.1 credits fold into
// the per-entry atomic credit cells lock-free — a pure cache hit never
// touches the metadata mutex at all, so the commit path scales with the
// number of cores. Only admission (a structural write: window append,
// possible flush) still takes q.mu. The entry is made before the lock is
// taken, from what the query already worked out: the base memo of cs, its
// own CS(g), so that its first identical hit already skips the filter, and
// its enumeration qf as the entry's features — unless a feature was unknown
// to the dictionary (always possible with a private one, which only flushes
// grow), in which case qf is incomplete and the entry's first flush
// enumerates it, interning.
//
// snap is the snapshot the query ran against. If a dataset mutation
// committed while the query was in flight, its answer references the *old*
// generation's positions and must not be admitted — admitting it would
// plant stale knowledge the mutation's cache patch never saw. The credits
// still apply where their entries survive (metadata heuristics, not
// answers); credits against superseded entry clones are simply lost.
func (q *IGQ) commit(sc *queryScratch, snap *snapshot, g *graph.Graph, qf features.IDSet, answer, cs []int32, admit bool) {
	for _, c := range sc.credits {
		c.e.applyCredit(c.logCost)
	}
	if !admit {
		return
	}
	e := newEntry(0, g.Clone(), answer, 0)
	e.base.Store(q.newBaseMemo(snap, sc, g.NumVertices(), cs))
	if qf.Unknown == 0 {
		e.feats = append([]features.IDCount{}, qf.Counts...)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.snap.Load().dbGen == snap.dbGen {
		q.admitLocked(e)
	}
}

// admitLocked stores an executed query's entry in the batch window (Itemp)
// under the next admission number, flushing when W queries have
// accumulated. Exact duplicates of a
// window member or of a committed entry are skipped (an identical *cached*
// query normally short-circuits before admission, but two concurrent first
// sightings of the same query both miss the pre-admission snapshot; the
// duplicate is caught here, under the lock; answer-correctness never
// depends on dedup). Caller holds q.mu.
func (q *IGQ) admitLocked(ne *entry) {
	for _, e := range q.window {
		if e.fp == ne.fp && e.sameSize(ne.g) && e.prog.Match(ne.g) {
			return
		}
	}
	for _, e := range q.snap.Load().byFP[ne.fp] {
		if e.sameSize(ne.g) && e.prog.Match(ne.g) {
			return
		}
	}
	ne.id, ne.insertedAt = q.nextID, q.seq.Load()
	q.nextID++
	q.window = append(q.window, ne)
	if len(q.window) >= q.opt.Window {
		q.flushLocked()
	}
}

// flushLocked applies the replacement policy (§5.1) and builds the
// cache-side index over the surviving and the new entries' own features
// (§5.2's shadow index), installing the result as a new snapshot with a
// pointer swap. Queries keep reading the previous snapshot while it is
// built; the flush is the pipeline's one full serialization point for
// writers. Caller holds q.mu.
func (q *IGQ) flushLocked() {
	q.flushes++
	cur := q.snap.Load()
	newEntries := q.planFlushLocked()
	q.window = nil
	q.snap.Store(q.buildSnapshot(cur.db, cur.m, cur.dbGen, newEntries))
}

// planFlushLocked computes the post-flush entry set without touching the
// currently served snapshot (fresh slice, shared entry pointers so metadata
// credited during the build carries over). Caller holds q.mu.
func (q *IGQ) planFlushLocked() []*entry {
	active := q.snap.Load().entries
	evict := map[int32]struct{}{}
	if overflow := len(active) + len(q.window) - q.opt.CacheSize; overflow > 0 {
		order := evictionOrder(active, q.seq.Load())
		if overflow > len(order) {
			overflow = len(order)
		}
		for _, e := range order[:overflow] {
			evict[e.id] = struct{}{}
		}
	}
	newEntries := make([]*entry, 0, len(active)+len(q.window))
	for _, e := range active {
		if _, gone := evict[e.id]; !gone {
			newEntries = append(newEntries, e)
		}
	}
	return append(newEntries, q.window...)
}

// normalizeIDs enforces the sorted-unique candidate invariant the pruning
// set operations rely on. Well-behaved methods already comply (verified
// O(n)); a sloppy method costs one sort instead of silent corruption.
func normalizeIDs(ids []int32) []int32 {
	sorted := true
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			sorted = false
			break
		}
	}
	if sorted {
		return ids
	}
	ids = sortIDs(append([]int32(nil), ids...))
	out := ids[:0]
	for i, v := range ids {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// RebuildIndexes re-derives the features of every cached query — committed
// and pending — and installs a cache-side index rebuilt over them as a
// fresh snapshot. Required after the wrapped method's index is replaced via
// index.Persistable.LoadIndex: loading resets the shared feature
// dictionary, which voids every FeatureID the entries own. Takes the
// metadata mutex; concurrent queries finish on the snapshot they started
// with, exactly as with a window flush.
func (q *IGQ) RebuildIndexes() {
	q.mu.Lock()
	defer q.mu.Unlock()
	cur := q.snap.Load()
	for _, e := range cur.entries {
		e.feats = nil
	}
	for _, e := range q.window {
		e.feats = nil
	}
	// A new generation: the replaced index may filter differently (a loaded
	// snapshot brings its own feature length), so base memos taken over the
	// old one must not be trusted — and a query in flight across the reset
	// must not admit features enumerated under the old dictionary.
	q.snap.Store(q.buildSnapshot(cur.db, cur.m, cur.dbGen+1, cur.entries))
}

// buildSnapshot builds the cache-side index over entries — enumerating those
// that do not own their features yet — and assembles the snapshot serving
// them over generation dbGen of (m, db): the one path of construction,
// flush, Load and RebuildIndexes.
func (q *IGQ) buildSnapshot(db []*graph.Graph, m index.Method, dbGen int64, entries []*entry) *snapshot {
	return newSnapshot(db, m, dbGen, entries, buildCacheIndex(q.dict, entries, q.opt.MaxPathLen))
}
