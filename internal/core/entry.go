package core

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/iso"
)

// entry is one cached query graph with its answer set and the replacement-
// policy metadata of the paper's §5.1, and the owner of everything derived
// from the query graph: its compiled matching program and its interned
// features are worked out once in the entry's lifetime, so that a flush
// re-derives nothing about a graph the cache already holds.
//
// The metadata field logCost is a per-entry atomic credit cell: queries
// fold their buffered §5.1 credits into it lock-free at commit time, so the
// commit section scales with the number of cores instead of serialising
// every query on one metadata mutex. Readers (eviction planning, Save)
// sample the cells atomically; they need no lock because the §5.1 credit is
// a replacement heuristic, not answers — any torn read across *different*
// entries still yields a valid utility ranking of some interleaving. The
// paper's other two counters, H(g) and R(g), are not kept: the utility
// U(g) = C(g)/M(g) reads neither.
type entry struct {
	id     int32        // admission number: snapshot.entries is ascending in it
	g      *graph.Graph // the query graph (Igraphs store)
	answer []int32      // Answer(G): sorted dataset graph ids
	fp     uint64       // structural fingerprint for fast identical checks
	prog   *iso.Program // g compiled, for every cache-side test with g as the pattern

	// feats is g's path features under the cache's dictionary — the admitting
	// query's own enumeration when that was complete, otherwise nil until the
	// entry's first flush enumerates it (buildCacheIndex). Never mutated once
	// set; RebuildIndexes drops it when a dictionary reset voids the ids.
	// Touched only under IGQ.mu or by the one flush building over the entry.
	feats []features.IDCount

	insertedAt int64         // query sequence number at insertion (defines M(g))
	logCost    atomic.Uint64 // ln C(g) as float64 bits: log-sum-exp of alleviated test costs

	// base memoises the credit of an identical hit (nil until known). Any
	// goroutine may replace it; the memos it can race over are equal.
	base atomic.Pointer[baseMemo]
}

// baseMemo is what M.Filter contributes to an identical hit on this entry,
// on one dataset generation: the size of CS(g) and the log-sum-exp of the
// test costs over it, folded in candidate order — the hit prunes all of
// CS(g). It is exact, not a bound: CS(g) is a function of g's
// isomorphism-invariant features, so an identical query on the same
// generation filters to the same set. Dataset mutations carry it to the
// next generation when they can tell exactly how CS(g) changed (see
// mutate.go): an append continues the fold over the appended members, a
// removal keeps it when no removed or moved graph was a member. A memo
// whose dbGen is not the querying snapshot's is stale and is recomputed by
// the hit that finds it.
type baseMemo struct {
	dbGen   int64
	n       int
	logCost float64
}

// newEntry builds a cache entry; logCost starts at -Inf (C(g) = 0).
func newEntry(id int32, g *graph.Graph, answer []int32, seq int64) *entry {
	e := &entry{
		id:         id,
		g:          g,
		answer:     append([]int32(nil), answer...),
		fp:         graph.Fingerprint(g),
		prog:       iso.Compile(g),
		insertedAt: seq,
	}
	e.logCost.Store(math.Float64bits(math.Inf(-1)))
	return e
}

// withAnswer returns a copy of e carrying a different answer set and base
// memo (nil for none) — the copy-on-write step of dataset-mutation
// patching. Metadata (logCost) carries over by value; the
// graph, its fingerprint, program and features are shared (the cached query
// itself is untouched by dataset mutation).
func (e *entry) withAnswer(answer []int32, base *baseMemo) *entry {
	ne := &entry{
		id:         e.id,
		g:          e.g,
		answer:     answer,
		fp:         e.fp,
		prog:       e.prog,
		feats:      e.feats,
		insertedAt: e.insertedAt,
	}
	ne.logCost.Store(e.logCost.Load())
	ne.base.Store(base)
	return ne
}

// ownFeatures enumerates g's features under dict, interning, unless e owns
// them already — once in the entry's lifetime. sc is the enumeration
// scratch, made on first use and returned for the next call.
func (e *entry) ownFeatures(dict *features.Dict, maxPathLen int, sc *features.Scratch) *features.Scratch {
	if e.feats == nil {
		if sc == nil {
			sc = features.NewScratch()
		}
		qf := features.PathsID(e.g, features.PathOptions{MaxLen: maxPathLen}, dict, sc, true)
		e.feats = append([]features.IDCount{}, qf.Counts...)
	}
	return sc
}

// sameSize reports whether the cached graph has g's vertex and edge counts,
// which turns containment either way into isomorphism.
func (e *entry) sameSize(g *graph.Graph) bool {
	return e.g.NumVertices() == g.NumVertices() && e.g.NumEdges() == g.NumEdges()
}

// sizeBytes approximates the entry's footprint: graph, program, features,
// answer set, metadata and, once taken, the base memo. Caller holds IGQ.mu.
func (e *entry) sizeBytes() int {
	sz := e.g.SizeBytes() + e.prog.SizeBytes() + 8*len(e.feats) + 4*len(e.answer) + 96
	if e.base.Load() != nil {
		sz += 24
	}
	return sz
}

// loadLogCost returns ln C(g).
func (e *entry) loadLogCost() float64 { return math.Float64frombits(e.logCost.Load()) }

// setLogCost overwrites the credit cell — restore (Load) and test setup;
// the caller must own the entry exclusively.
func (e *entry) setLogCost(logCost float64) { e.logCost.Store(math.Float64bits(logCost)) }

// logUtility returns ln U(g) = ln C(g) − ln M(g) at sequence number seq.
// Entries that never alleviated a test have utility -Inf and are evicted
// first. M(g) is at least 1 to keep the ratio defined for brand-new entries.
func (e *entry) logUtility(seq int64) float64 {
	m := seq - e.insertedAt
	if m < 1 {
		m = 1
	}
	return e.loadLogCost() - math.Log(float64(m))
}

// applyCredit folds one buffered hit into the entry's §5.1 credit cell: the
// pre-combined log-sum-exp cost delta. Lock-free and safe from any number
// of goroutines — a CAS fold (LogSumExp is commutative, so any
// interleaving accumulates the same credit up to float rounding).
func (e *entry) applyCredit(logCostDelta float64) {
	for {
		old := e.logCost.Load()
		merged := math.Float64bits(LogSumExp(math.Float64frombits(old), logCostDelta))
		if old == merged || e.logCost.CompareAndSwap(old, merged) {
			return
		}
	}
}

// sortIDs sorts a slice of graph ids ascending, in place, returning it.
func sortIDs(ids []int32) []int32 {
	slices.Sort(ids)
	return ids
}

// evictionOrder returns the entries sorted by ascending utility (worst
// first), with ties broken by older insertion then lower id for
// determinism.
func evictionOrder(entries []*entry, seq int64) []*entry {
	out := append([]*entry(nil), entries...)
	slices.SortFunc(out, func(a, b *entry) int {
		if ua, ub := a.logUtility(seq), b.logUtility(seq); ua != ub {
			return cmp.Compare(ua, ub)
		}
		if c := cmp.Compare(a.insertedAt, b.insertedAt); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	return out
}
