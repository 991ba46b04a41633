package core

// Dynamic datasets. Cached knowledge is dataset knowledge: every entry's
// answer set lists dataset positions, and so does the CS(g) its base memo
// sums over. A dataset mutation must therefore patch the cache, or the
// paper's correctness theorems stop holding (a cached supergraph hit would
// union in a stale answer). The two entry points here keep the cache exact
// under mutation, at O(delta) cost, by reading the cache's own index in the
// other direction:
//
//   - Each appended, removed or moved graph h is enumerated once, lookup-only
//     against the cache's dictionary and outside the metadata mutex, and
//     probes the cache index once (holders). The probe's other side — the
//     cached queries that may contain h in supergraph mode, or that may be
//     contained in it in subgraph mode — holds every entry whose answer can
//     gain or lose h, because path counts have no false negatives. When the
//     method filters by feature counts over the same dictionary at the same
//     length (IGQ.countFilter), it is moreover exactly the set of entries g
//     with h ∈ CS(g): the dataset filter applies the same per-graph count
//     comparison. Window entries, which no index covers yet, are checked
//     against their own features by that comparison (windowHolders).
//   - DatasetAppended runs one compiled test per probe candidate — the
//     entry's own program, or in supergraph mode h's, compiled once — and
//     extends the answer with the matches; never a re-verification against
//     the old dataset. A base memo current on the previous generation
//     continues its fold over the candidates: appended positions lie above
//     every old one, so the result equals a fresh renewal bit for bit.
//   - DatasetRemoved rewrites each answer through the swap-removal position
//     mapping (drop removed ids, renumber moved ones), with no tests. A
//     current base memo survives unchanged unless CS(g) held a removed or
//     moved graph: a moved member changes the fold order, and a log-sum-exp
//     cannot be unfolded exactly.
//   - With any other method the answers are patched the same way and the
//     memos are dropped; each entry's next identical hit renews its own.
//
// Both install under the metadata mutex, re-probing if a flush changed the
// snapshot meanwhile. They patch the committed entries copy-on-write
// (in-flight queries keep reading the old generation's entries), patch the
// pending window in place (window entries are only ever read under the
// mutex), and install one new snapshot in which the dataset, the method
// generation and the patched entries change together. The cache-side index is *reused*: it indexes the cached
// query graphs' features by entry position, and a dataset mutation touches
// neither. Callers serialise mutations against each other.
//
// Entry metadata (logCost) carries over by value. A credit
// computed by a query in flight against the pre-mutation generation may be
// applied to a superseded entry object and lost — harmless (the §5.1
// counters are a replacement heuristic, not answers) and only possible
// under concurrent mutation; sequential histories lose nothing.

import (
	"context"
	"math"
	"slices"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/iso"
)

// mutated is one appended, removed or moved dataset graph: its position
// (new for an append, old for a removal) and, once enumerated, its features
// under the cache's dictionary. A graph no cached query can hold by size
// (mayHold) is never enumerated and holds nothing.
type mutated struct {
	id         int32
	g          *graph.Graph
	enumerated bool
	feats      features.IDSet
}

// DatasetAppended installs the post-append generation (m, db): every
// cached answer — committed and pending — is extended with the new graphs
// (positions oldLen..len(db)-1) that match the cached query under the
// configured mode, and every base memo current on the previous generation
// is carried onto the new one. ctx is checked between isomorphism tests; a
// cancelled call leaves the cache exactly as it was.
func (q *IGQ) DatasetAppended(ctx context.Context, m index.Method, db []*graph.Graph, oldLen int) error {
	sc := q.getScratch()
	defer q.putScratch(sc)
	added := func(*snapshot) []mutated {
		hs := make([]mutated, len(db)-oldLen)
		for i := range hs {
			hs[i] = mutated{id: int32(oldLen + i), g: db[oldLen+i]}
		}
		return hs
	}
	hs, held, cur := q.probeLocked(sc, added)
	defer q.mu.Unlock()
	keepMemos := q.countFilter(cur.m) != nil && q.countFilter(m) != nil
	winHeld := q.windowHolders(hs)

	// In supergraph mode the new graphs are the patterns, each compiled on
	// its first candidate.
	var progs []*iso.Program
	if q.opt.Mode == SupergraphQueries {
		progs = make([]*iso.Program, len(hs))
	}
	tests := 0
	patch := func(e *entry, cands []int32) (answer []int32, base *baseMemo, err error) {
		var add []int32
		for _, id := range cands {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			tests++
			var hit bool
			if progs != nil {
				p := progs[id-int32(oldLen)]
				if p == nil {
					p = iso.Compile(db[id])
					progs[id-int32(oldLen)] = p
				}
				hit = p.Match(e.g)
			} else {
				hit = e.prog.Match(db[id])
			}
			if hit {
				add = append(add, id)
			}
		}
		if keepMemos {
			base = q.carryMemo(e, cur.dbGen, sc, db, cands)
		}
		return index.UnionSorted(e.answer, add), base, nil
	}

	// Compute every patch before changing anything, so cancellation (or a
	// future error path) cannot leave the cache half-updated.
	newEntries := make([]*entry, len(cur.entries))
	for i, e := range cur.entries {
		answer, base, err := patch(e, held[i])
		if err != nil {
			return err
		}
		newEntries[i] = e.withAnswer(answer, base)
	}
	winAnswers := make([][]int32, len(q.window))
	winBases := make([]*baseMemo, len(q.window))
	for i, e := range q.window {
		var err error
		if winAnswers[i], winBases[i], err = patch(e, winHeld[i]); err != nil {
			return err
		}
	}

	for i, e := range q.window {
		e.answer = winAnswers[i]
		e.base.Store(winBases[i])
	}
	q.patchTests += int64(tests)
	q.installPatched(cur, newEntries, m, db)
	return nil
}

// DatasetRemoved installs the post-removal generation (m, db): every
// cached answer is rewritten through the swap-removal mapping returned by
// the method's RemoveGraphs (mapping[old] = new position, -1 = removed),
// and every base memo whose CS(g) held no removed or moved graph is carried
// onto the new generation unchanged.
func (q *IGQ) DatasetRemoved(ctx context.Context, m index.Method, db []*graph.Graph, mapping []int32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sc := q.getScratch()
	defer q.putScratch(sc)
	// Answers follow the mapping alone; only the memos need the probe, and
	// only when they can be kept.
	keepMemos := q.countFilter(q.snap.Load().m) != nil && q.countFilter(m) != nil
	gone := func(s *snapshot) []mutated {
		var hs []mutated
		for old, now := range mapping {
			if keepMemos && now != int32(old) {
				hs = append(hs, mutated{id: int32(old), g: s.db[old]})
			}
		}
		return hs
	}
	hs, held, cur := q.probeLocked(sc, gone)
	defer q.mu.Unlock()
	winHeld := q.windowHolders(hs)

	newEntries := make([]*entry, len(cur.entries))
	for i, e := range cur.entries {
		var base *baseMemo
		if keepMemos && len(held[i]) == 0 {
			base = q.carryMemo(e, cur.dbGen, sc, nil, nil)
		}
		newEntries[i] = e.withAnswer(index.ApplyMapping(append([]int32(nil), e.answer...), mapping), base)
	}
	for i, e := range q.window {
		var base *baseMemo
		if keepMemos && len(winHeld[i]) == 0 {
			base = q.carryMemo(e, cur.dbGen, sc, nil, nil)
		}
		e.answer = index.ApplyMapping(e.answer, mapping)
		e.base.Store(base)
	}
	q.installPatched(cur, newEntries, m, db)
	return nil
}

// probeLocked enumerates the mutated graphs — mutatedIn(s) — and probes
// the cache index once per graph, both before the metadata mutex is taken.
// It then takes q.mu, has every window entry own its features
// (enumerating, interning, those that do not yet, as their flush would) and
// returns the snapshot to patch. What the first pass could not see is made
// up under the lock: a generation change (an index rebuild may renumber the
// dictionary) or a feature the dictionary learnt since (a
// flush or the window may have interned one the graphs hold, which the
// lookup-only pass missed) enumerates everything again; a graph only the
// window's queries are large or small enough to hold is enumerated now; and
// a changed snapshot is probed again. held lists, per committed position,
// the ids of the mutated graphs that entry may hold (holders). The caller
// unlocks q.mu.
func (q *IGQ) probeLocked(sc *queryScratch, mutatedIn func(*snapshot) []mutated) (hs []mutated, held [][]int32, cur *snapshot) {
	probed := q.snap.Load()
	known := q.dict.Len()
	hs = mutatedIn(probed)
	q.enumerate(hs, sc, probed.entries)
	held = q.holders(probed.index, hs, sc)
	q.mu.Lock()
	cur = q.snap.Load()
	var fsc *features.Scratch
	for _, e := range q.window {
		fsc = e.ownFeatures(q.dict, q.opt.MaxPathLen, fsc)
	}
	if cur.dbGen != probed.dbGen || q.dict.Len() != known {
		hs = mutatedIn(cur)
	}
	if q.enumerate(hs, sc, cur.entries, q.window) {
		probed = nil
	}
	if cur != probed {
		held = q.holders(cur.index, hs, sc)
	}
	return hs, held, cur
}

// enumerate enumerates, once, each mutated graph a cached query among
// lists can hold by size, lookup-only under the cache's dictionary: a
// feature the dictionary does not know is held by no cached query, so it
// can only count against a graph in the comparisons that follow, never hide
// one. It reports whether it enumerated any graph.
func (q *IGQ) enumerate(hs []mutated, sc *queryScratch, lists ...[]*entry) bool {
	lo, hi := math.MaxInt, -1 // fewest and most vertices of a cached query
	for _, l := range lists {
		for _, e := range l {
			lo, hi = min(lo, e.g.NumVertices()), max(hi, e.g.NumVertices())
		}
	}
	more := false
	for i := range hs {
		h := &hs[i]
		if h.enumerated || !q.mayHold(h.g.NumVertices(), lo, hi) {
			continue
		}
		hf := features.PathsID(h.g, features.PathOptions{MaxLen: q.opt.MaxPathLen}, q.dict, sc.feat, false)
		h.feats = features.IDSet{Counts: slices.Clone(hf.Counts), Unknown: hf.Unknown}
		h.enumerated, more = true, true
	}
	return more
}

// mayHold reports whether a cached query with lo to hi vertices can hold a
// graph of n vertices, in its answer or in its CS(g). Vertex labels are
// path features too, counted once per vertex, so the count comparison that
// decides CS(g) membership implies the vertex-count one, as containment
// does: in subgraph mode the cached query has at most n vertices, in
// supergraph mode at least n. (Supergraph queries are mostly far smaller
// than the dataset graphs they might contain.)
func (q *IGQ) mayHold(n, lo, hi int) bool {
	if q.opt.Mode == SupergraphQueries {
		return n <= hi
	}
	return n >= lo
}

// holders probes ix once per enumerated graph h and returns, per committed
// position, the ids of the graphs that entry may hold: in subgraph mode the
// cached queries that may be contained in h, in supergraph mode those that
// may contain it — the side of candidates a query would not read. Lists
// follow the order of hs.
func (q *IGQ) holders(ix *cacheIndex, hs []mutated, sc *queryScratch) [][]int32 {
	held := make([][]int32, len(ix.nf))
	super := q.opt.Mode == SupergraphQueries
	for _, h := range hs {
		if !h.enumerated {
			continue
		}
		containing, contained := ix.candidates(h.feats, sc)
		if !super {
			containing = contained
		}
		for _, pos := range containing {
			held[pos] = append(held[pos], h.id)
		}
	}
	return held
}

// windowHolders is holders for the pending window, which no index covers:
// each window entry is compared with each h on its own features (owned
// since probeLocked), by the test candidates applies. Caller holds q.mu.
func (q *IGQ) windowHolders(hs []mutated) [][]int32 {
	held := make([][]int32, len(q.window))
	if len(hs) == 0 {
		return held
	}
	counts := make(map[features.FeatureID]int32)
	for _, h := range hs {
		if !h.enumerated {
			continue
		}
		clear(counts)
		for _, fc := range h.feats.Counts {
			counts[fc.ID] = fc.Count
		}
		for w, e := range q.window {
			// ge counts e's features that e holds at least as often as h
			// does, le those it holds at most as often.
			ge, le := 0, 0
			for _, fc := range e.feats {
				if c, ok := counts[fc.ID]; ok {
					if fc.Count >= c {
						ge++
					}
					if fc.Count <= c {
						le++
					}
				}
			}
			var holds bool
			if q.opt.Mode == SupergraphQueries {
				holds = h.feats.Unknown == 0 && ge == len(h.feats.Counts)
			} else {
				holds = le == len(e.feats)
			}
			if holds {
				held[w] = append(held[w], h.id)
			}
		}
	}
	return held
}

// carryMemo returns e's base memo carried from generation gen onto the
// next, its CS(g) grown by the appended members ids — ascending and above
// every old member, so folding them on is the fold a renewal would make.
// nil when e holds no memo current on gen.
func (q *IGQ) carryMemo(e *entry, gen int64, sc *queryScratch, db []*graph.Graph, ids []int32) *baseMemo {
	b := e.base.Load()
	if b == nil || b.dbGen != gen {
		return nil
	}
	return &baseMemo{dbGen: gen + 1, n: b.n + len(ids), logCost: q.foldIsoCosts(b.logCost, sc, db, e.g.NumVertices(), ids)}
}

// installPatched swaps in a snapshot holding the patched entries over the
// new (m, db) generation, reusing the cache-side index (the cached query
// graphs, their features and their positions are unchanged). Caller holds
// q.mu.
func (q *IGQ) installPatched(cur *snapshot, entries []*entry, m index.Method, db []*graph.Graph) {
	// Bumping the generation makes commit drop admissions computed by
	// queries still in flight against the previous generation — their
	// answers reference superseded dataset positions — and marks every base
	// memo not carried onto it as stale.
	q.snap.Store(newSnapshot(db, m, cur.dbGen+1, entries, cur.index))
}
