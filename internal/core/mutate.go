package core

// Dynamic datasets. Cached knowledge is dataset knowledge: every entry's
// answer set lists dataset positions, so a dataset mutation must patch the
// cache or the paper's correctness theorems stop holding (a cached
// supergraph hit would union in a stale answer). The two entry points here
// keep the cache exact under mutation, at O(delta) cost per entry:
//
//   - DatasetAppended extends each cached answer with the appended graphs
//     that match the cached query — one isomorphism test per (entry, new
//     graph) on a pattern compiled once (the entry's own program, or in
//     supergraph mode the new graph's), never a re-verification against the
//     old dataset;
//   - DatasetRemoved rewrites each answer through the swap-removal
//     position mapping (drop removed ids, renumber moved ones) — no
//     isomorphism tests at all.
//
// Both run under the metadata mutex with any in-flight §5.2 shadow build
// drained, patch the committed entries copy-on-write (in-flight queries
// keep reading the old generation's entries), patch the pending window in
// place (window entries are only ever read under the mutex), and install
// one new snapshot in which the dataset, the method generation and the
// patched entries change together. The cache-side index is *reused*: it
// indexes the cached query graphs' features by entry position, and a
// dataset mutation touches neither.
//
// Entry metadata (hits, removed, logCost) carries over by value. A credit
// computed by a query in flight against the pre-mutation generation may be
// applied to a superseded entry object and lost — harmless (the §5.1
// counters are a replacement heuristic, not answers) and only possible
// under concurrent mutation; sequential histories lose nothing.

import (
	"context"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/iso"
)

// DatasetAppended installs the post-append generation (m, db): every
// cached answer — committed and pending — is extended with the new graphs
// (positions oldLen..len(db)-1) that match the cached query under the
// configured mode. ctx is checked between isomorphism tests; a cancelled
// call leaves the cache exactly as it was.
func (q *IGQ) DatasetAppended(ctx context.Context, m index.Method, db []*graph.Graph, oldLen int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.waitShadowLocked()
	cur := q.snap.Load()

	// In supergraph mode the new graphs are the patterns, one program each —
	// compiled only when there are cached queries to test them against.
	var added []*iso.Program
	if q.opt.Mode == SupergraphQueries && len(cur.entries)+len(q.window) > 0 {
		for _, g := range db[oldLen:] {
			added = append(added, iso.Compile(g))
		}
	}
	matches := func(e *entry) ([]int32, error) {
		var add []int32
		for i := oldLen; i < len(db); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var hit bool
			if added != nil {
				hit = added[i-oldLen].Match(e.g)
			} else {
				hit = e.prog.Match(db[i])
			}
			if hit {
				add = append(add, int32(i))
			}
		}
		return add, nil
	}

	// Compute every patch before changing anything, so cancellation (or a
	// future error path) cannot leave the cache half-updated.
	newEntries := make([]*entry, len(cur.entries))
	for i, e := range cur.entries {
		add, err := matches(e)
		if err != nil {
			return err
		}
		newEntries[i] = e.withAnswer(index.UnionSorted(e.answer, add))
	}
	winAdds := make([][]int32, len(q.window))
	for i, e := range q.window {
		add, err := matches(e)
		if err != nil {
			return err
		}
		winAdds[i] = add
	}

	for i, e := range q.window {
		e.answer = index.UnionSorted(e.answer, winAdds[i])
	}
	q.installPatched(cur, newEntries, m, db)
	return nil
}

// DatasetRemoved installs the post-removal generation (m, db): every
// cached answer is rewritten through the swap-removal mapping returned by
// the method's RemoveGraphs (mapping[old] = new position, -1 = removed).
func (q *IGQ) DatasetRemoved(ctx context.Context, m index.Method, db []*graph.Graph, mapping []int32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.waitShadowLocked()
	cur := q.snap.Load()

	newEntries := make([]*entry, len(cur.entries))
	for i, e := range cur.entries {
		newEntries[i] = e.withAnswer(index.ApplyMapping(append([]int32(nil), e.answer...), mapping))
	}
	for _, e := range q.window {
		e.answer = index.ApplyMapping(e.answer, mapping)
	}
	q.installPatched(cur, newEntries, m, db)
	return nil
}

// installPatched swaps in a snapshot holding the patched entries over the
// new (m, db) generation, reusing the cache-side index (the cached query
// graphs, their features and their positions are unchanged). Caller holds
// q.mu.
func (q *IGQ) installPatched(cur *snapshot, entries []*entry, m index.Method, db []*graph.Graph) {
	// Bumping the generation makes commit drop admissions computed by
	// queries still in flight against the previous generation — their
	// answers reference superseded dataset positions — and marks every base
	// memo taken on it as stale.
	q.snap.Store(newSnapshot(db, m, cur.dbGen+1, entries, cur.index))
}
