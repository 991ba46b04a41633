package contain

// Incremental dataset maintenance for the supergraph method. The
// containment index is the same trie the subgraph methods mutate
// copy-on-write, plus the NF table (distinct-feature count per graph), so
// mutation stages the identical trie ops — append the new graphs'
// features, scrub a removed graph's keys, re-home the swapped graph — and
// maintains NF alongside: appended graphs record their distinct-feature
// counts, and each swap-removal step moves the last position's count into
// the vacated slot. This is what lets a serving deployment's supergraph
// engine mutate without rebuilding its index over the whole dataset: the
// trie copies only the pages holding touched features and those features'
// posting lists, and NF costs one copy of an int32 per graph.
//
// Contain is deliberately *not* DeltaPersistable: its snapshot story is
// the combined engine snapshot (cache + NF are engine state), so there is
// no per-method delta journal to record into.

import (
	"errors"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ggsx"
)

var _ index.Mutable = (*Index)(nil)

// Dataset implements index.Mutable.
func (x *Index) Dataset() []*graph.Graph { return x.db }

// AppendGraphs implements index.Mutable: a copy-on-write generation over
// append(db, gs...). O(delta): only the new graphs are enumerated, once,
// feeding both their staged postings and their NF entries.
func (x *Index) AppendGraphs(gs []*graph.Graph) (index.Mutable, []*graph.Graph, error) {
	if x.db == nil {
		return nil, nil, errors.New("contain: AppendGraphs before Build")
	}
	if len(gs) == 0 {
		return nil, nil, errors.New("contain: no graphs to append")
	}
	for _, g := range gs {
		if g == nil {
			return nil, nil, errors.New("contain: nil graph in append batch")
		}
	}
	popt := features.PathOptions{MaxLen: x.opt.MaxPathLen}
	mut := x.ci.NewMutation()
	nf := x.ci.NFTable(len(gs))
	start := int32(len(x.db))
	for i, g := range gs {
		feats := ggsx.GraphFeatures(features.Paths(g, popt))
		mut.AppendGraph(start+int32(i), feats)
		nf = append(nf, int32(len(feats)))
	}
	newDB := make([]*graph.Graph, 0, len(x.db)+len(gs))
	newDB = append(newDB, x.db...)
	newDB = append(newDB, gs...)
	nx := &Index{opt: x.opt, db: newDB, ci: x.ci.ApplyMutation(mut, nf)}
	return nx, newDB, nil
}

// RemoveGraphs implements index.Mutable under the canonical swap-removal
// semantics of index.SwapRemove. O(delta): only the removed and swapped
// graphs are enumerated; NF follows each swap step without enumeration.
func (x *Index) RemoveGraphs(positions []int) (index.Mutable, []*graph.Graph, []int32, error) {
	if x.db == nil {
		return nil, nil, nil, errors.New("contain: RemoveGraphs before Build")
	}
	newDB, steps, mapping, err := index.SwapRemove(x.db, positions)
	if err != nil {
		return nil, nil, nil, err
	}
	mut := x.ci.NewMutation()
	ggsx.StageRemovals(mut, steps, features.PathOptions{MaxLen: x.opt.MaxPathLen})
	nf := x.ci.NFTable(0)
	for _, st := range steps {
		// NF mirrors the swap: the vacated slot inherits the last
		// position's count and the last slot disappears.
		nf[st.Removed] = nf[st.SwappedFrom]
		nf = nf[:st.SwappedFrom]
	}
	nx := &Index{opt: x.opt, db: newDB, ci: x.ci.ApplyMutation(mut, nf)}
	return nx, newDB, mapping, nil
}
