package ggsx

// Incremental dataset maintenance. Appending graphs enumerates only the new
// graphs and stages their features into a copy-on-write trie mutation;
// removing graphs enumerates only the removed (and swapped) graphs to scrub
// exactly their postings. NF follows in the same pass: an appended graph
// adds its distinct-feature count, and each swap-removal step moves the last
// position's count into the vacated slot. Both return a new Index generation
// sharing the dictionary, the delta log and all unaffected trie state with
// the receiver — the receiver keeps answering over the old dataset until the
// caller swaps generations, which is what makes mutation safe alongside
// concurrent queries in either direction. The trie side copies only the
// pages of its table that hold a touched feature (plus the page directory)
// and copies each touched feature's posting list once,
// so a batch costs O(touched features' postings), not O(vocabulary). The
// staged ops are recorded into the shared DeltaLog so a later AppendDelta
// persists them in O(delta).

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/trie"
)

var (
	_ index.Mutable          = (*Index)(nil)
	_ index.DeltaPersistable = (*Index)(nil)
)

// Dataset implements index.Mutable.
func (x *Index) Dataset() []*graph.Graph { return x.db }

// AppendGraphs implements index.Mutable: a copy-on-write generation over
// append(db, gs...). O(delta): only the new graphs are enumerated, once,
// for both their postings and their NF.
func (x *Index) AppendGraphs(gs []*graph.Graph) (index.Mutable, []*graph.Graph, error) {
	if x.db == nil {
		return nil, nil, fmt.Errorf("%s: AppendGraphs before Build", x.kind())
	}
	if len(gs) == 0 {
		return nil, nil, errors.New("index: no graphs to append")
	}
	for _, g := range gs {
		if g == nil {
			return nil, nil, errors.New("index: nil graph in append batch")
		}
	}
	newDB := make([]*graph.Graph, 0, len(x.db)+len(gs))
	newDB = append(append(newDB, x.db...), gs...)
	mut := x.tr.NewMutation()
	added := stageAppend(mut, int32(len(x.db)), gs, features.PathOptions{MaxLen: x.opt.MaxPathLen})
	x.log.Record(mut)
	var nf []int32
	if p := x.nf.Load(); p != nil {
		nf = append(append(make([]int32, 0, len(newDB)), *p...), added...)
	}
	return x.next(newDB, mut.Apply(), nf), newDB, nil
}

// RemoveGraphs implements index.Mutable under the canonical swap-removal
// semantics of index.SwapRemove. O(delta): only the removed and swapped
// graphs are enumerated; NF follows each swap step without enumeration.
func (x *Index) RemoveGraphs(positions []int) (index.Mutable, []*graph.Graph, []int32, error) {
	if x.db == nil {
		return nil, nil, nil, fmt.Errorf("%s: RemoveGraphs before Build", x.kind())
	}
	newDB, steps, mapping, err := index.SwapRemove(x.db, positions)
	if err != nil {
		return nil, nil, nil, err
	}
	mut := x.tr.NewMutation()
	stageRemovals(mut, steps, features.PathOptions{MaxLen: x.opt.MaxPathLen})
	x.log.Record(mut)
	var nf []int32
	if p := x.nf.Load(); p != nil {
		nf = slices.Clone(*p)
		for _, st := range steps {
			nf[st.Removed] = nf[st.SwappedFrom]
			nf = nf[:st.SwappedFrom]
		}
	}
	return x.next(newDB, mut.Apply(), nf), newDB, mapping, nil
}

// next is the generation a mutation produces over (db, tr), sharing the
// dictionary and the delta log; nf is its NF, or nil when the receiver had
// not counted one either.
func (x *Index) next(db []*graph.Graph, tr *trie.Trie, nf []int32) *Index {
	nx := &Index{opt: x.opt, db: db, dict: x.dict, tr: tr, log: x.log}
	if nf != nil {
		nx.nf.Store(&nf)
	}
	return nx
}

// stageAppend enumerates gs — the graphs appended at dataset positions
// startID, startID+1, ... — stages their features into mut and returns
// their NF. Feature records are key-sorted so staging is deterministic run
// to run.
func stageAppend(mut *trie.Mutation, startID int32, gs []*graph.Graph, opt features.PathOptions) []int32 {
	nf := make([]int32, len(gs))
	for i, g := range gs {
		feats := graphFeatures(features.Paths(g, opt))
		mut.AppendGraph(startID+int32(i), feats)
		nf[i] = int32(len(feats))
	}
	return nf
}

// stageRemovals stages the swap-removal steps of index.SwapRemove: each
// step scrubs the removed graph's feature keys and re-homes the swapped
// graph's postings.
func stageRemovals(mut *trie.Mutation, steps []index.RemoveStep, opt features.PathOptions) {
	for _, st := range steps {
		scrub := featureKeys(features.Paths(st.RemovedGraph, opt))
		var swapped []trie.GraphFeature
		if st.SwappedGraph != nil {
			swapped = graphFeatures(features.Paths(st.SwappedGraph, opt))
		}
		mut.RemoveGraph(st.Removed, st.SwappedFrom, scrub, swapped)
	}
}

// graphFeatures flattens a PathSet into key-sorted feature records, ready
// for Mutation.AppendGraph/RemoveGraph staging.
func graphFeatures(ps *features.PathSet) []trie.GraphFeature {
	out := make([]trie.GraphFeature, 0, len(ps.Counts))
	for k, c := range ps.Counts {
		out = append(out, trie.GraphFeature{Key: k, Count: int32(c)})
	}
	slices.SortFunc(out, func(a, b trie.GraphFeature) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		default:
			return 0
		}
	})
	return out
}

// featureKeys lists a PathSet's canonical keys, sorted.
func featureKeys(ps *features.PathSet) []string {
	out := make([]string, 0, len(ps.Counts))
	for k := range ps.Counts {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// AppendDelta implements index.DeltaPersistable via the shared
// index.AppendIndexDelta flow.
func (x *Index) AppendDelta(f io.ReadWriteSeeker) error {
	if x.db == nil {
		return fmt.Errorf("%s: AppendDelta before Build", x.kind())
	}
	stamp := trie.JournalStamp{DBChecksum: index.DBChecksum(x.db), NumGraphs: len(x.db)}
	return index.AppendIndexDelta(f, x.log, x.kind(), stamp, x.writeIndex)
}

// MaintainDelta implements index.DeltaMaintainable: AppendDelta plus the
// idle-compaction check, for timer-driven journal maintenance.
func (x *Index) MaintainDelta(f io.ReadWriteSeeker) (bool, error) {
	if x.db == nil {
		return false, fmt.Errorf("%s: MaintainDelta before Build", x.kind())
	}
	stamp := trie.JournalStamp{DBChecksum: index.DBChecksum(x.db), NumGraphs: len(x.db)}
	return index.MaintainIndexDelta(f, x.log, x.kind(), stamp, x.writeIndex)
}
