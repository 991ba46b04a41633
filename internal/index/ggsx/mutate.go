package ggsx

// Incremental dataset maintenance for the path methods. Appending graphs
// enumerates only the new graphs and stages their features into a
// copy-on-write trie mutation; removing graphs enumerates only the removed
// (and swapped) graphs to scrub exactly their postings. Both return a new
// Index generation sharing the dictionary, the delta log and all
// unaffected trie state with the receiver — the receiver keeps answering
// over the old dataset until the caller swaps generations, which is what
// makes mutation safe alongside concurrent queries. The trie side copies
// only the pages of its table that hold a touched feature (plus the page
// directory of each touched shard) and copies each touched feature's
// posting list once, so a batch costs O(touched features' postings), not
// O(vocabulary). The staged ops are recorded into the shared DeltaLog so a
// later AppendDelta persists them in O(delta). Grapes reuses these helpers with location recording on,
// exactly as it reuses BuildPaths.

import (
	"errors"
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
// append(db, gs...). O(delta): only the new graphs are enumerated.
func (x *Index) AppendGraphs(gs []*graph.Graph) (index.Mutable, []*graph.Graph, error) {
	if x.db == nil {
		return nil, nil, errors.New("ggsx: AppendGraphs before Build")
	}
	newDB, tr, err := x.appendGraphs(gs, features.PathOptions{MaxLen: x.opt.MaxPathLen})
	if err != nil {
		return nil, nil, err
	}
	nx := &Index{opt: x.opt, db: newDB, dict: x.dict, tr: tr, log: x.log}
	return nx, newDB, nil
}

// RemoveGraphs implements index.Mutable under the canonical swap-removal
// semantics of index.SwapRemove. O(delta): only the removed and swapped
// graphs are enumerated.
func (x *Index) RemoveGraphs(positions []int) (index.Mutable, []*graph.Graph, []int32, error) {
	if x.db == nil {
		return nil, nil, nil, errors.New("ggsx: RemoveGraphs before Build")
	}
	newDB, tr, mapping, err := x.removeGraphs(positions, features.PathOptions{MaxLen: x.opt.MaxPathLen})
	if err != nil {
		return nil, nil, nil, err
	}
	nx := &Index{opt: x.opt, db: newDB, dict: x.dict, tr: tr, log: x.log}
	return nx, newDB, mapping, nil
}

// appendGraphs stages and applies one append batch (shared with Grapes).
func (x *Index) appendGraphs(gs []*graph.Graph, popt features.PathOptions) ([]*graph.Graph, *trie.Trie, error) {
	if len(gs) == 0 {
		return nil, nil, errors.New("ggsx: no graphs to append")
	}
	for _, g := range gs {
		if g == nil {
			return nil, nil, errors.New("ggsx: nil graph in append batch")
		}
	}
	newDB := make([]*graph.Graph, 0, len(x.db)+len(gs))
	newDB = append(newDB, x.db...)
	newDB = append(newDB, gs...)
	mut := x.tr.NewMutation()
	StageAppend(mut, int32(len(x.db)), gs, popt)
	x.log.Record(mut)
	return newDB, mut.Apply(), nil
}

// removeGraphs stages and applies one removal batch (shared with Grapes).
func (x *Index) removeGraphs(positions []int, popt features.PathOptions) ([]*graph.Graph, *trie.Trie, []int32, error) {
	newDB, steps, mapping, err := index.SwapRemove(x.db, positions)
	if err != nil {
		return nil, nil, nil, err
	}
	mut := x.tr.NewMutation()
	StageRemovals(mut, steps, popt)
	x.log.Record(mut)
	return newDB, mut.Apply(), mapping, nil
}

// StageAppend enumerates gs — the graphs appended at dataset positions
// startID, startID+1, ... — and stages their features into mut. Feature
// records are key-sorted so staging is deterministic run to run.
func StageAppend(mut *trie.Mutation, startID int32, gs []*graph.Graph, opt features.PathOptions) {
	for i, g := range gs {
		mut.AppendGraph(startID+int32(i), GraphFeatures(features.Paths(g, opt)))
	}
}

// StageRemovals stages the swap-removal steps of index.SwapRemove: each
// step scrubs the removed graph's feature keys and re-homes the swapped
// graph's postings.
func StageRemovals(mut *trie.Mutation, steps []index.RemoveStep, opt features.PathOptions) {
	for _, st := range steps {
		scrub := featureKeys(features.Paths(st.RemovedGraph, opt))
		var swapped []trie.GraphFeature
		if st.SwappedGraph != nil {
			swapped = GraphFeatures(features.Paths(st.SwappedGraph, opt))
		}
		mut.RemoveGraph(st.Removed, st.SwappedFrom, scrub, swapped)
	}
}

// GraphFeatures flattens a PathSet into key-sorted feature records, ready
// for Mutation.AppendGraph/RemoveGraph staging. Exported alongside
// StageAppend/StageRemovals: the contain method stages the same records
// but interleaves its own NF bookkeeping per graph.
func GraphFeatures(ps *features.PathSet) []trie.GraphFeature {
	out := make([]trie.GraphFeature, 0, len(ps.Counts))
	for k, c := range ps.Counts {
		out = append(out, trie.GraphFeature{Key: k, Count: int32(c), Locs: ps.Locations[k]})
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
		return errors.New("ggsx: AppendDelta before Build")
	}
	stamp := trie.JournalStamp{DBChecksum: index.DBChecksum(x.db), NumGraphs: len(x.db)}
	return index.AppendIndexDelta(f, x.log, methodTag, stamp, x.writeIndex)
}

// MaintainDelta implements index.DeltaMaintainable: AppendDelta plus the
// idle-compaction check, for timer-driven journal maintenance.
func (x *Index) MaintainDelta(f io.ReadWriteSeeker) (bool, error) {
	if x.db == nil {
		return false, errors.New("ggsx: MaintainDelta before Build")
	}
	stamp := trie.JournalStamp{DBChecksum: index.DBChecksum(x.db), NumGraphs: len(x.db)}
	return index.MaintainIndexDelta(f, x.log, methodTag, stamp, x.writeIndex)
}
