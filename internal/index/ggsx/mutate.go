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
// later AppendDelta persists them in O(delta). Grapes mutates through the
// same AppendPaths/RemovePaths, exactly as it builds through BuildPaths.

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
	newDB, tr, err := AppendPaths(x.tr, x.log, x.db, gs, x.opt.MaxPathLen)
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
	newDB, tr, mapping, err := RemovePaths(x.tr, x.log, x.db, positions, x.opt.MaxPathLen)
	if err != nil {
		return nil, nil, nil, err
	}
	nx := &Index{opt: x.opt, db: newDB, dict: x.dict, tr: tr, log: x.log}
	return nx, newDB, mapping, nil
}

// AppendPaths stages one append batch of path features against tr, records
// it into log and applies it: the write path GGSX and Grapes share, since
// their indexes are the same postings. It returns append(db, gs...) and the
// post-mutation trie; tr is left untouched.
func AppendPaths(tr *trie.Trie, log *index.DeltaLog, db, gs []*graph.Graph, maxLen int) ([]*graph.Graph, *trie.Trie, error) {
	if len(gs) == 0 {
		return nil, nil, errors.New("index: no graphs to append")
	}
	for _, g := range gs {
		if g == nil {
			return nil, nil, errors.New("index: nil graph in append batch")
		}
	}
	newDB := make([]*graph.Graph, 0, len(db)+len(gs))
	newDB = append(newDB, db...)
	newDB = append(newDB, gs...)
	mut := tr.NewMutation()
	stageAppend(mut, int32(len(db)), gs, features.PathOptions{MaxLen: maxLen})
	log.Record(mut)
	return newDB, mut.Apply(), nil
}

// RemovePaths is AppendPaths for one swap-removal batch (index.SwapRemove
// semantics); it also returns the old→new position mapping.
func RemovePaths(tr *trie.Trie, log *index.DeltaLog, db []*graph.Graph, positions []int, maxLen int) ([]*graph.Graph, *trie.Trie, []int32, error) {
	newDB, steps, mapping, err := index.SwapRemove(db, positions)
	if err != nil {
		return nil, nil, nil, err
	}
	mut := tr.NewMutation()
	StageRemovals(mut, steps, features.PathOptions{MaxLen: maxLen})
	log.Record(mut)
	return newDB, mut.Apply(), mapping, nil
}

// stageAppend enumerates gs — the graphs appended at dataset positions
// startID, startID+1, ... — and stages their features into mut. Feature
// records are key-sorted so staging is deterministic run to run.
func stageAppend(mut *trie.Mutation, startID int32, gs []*graph.Graph, opt features.PathOptions) {
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
// StageRemovals: the contain method stages the same records but
// interleaves its own NF bookkeeping per graph.
func GraphFeatures(ps *features.PathSet) []trie.GraphFeature {
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
