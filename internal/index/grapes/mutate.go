package grapes

// Incremental dataset maintenance: Grapes mutates through the shared path
// staging of package ggsx (exactly as Build shares ggsx.BuildPaths), with
// location recording on so re-homed and appended postings carry their
// vertex sets like built ones. Mutation is copy-on-write: the receiver
// keeps serving the old dataset untouched.

import (
	"errors"
	"io"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/trie"
)

var (
	_ index.Mutable          = (*Index)(nil)
	_ index.DeltaPersistable = (*Index)(nil)
)

// Dataset implements index.Mutable.
func (x *Index) Dataset() []*graph.Graph { return x.db }

// pathOptions is the Grapes feature enumeration: locations on.
func (x *Index) pathOptions() features.PathOptions {
	return features.PathOptions{MaxLen: x.opt.MaxPathLen, Locations: true}
}

// clone returns a new generation over (db, tr) sharing the dictionary and
// delta log.
func (x *Index) clone(db []*graph.Graph, tr *trie.Trie) *Index {
	return &Index{opt: x.opt, db: db, dict: x.dict, tr: tr, log: x.log}
}

// AppendGraphs implements index.Mutable (see ggsx.Index.AppendGraphs).
func (x *Index) AppendGraphs(gs []*graph.Graph) (index.Mutable, []*graph.Graph, error) {
	if x.db == nil {
		return nil, nil, errors.New("grapes: AppendGraphs before Build")
	}
	if len(gs) == 0 {
		return nil, nil, errors.New("grapes: no graphs to append")
	}
	for _, g := range gs {
		if g == nil {
			return nil, nil, errors.New("grapes: nil graph in append batch")
		}
	}
	newDB := make([]*graph.Graph, 0, len(x.db)+len(gs))
	newDB = append(newDB, x.db...)
	newDB = append(newDB, gs...)
	mut := x.tr.NewMutation()
	ggsx.StageAppend(mut, int32(len(x.db)), gs, x.pathOptions())
	x.log.Record(mut)
	nx := x.clone(newDB, mut.Apply())
	return nx, newDB, nil
}

// RemoveGraphs implements index.Mutable (see ggsx.Index.RemoveGraphs).
func (x *Index) RemoveGraphs(positions []int) (index.Mutable, []*graph.Graph, []int32, error) {
	if x.db == nil {
		return nil, nil, nil, errors.New("grapes: RemoveGraphs before Build")
	}
	newDB, steps, mapping, err := index.SwapRemove(x.db, positions)
	if err != nil {
		return nil, nil, nil, err
	}
	mut := x.tr.NewMutation()
	ggsx.StageRemovals(mut, steps, x.pathOptions())
	x.log.Record(mut)
	nx := x.clone(newDB, mut.Apply())
	return nx, newDB, mapping, nil
}

// AppendDelta implements index.DeltaPersistable via the shared
// index.AppendIndexDelta flow.
func (x *Index) AppendDelta(f io.ReadWriteSeeker) error {
	if x.db == nil {
		return errors.New("grapes: AppendDelta before Build")
	}
	stamp := trie.JournalStamp{DBChecksum: index.DBChecksum(x.db), NumGraphs: len(x.db)}
	return index.AppendIndexDelta(f, x.log, methodTag, stamp, x.writeIndex)
}

// MaintainDelta implements index.DeltaMaintainable: AppendDelta plus the
// idle-compaction check, for timer-driven journal maintenance.
func (x *Index) MaintainDelta(f io.ReadWriteSeeker) (bool, error) {
	if x.db == nil {
		return false, errors.New("grapes: MaintainDelta before Build")
	}
	stamp := trie.JournalStamp{DBChecksum: index.DBChecksum(x.db), NumGraphs: len(x.db)}
	return index.MaintainIndexDelta(f, x.log, methodTag, stamp, x.writeIndex)
}
