package grapes

// Incremental dataset maintenance: Grapes mutates through GGSX's write path
// (ggsx.AppendPaths/RemovePaths, exactly as Build shares ggsx.BuildPaths),
// since the two indexes hold the same postings. Mutation is copy-on-write:
// the receiver keeps serving the old dataset untouched.

import (
	"errors"
	"io"

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
	newDB, tr, err := ggsx.AppendPaths(x.tr, x.log, x.db, gs, x.opt.MaxPathLen)
	if err != nil {
		return nil, nil, err
	}
	return x.clone(newDB, tr), newDB, nil
}

// RemoveGraphs implements index.Mutable (see ggsx.Index.RemoveGraphs).
func (x *Index) RemoveGraphs(positions []int) (index.Mutable, []*graph.Graph, []int32, error) {
	if x.db == nil {
		return nil, nil, nil, errors.New("grapes: RemoveGraphs before Build")
	}
	newDB, tr, mapping, err := ggsx.RemovePaths(x.tr, x.log, x.db, positions, x.opt.MaxPathLen)
	if err != nil {
		return nil, nil, nil, err
	}
	return x.clone(newDB, tr), newDB, mapping, nil
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
