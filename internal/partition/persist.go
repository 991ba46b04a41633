package partition

// Per-partition persistence and rebalance. Each partition owns one
// snapshot + journal lineage, reusing the engine machinery unchanged:
// SaveAll writes an atomic combined engine snapshot per partition,
// LoadGroup restores every partition from its own file against the
// hash-routed split of the dataset, and AppendDeltas/MaintainDeltas give
// each partition's index lineage the same O(delta) journal appends and
// workload-adaptive compaction an engine gets. The lineage layout is flat
// and predictable — PartPath: base itself for one partition, base.pI for
// partition i of more — so a partition's state is exactly two files it
// could ship to another process (the recorded cross-process rebalance
// follow-up).

import (
	"errors"
	"fmt"
	"os"

	igq "repro"
	"repro/internal/persistio"
)

// PartPath names partition i's file in an n-way lineage rooted at base:
// base itself when n is 1, so a one-partition group reads and writes the
// files of an engine (igq.SaveEngineFile, igq.SaveIndexFile); base.p0,
// base.p1, ... otherwise.
func PartPath(base string, i, n int) string {
	if n == 1 {
		return base
	}
	return fmt.Sprintf("%s.p%d", base, i)
}

// HaveAllParts reports whether every partition file of an n-way lineage
// rooted at base exists — the "restore instead of build" probe.
func HaveAllParts(base string, n int) bool {
	if base == "" {
		return false
	}
	for i := 0; i < n; i++ {
		if _, err := os.Stat(PartPath(base, i, n)); err != nil {
			return false
		}
	}
	return true
}

// SaveAll atomically writes each partition's combined engine snapshot
// (index + the default direction's query cache) to PartPath(base, i, n),
// with igq.SaveEngineFile. The other direction's cache is not persisted; it
// restarts empty over the restored index. Exclusive with mutations.
func (g *Group) SaveAll(base string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	parts := *g.parts.Load()
	for i, p := range parts {
		if err := igq.SaveEngineFile(PartPath(base, i, len(parts)), p); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
	}
	return nil
}

// LoadGroup restores a Group from an opt.Partitions-way snapshot lineage
// rooted at base: db is split by the same stable routing New uses and each
// partition is restored from its own file (journal tails replayed, torn
// tails self-healed — the per-partition LoadReports are returned in
// partition order). lopts pass to every partition's igq.LoadEngineFile:
// with igq.WithLazyLoad each partition maps its file under its own budget.
// With opt.Super the restored engines answer supergraph queries from their
// restored indexes.
func LoadGroup(base string, db []*igq.Graph, opt Options, lopts ...igq.EngineLoadOption) (*Group, []igq.LoadReport, error) {
	opt = normalized(opt)
	if err := checkIDs(db); err != nil {
		return nil, nil, err
	}
	split, err := route(db, opt.Partitions)
	if err != nil {
		return nil, nil, err
	}
	parts := make([]*igq.Engine, len(split))
	reports := make([]igq.LoadReport, len(split))
	for i, pdb := range split {
		e, rep, err := igq.LoadEngineFile(PartPath(base, i, len(split)), pdb, opt.Engine, lopts...)
		if err != nil {
			return nil, nil, fmt.Errorf("partition %d: %w", i, err)
		}
		reports[i] = rep
		parts[i] = e
	}
	g, err := newGroup(parts, opt)
	if err != nil {
		return nil, nil, err
	}
	return g, reports, nil
}

// AppendDeltas appends each partition's pending mutation journal to its
// index lineage file PartPath(base, i, n) — an O(delta-per-partition)
// write. Partitions whose lineage file does not exist yet are skipped (the
// lineage is seeded by igq.SaveIndexFile out of band).
func (g *Group) AppendDeltas(base string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	parts := *g.parts.Load()
	var errs []error
	for i, p := range parts {
		err := withLineage(PartPath(base, i, len(parts)), func(f *persistio.PathFile) error {
			return p.AppendIndexDelta(f)
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("partition %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// MaintainDeltas runs one journal-maintenance pass per partition lineage:
// pending deltas are appended and over-threshold journal debt compacted
// even when nothing is pending. Reports whether any lineage was modified.
func (g *Group) MaintainDeltas(base string) (bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	parts := *g.parts.Load()
	changed := false
	var errs []error
	for i, p := range parts {
		err := withLineage(PartPath(base, i, len(parts)), func(f *persistio.PathFile) error {
			ch, err := p.MaintainIndexDelta(f)
			changed = changed || ch
			return err
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("partition %d: %w", i, err))
		}
	}
	return changed, errors.Join(errs...)
}

// withLineage opens a lineage file and applies fn; a missing file is a
// clean no-op.
func withLineage(path string, fn func(*persistio.PathFile) error) error {
	f, err := persistio.OpenFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	return fn(f)
}
