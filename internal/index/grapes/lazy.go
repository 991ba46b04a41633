package grapes

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/trie"
)

var (
	_ index.LazyLoadable      = (*Index)(nil)
	_ index.ResidencyReporter = (*Index)(nil)
)

// LoadIndexLazy implements index.LazyLoadable: like LoadIndex, but a
// posting list stays undecoded until a query first probes it, under a
// resident-byte budget (0 = unbounded). src
// must stay open and immutable until the index is materialised or
// discarded; the snapshot's saved shard layout is adopted as-is (see
// index.LazyLoadable).
func (x *Index) LoadIndexLazy(src trie.RandomAccessFile, db []*graph.Graph, budget int64, opts ...index.LoadOption) (index.LoadReport, error) {
	cfg := index.ResolveLoadOptions(opts)
	cr := &index.CountingScanner{R: index.AsByteScanner(io.NewSectionReader(src, 0, src.Size()))}
	env, err := index.ReadIndexEnvelope(cr)
	if err != nil {
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("grapes: %w", err)
	}
	if err := index.ValidateEnvelopeMethod(env, methodTag); err != nil {
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("grapes: %w", err)
	}
	envBytes := cr.N
	// Same rollback discipline as LoadIndex (see ggsx.Index.LoadIndexLazy).
	oldKeys := x.dict.Keys()
	rollback := func() {
		x.dict.Reset()
		for _, k := range oldKeys {
			x.dict.Intern(k)
		}
	}
	x.dict.Reset()
	tr := trie.NewSharded(x.dict, 0)
	n, rec, err := tr.OpenLazy(
		io.NewSectionReader(src, envBytes, src.Size()-envBytes),
		trie.LazyOptions{Workers: x.opt.BuildWorkers, Strict: cfg.Strict, BudgetBytes: budget})
	if err != nil {
		rollback()
		return index.LoadReport{Bytes: envBytes}, fmt.Errorf("grapes: opening trie: %w", err)
	}
	if rec != nil {
		rec.CommittedBytes += envBytes // translate to src-absolute offsets
	}
	sum, ng := env.DBChecksum, env.NumGraphs
	if st := tr.JournalStamp(); st != nil {
		sum, ng = st.DBChecksum, st.NumGraphs
	}
	if err := index.ValidateDataset(sum, ng, db); err != nil {
		rollback()
		return index.LoadReport{Bytes: envBytes + n}, fmt.Errorf("grapes: %w", err)
	}
	x.opt.MaxPathLen = env.MaxPathLen
	x.db = db
	x.tr = tr
	base := envBytes + n
	if rec != nil {
		base = rec.CommittedBytes
	}
	x.log.NoteFullSave(base)
	return index.LoadReport{Bytes: envBytes + n, RecoveredTail: rec}, nil
}

// Materialize implements index.LazyLoadable (see ggsx.Index.Materialize).
func (x *Index) Materialize() error {
	if x.tr == nil {
		return errors.New("grapes: Materialize before Build or LoadIndex")
	}
	return x.tr.Materialize()
}

// Residency implements index.ResidencyReporter.
func (x *Index) Residency() trie.Residency {
	if x.tr == nil {
		return trie.Residency{}
	}
	return x.tr.Residency()
}
