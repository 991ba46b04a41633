package ggsx

import (
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
// posting list stays undecoded until a query first probes it, and budget
// bounds the decoded lists kept resident (0 = unbounded). src must stay
// open and immutable until the index is materialised or discarded. The
// next save's segment count follows the same rule as LoadIndex. A
// supergraph read needs NF, which is counted from every posting, so it
// materialises the index.
func (x *Index) LoadIndexLazy(src trie.RandomAccessFile, db []*graph.Graph, budget int64) (index.LoadReport, error) {
	cr := &index.CountingScanner{R: index.AsByteScanner(io.NewSectionReader(src, 0, src.Size()))}
	env, err := index.ReadIndexEnvelope(cr)
	if err != nil {
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("%s: %w", x.kind(), err)
	}
	if err := index.ValidateEnvelopeMethod(env, x.kind()); err != nil {
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("%s: %w", x.kind(), err)
	}
	envBytes := cr.N
	// Same rollback discipline as LoadIndex: a failed open leaves the index
	// and the shared dictionary byte-identical to their pre-call state.
	oldKeys := x.dict.Keys()
	rollback := func() {
		x.dict.Reset()
		x.dict.InternKeys(oldKeys)
	}
	x.dict.Reset()
	tr := trie.NewWithDict(x.dict)
	n, rec, err := tr.OpenLazy(
		io.NewSectionReader(src, envBytes, src.Size()-envBytes),
		trie.LazyOptions{Workers: x.opt.BuildWorkers, BudgetBytes: budget})
	if err != nil {
		rollback()
		return index.LoadReport{Bytes: envBytes}, fmt.Errorf("%s: opening trie: %w", x.kind(), err)
	}
	if rec != nil {
		rec.CommittedBytes += envBytes // translate to src-absolute offsets
	}
	// Dataset guard: a journaled snapshot answers for the newest journal
	// stamp's dataset, not the envelope's base (see LoadIndex). The journal
	// tail is scanned eagerly even on the lazy path, so the stamp is known.
	sum, ng := env.DBChecksum, env.NumGraphs
	if st := tr.JournalStamp(); st != nil {
		sum, ng = st.DBChecksum, st.NumGraphs
	}
	if err := index.ValidateDataset(sum, ng, db); err != nil {
		rollback()
		return index.LoadReport{Bytes: envBytes + n}, fmt.Errorf("%s: %w", x.kind(), err)
	}
	x.adoptSegments(tr)
	x.opt.MaxPathLen = env.MaxPathLen
	x.db = db
	x.tr = tr
	x.nf.Store(nil)
	base := envBytes + n
	if rec != nil {
		base = rec.CommittedBytes
	}
	x.log.NoteFullSave(base)
	return index.LoadReport{Bytes: envBytes + n, RecoveredTail: rec}, nil
}

// Materialize implements index.LazyLoadable: decodes every segment whole,
// releasing the dependency on the lazy source. No-op when the index
// was loaded eagerly or built fresh.
func (x *Index) Materialize() error {
	if x.tr == nil {
		return fmt.Errorf("%s: Materialize before Build or LoadIndex", x.kind())
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
