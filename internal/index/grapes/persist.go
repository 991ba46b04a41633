package grapes

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/trie"
)

var _ index.Persistable = (*Index)(nil)

// methodTag identifies Grapes snapshots in the envelope header. Thread
// count is runtime configuration, not index content, so it is not part of
// the tag: a Grapes(6) process can load a Grapes(1) snapshot.
const methodTag = "Grapes"

// SaveIndex implements index.Persistable: an envelope header followed by
// the path trie in the segment format of internal/trie — the same bytes a
// GGSX index over the same dataset writes after its own envelope. A full
// save resets the delta-log lineage (see ggsx.Index.SaveIndex).
func (x *Index) SaveIndex(w io.Writer) error {
	n, err := x.writeIndex(w)
	if err != nil {
		return err
	}
	x.log.NoteFullSave(n)
	return nil
}

// writeIndex writes the full snapshot without touching the delta log.
func (x *Index) writeIndex(w io.Writer) (int64, error) {
	if x.db == nil {
		return 0, errors.New("grapes: SaveIndex before Build")
	}
	cw := &index.CountingWriter{W: w}
	err := index.WriteIndexEnvelope(cw, index.IndexEnvelope{
		Method:     methodTag,
		MaxPathLen: x.opt.MaxPathLen,
		DBChecksum: index.DBChecksum(x.db),
		NumGraphs:  len(x.db),
	})
	if err != nil {
		return cw.N, fmt.Errorf("grapes: %w", err)
	}
	if _, err := x.tr.WriteTo(cw); err != nil {
		return cw.N, fmt.Errorf("grapes: writing trie: %w", err)
	}
	return cw.N, nil
}

// LoadIndex implements index.Persistable: restores a SaveIndex snapshot,
// replacing the index state (dictionary contents included). Validated
// against db via the embedded checksum (index.ErrDatasetMismatch on
// divergence); segment decodes fan out over the build-worker count. The
// loaded index answers identically to a fresh Build over db.
//
// Torn trailing journal sections are salvaged by default and reported in
// LoadReport.RecoveredTail; index.StrictLoad fails on any damage instead
// (see ggsx.Index.LoadIndex).
func (x *Index) LoadIndex(r io.Reader, db []*graph.Graph, opts ...index.LoadOption) (index.LoadReport, error) {
	cfg := index.ResolveLoadOptions(opts)
	cr := &index.CountingScanner{R: index.AsByteScanner(r)}
	env, err := index.ReadIndexEnvelope(cr)
	if err != nil {
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("grapes: %w", err)
	}
	if err := index.ValidateEnvelopeMethod(env, methodTag); err != nil {
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("grapes: %w", err)
	}
	envBytes := cr.N
	// Keep the current vocabulary for rollback: a failed decode must leave
	// the index exactly as it was (re-interning the saved keys in ID order
	// restores the identical ID assignment the old trie is keyed by).
	oldKeys := x.dict.Keys()
	rollback := func() {
		x.dict.Reset()
		for _, k := range oldKeys {
			x.dict.Intern(k)
		}
	}
	x.dict.Reset()
	tr := trie.NewSharded(x.dict, x.opt.Shards)
	n, rec, err := tr.ReadFromOptions(cr, trie.LoadOptions{Workers: x.opt.BuildWorkers, Strict: cfg.Strict})
	if err != nil {
		rollback()
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("grapes: reading trie: %w", err)
	}
	if rec != nil {
		rec.CommittedBytes += envBytes // translate to reader-absolute offsets
	}
	// Dataset guard: a journaled snapshot answers for the newest journal
	// stamp's dataset, not the envelope's base (see ggsx.Index.LoadIndex).
	sum, ng := env.DBChecksum, env.NumGraphs
	if st := tr.JournalStamp(); st != nil {
		sum, ng = st.DBChecksum, st.NumGraphs
	}
	if err := index.ValidateDataset(sum, ng, db); err != nil {
		rollback()
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("grapes: %w", err)
	}
	if x.opt.Shards > 0 {
		tr.Reshard(x.opt.Shards)
	}
	x.opt.MaxPathLen = env.MaxPathLen
	x.db = db
	x.tr = tr
	base := envBytes + n
	if rec != nil {
		base = rec.CommittedBytes // torn bytes are not part of the new base
	}
	x.log.NoteFullSave(base)
	return index.LoadReport{Bytes: cr.N, RecoveredTail: rec}, nil
}
