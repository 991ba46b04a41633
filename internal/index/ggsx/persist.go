package ggsx

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/trie"
)

var _ index.Persistable = (*Index)(nil)

// SaveIndex implements index.Persistable: an envelope header (method tag,
// feature length, dataset checksum) followed by the path trie in the
// segment format of internal/trie. The index must be built. A full save
// resets the delta-log lineage: it captures every mutation applied so far,
// so the written file is the new base for future AppendDelta calls.
func (x *Index) SaveIndex(w io.Writer) error {
	n, err := x.writeIndex(w)
	if err != nil {
		return err
	}
	x.log.NoteFullSave(n)
	return nil
}

// writeIndex writes the full snapshot without touching the delta log
// (AppendDelta's compaction path calls it under the log's lock).
func (x *Index) writeIndex(w io.Writer) (int64, error) {
	if x.db == nil {
		return 0, fmt.Errorf("%s: SaveIndex before Build", x.kind())
	}
	cw := &index.CountingWriter{W: w}
	err := index.WriteIndexEnvelope(cw, index.IndexEnvelope{
		Method:     x.kind(),
		MaxPathLen: x.opt.MaxPathLen,
		DBChecksum: index.DBChecksum(x.db),
		NumGraphs:  len(x.db),
	})
	if err != nil {
		return cw.N, fmt.Errorf("%s: %w", x.kind(), err)
	}
	if _, err := x.tr.WriteTo(cw); err != nil {
		return cw.N, fmt.Errorf("%s: writing trie: %w", x.kind(), err)
	}
	return cw.N, nil
}

// LoadIndex implements index.Persistable: restores a SaveIndex snapshot —
// replaying any delta journals appended to it — replacing the index state
// (including the dictionary contents — holders of FeatureDict stay wired,
// but structures keyed by the old IDs must be rebuilt). The snapshot is
// validated against db via the embedded checksum — for a journaled
// snapshot, the newest journal's stamp, so a base written for one dataset
// plus journals leading to db loads cleanly while anything else fails with
// index.ErrDatasetMismatch. Segment decodes fan out over
// Options.BuildWorkers goroutines. The loaded index answers identically to
// a fresh Build over db, and any load failure (corruption, wrong dataset)
// leaves the live index and the shared dictionary byte-identical to their
// pre-call state.
//
// A torn trailing journal section (the crash-mid-append signature) is
// salvaged: the committed prefix loads and the damage is reported in
// LoadReport.RecoveredTail with reader-absolute offsets.
func (x *Index) LoadIndex(r io.Reader, db []*graph.Graph) (index.LoadReport, error) {
	cr := &index.CountingScanner{R: index.AsByteScanner(r)}
	env, err := index.ReadIndexEnvelope(cr)
	if err != nil {
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("%s: %w", x.kind(), err)
	}
	if err := index.ValidateEnvelopeMethod(env, x.kind()); err != nil {
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("%s: %w", x.kind(), err)
	}
	envBytes := cr.N
	// The decode interns through the shared dictionary, so keep the current
	// vocabulary for rollback: a failed decode must leave the index exactly
	// as it was — re-interning the saved keys in ID order restores the
	// identical ID assignment the old trie is keyed by.
	oldKeys := x.dict.Keys()
	rollback := func() {
		x.dict.Reset()
		x.dict.InternKeys(oldKeys)
	}
	x.dict.Reset()
	tr := trie.NewWithDict(x.dict)
	n, rec, err := tr.ReadFromOptions(cr, trie.LoadOptions{Workers: x.opt.BuildWorkers})
	if err != nil {
		rollback()
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("%s: reading trie: %w", x.kind(), err)
	}
	if rec != nil {
		// Translate trie-relative recovery offsets into reader-absolute
		// ones so callers owning the file can repair it in place.
		rec.CommittedBytes += envBytes
	}
	// Dataset guard: journals carry the post-mutation fingerprint; a
	// journal-free snapshot answers for the envelope's base dataset.
	sum, ng := env.DBChecksum, env.NumGraphs
	if st := tr.JournalStamp(); st != nil {
		sum, ng = st.DBChecksum, st.NumGraphs
	}
	if err := index.ValidateDataset(sum, ng, db); err != nil {
		rollback()
		return index.LoadReport{Bytes: cr.N}, fmt.Errorf("%s: %w", x.kind(), err)
	}
	x.adoptSegments(tr)
	x.opt.MaxPathLen = env.MaxPathLen // queries must enumerate at the indexed length
	x.db = db
	x.tr = tr
	x.nf.Store(nil) // counted from the loaded postings when first read
	// The loaded file is the new delta-log base — after a tail recovery,
	// only up to the committed prefix (the torn bytes must be repaired
	// away before the file accepts further appends).
	base := envBytes + n
	if rec != nil {
		base = rec.CommittedBytes
	}
	x.log.NoteFullSave(base)
	return index.LoadReport{Bytes: cr.N, RecoveredTail: rec}, nil
}
