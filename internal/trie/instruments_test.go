package trie

// In-place graph removal and single-segment fault-in, for tests that
// mutate or probe tries directly; programs mutate through Mutation/Apply
// and fault segments in by reading.

import (
	"fmt"

	"repro/internal/features"
)

// RemoveGraph deletes every posting of the given graph id across all keys.
// Features drained to zero postings are removed outright: their table entry
// becomes the zero list (so Walk, SizeBytes and a persisted snapshot all
// agree with a trie never holding the key) and their dictionary ID is
// retired to the dead set. Like the build path, RemoveGraph is exclusive —
// no concurrent readers, pages owned; concurrent mutation goes through
// Mutation/Apply instead.
func (t *Trie) RemoveGraph(id int32) {
	t.ensureMaterialized()
	t.each(func(fid features.FeatureID, pl *PostingList) {
		if _, drained := pl.remove(t.policy, id); drained {
			if t.dead == nil {
				t.dead = make(map[features.FeatureID]struct{})
			}
			t.dead[fid] = struct{}{}
		}
	})
}

// DeadLen returns the number of retired (drained) features this trie
// tracks.
func (t *Trie) DeadLen() int {
	t.ensureMaterialized()
	return len(t.dead)
}

// FaultInShard opens segment s's directory: the segment is read,
// CRC-checked and scanned, no posting list is decoded.
// No-op with a nil error on an eager or already-materialised trie.
func (t *Trie) FaultInShard(s int) error {
	ls := t.lazyLive.Load()
	if ls == nil {
		return nil
	}
	if s < 0 || s >= len(ls.segs) {
		return fmt.Errorf("trie: segment %d out of range [0, %d)", s, len(ls.segs))
	}
	ls.srcMu.RLock()
	defer ls.srcMu.RUnlock()
	if ls.materialized.Load() {
		return nil
	}
	_, err := ls.openDir(s, nil)
	return err
}
