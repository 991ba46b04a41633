package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/index"
)

// Cache persistence: the knowledge iGQ accumulates (query graphs, answer
// sets, replacement metadata) is expensive to re-earn, so a production
// deployment wants it to survive restarts. Save/Load serialise the active
// cache entries with encoding/gob; their programs, features and the
// cache-side index are derived state and are worked out again on load
// (exactly like the paper's shadow rebuild).
//
// The dataset itself is NOT serialised: answers reference dataset positions,
// so a snapshot is only valid for the same dataset (guarded by a checksum).

// wireSnapshot is the gob envelope.
type wireSnapshot struct {
	Version    int
	DBChecksum uint64
	Seq        int64
	NextID     int32
	Flushes    int
	Entries    []wireEntry
	// DictKeys is the feature dictionary in ID order (version ≥ 2).
	// Re-interning the keys in order reproduces the same FeatureIDs, so a
	// restored standalone cache assigns identical IDs to identical
	// features. When the dictionary is shared with an already-built method
	// index the keys are merged into it instead (IDs may then differ —
	// they are process-local handles; all persisted state is keyed by
	// canonical strings, never by raw IDs).
	DictKeys []string
	// Shards was the postings shard layout of the cache-side tries
	// (version 3). The flat index that replaced them has none: written 0,
	// ignored on load, kept so the wire struct is unchanged.
	Shards int
	// Direction is the query direction of the cached answers, as Mode+1.
	// Load refuses a snapshot of the other direction: its answer sets mean
	// something else. 0 marks a snapshot written before the direction was
	// recorded, which loads as it always did.
	Direction int
}

// wireEntry serialises one cache entry.
type wireEntry struct {
	ID         int32
	Labels     []graph.Label
	Edges      [][2]int32
	Answer     []int32
	InsertedAt int64
	Hits       int64 // written 0 and ignored on load: the counter is not kept
	Removed    int64 // written 0 and ignored on load: the counter is not kept
	LogCost    float64
}

const snapshotVersion = 3

// dbChecksum fingerprints the dataset a snapshot belongs to — the shared
// construction also embedded in dataset-index snapshots (index.DBChecksum),
// so the cache and index halves of a combined engine snapshot guard against
// the same divergence the same way.
func dbChecksum(db []*graph.Graph) uint64 { return index.DBChecksum(db) }

// Save writes the current cache contents to w. Any queries still pending
// in the credit window are flushed (admitted through the §5.1 replacement
// policy) first: knowledge paid for before shutdown must survive the
// restart, not evaporate because fewer than Window queries arrived since
// the last flush. Safe to call while queries are in flight: the metadata
// mutex is held for the whole encode, so the snapshot is consistent — it
// excludes any admission or credit that had not yet committed, reflects
// the latest flush, and blocks further flushes until done.
func (q *IGQ) Save(w io.Writer) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.window) > 0 {
		// Flush the partial window so pending entries are committed into
		// the snapshot.
		q.flushLocked()
	}
	cur := q.snap.Load()
	snap := wireSnapshot{
		Version:    snapshotVersion,
		DBChecksum: dbChecksum(cur.db),
		Seq:        q.seq.Load(),
		NextID:     q.nextID,
		Flushes:    q.flushes,
		Direction:  int(q.opt.Mode) + 1,
	}
	if !q.methodDict {
		// Only a private dictionary is worth persisting: it round-trips to
		// identical IDs. A method-owned dictionary carries the whole
		// dataset vocabulary and is rebuilt by the method itself on load.
		snap.DictKeys = q.dict.Keys()
	}
	for _, e := range cur.entries {
		we := wireEntry{
			ID:         e.id,
			Labels:     e.g.Labels(),
			Answer:     append([]int32(nil), e.answer...),
			InsertedAt: e.insertedAt,
			LogCost:    e.loadLogCost(),
		}
		e.g.Edges(func(u, v int) {
			we.Edges = append(we.Edges, [2]int32{int32(u), int32(v)})
		})
		snap.Entries = append(snap.Entries, we)
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load restores a cache snapshot into a fresh IGQ over the same dataset and
// method. opt must carry the desired runtime configuration (CacheSize,
// Window, Mode...); entries beyond CacheSize are dropped lowest-utility
// first.
func Load(r io.Reader, m index.Method, db []*graph.Graph, opt Options) (*IGQ, error) {
	var snap wireSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d unsupported", snap.Version)
	}
	if snap.DBChecksum != dbChecksum(db) {
		return nil, fmt.Errorf("core: snapshot belongs to a different dataset")
	}
	if snap.Direction != 0 && Mode(snap.Direction-1) != opt.Mode {
		return nil, fmt.Errorf("core: snapshot caches %v answers, not %v", Mode(snap.Direction-1), opt.Mode)
	}
	q := New(m, db, opt)
	// Restore the feature dictionary before rebuilding the index: with a
	// fresh (unshared) dictionary, interning the saved keys in order
	// reproduces the exact ID assignment of the saving process. Version-1
	// snapshots carry no dictionary; the rebuild below re-derives it.
	q.dict.InternKeys(snap.DictKeys)
	q.seq.Store(snap.Seq)
	q.nextID = snap.NextID
	q.flushes = snap.Flushes
	var entries []*entry
	for _, we := range snap.Entries {
		g := graph.New(len(we.Labels))
		for _, l := range we.Labels {
			g.AddVertex(l)
		}
		for _, e := range we.Edges {
			if !g.AddEdge(int(e[0]), int(e[1])) {
				return nil, fmt.Errorf("core: snapshot entry %d has invalid edge (%d,%d)", we.ID, e[0], e[1])
			}
		}
		for _, a := range we.Answer {
			if int(a) >= len(db) || a < 0 {
				return nil, fmt.Errorf("core: snapshot entry %d references graph %d outside the dataset", we.ID, a)
			}
		}
		ent := newEntry(we.ID, g, we.Answer, we.InsertedAt)
		ent.setLogCost(we.LogCost)
		entries = append(entries, ent)
	}
	if over := len(entries) - q.opt.CacheSize; over > 0 {
		order := evictionOrder(entries, q.seq.Load())
		drop := map[int32]struct{}{}
		for _, e := range order[:over] {
			drop[e.id] = struct{}{}
		}
		kept := entries[:0]
		for _, e := range entries {
			if _, gone := drop[e.id]; !gone {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	q.snap.Store(q.buildSnapshot(db, m, 0, entries))
	return q, nil
}
