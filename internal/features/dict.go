package features

import "sync"

// FeatureID is a dense interned identifier for a canonical feature key.
// IDs are assigned sequentially from 0 by a Dict, so they can index flat
// per-feature tables (postings arrays, per-query count scratch) without
// hashing the canonical string.
type FeatureID uint32

// IDCount pairs an interned feature with its occurrence count in one graph.
type IDCount struct {
	ID    FeatureID
	Count int32
}

// IDSet is the result of an ID-based feature enumeration over one graph: the
// multiset of canonical features, expressed as interned IDs. Unknown counts
// the path occurrences whose canonical key was absent from the dictionary
// (possible only in lookup-only enumeration) — for count-based subgraph
// filters a single unknown feature proves an empty candidate set, since no
// indexed graph contains it.
type IDSet struct {
	Counts  []IDCount
	Unknown int
}

// Dict interns canonical feature keys into dense FeatureIDs. One Dict is
// typically shared by every index over the same feature family (the dataset
// trie and iGQ's cache-side Isub/Isuper), so a query graph is canonicalised
// and interned exactly once per query and every index probes it by integer
// ID.
//
// Interning (Intern, the install step of an interning PathsID, a Round's
// Commit) takes a write lock; lookups and walks take a read lock, so
// concurrent read-only filtering is safe even while a cache flush interns
// new keys. A Round holds the read lock from Freeze to Commit, so its
// workers read the table without locking.
//
// Beside the keys, a Dict holds the path table PathsID walks (see the
// package comment). The table is derived from the keys and is neither
// persisted nor counted in SizeBytes.
type Dict struct {
	mu   sync.RWMutex
	ids  map[string]FeatureID
	keys []string

	// next is the path table: it maps (node<<32 | uint32(label)) to the
	// child node in its low 32 bits and the child's FeatureID in its high
	// 32 bits. Nodes 0 and 1 are the roots of walks over graphs without and
	// with edge labels; every other node is reached by exactly one
	// transition and numbered in the order transitions are added, so the
	// table has len(next)+2 nodes. Walks over edge-labeled graphs step an
	// edge label and then a vertex label, so every second node of theirs is
	// an edge-label node, whose ID is noFeature.
	next map[uint64]uint64
	gen  uint64 // bumped by Reset; a walk installs only into its own generation
}

// The roots of the path table.
const (
	rootPlain   = 0 // walks over graphs whose edges carry no labels
	rootLabeled = 1 // walks over graphs with edge labels
	roots       = 2
)

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]FeatureID), next: make(map[uint64]uint64)}
}

// TableLen returns the number of transitions in the path table (one per
// node besides the roots).
func (d *Dict) TableLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.next)
}

// Len returns the number of interned keys.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.keys)
}

// Intern returns the ID of key, assigning the next dense ID on first sight.
func (d *Dict) Intern(key string) FeatureID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.internLocked(key)
}

func (d *Dict) internLocked(key string) FeatureID {
	if id, ok := d.ids[key]; ok {
		return id
	}
	id := FeatureID(len(d.keys))
	d.ids[key] = id
	d.keys = append(d.keys, key)
	return id
}

// Reset drops every interned key and the path table, keeping the Dict
// object itself valid so that indexes sharing it (via index.DictProvider)
// stay wired to the same interner. IDs restart densely from 0 as keys are
// re-interned, so any structure keyed by the old IDs must be rebuilt
// afterwards — Reset is the rebuild-time companion of Build/LoadIndex,
// never a query-time operation.
// Without it a dictionary shared across successive Builds accumulates the
// dead vocabulary of every dataset it ever saw (unbounded growth, and bloat
// in persisted snapshot headers, which serialise the dictionary in full).
func (d *Dict) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	clear(d.ids)
	d.keys = d.keys[:0]
	clear(d.next)
	d.gen++
}

// DictEntrySizeBytes is the accounted footprint of one interned key: the
// key bytes (stored once — the map key and the ID-order slice share one
// string backing) plus the slice-entry string header and the map entry.
// Exposed so consumers that *exclude* entries (the trie's retired-feature
// accounting) stay in lockstep with SizeBytes.
func DictEntrySizeBytes(key string) int { return len(key) + 16 + 48 }

// SizeBytes approximates the dictionary's memory footprint: the per-entry
// cost of DictEntrySizeBytes over every key, plus fixed headers. Counted
// by the index that owns the dictionary (paper Fig 18 accounting); tries
// sharing the dictionary must not add it again.
func (d *Dict) SizeBytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	sz := 48 // struct, map header, slice header
	for _, k := range d.keys {
		sz += DictEntrySizeBytes(k)
	}
	return sz
}

// Lookup returns the ID of key without interning it.
func (d *Dict) Lookup(key string) (FeatureID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[key]
	return id, ok
}

// Key returns the canonical string for an interned ID.
func (d *Dict) Key(id FeatureID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.keys[id]
}

// Keys returns a copy of all interned keys in ID order, for persistence:
// re-interning the slice into a fresh Dict reproduces the same IDs.
func (d *Dict) Keys() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]string(nil), d.keys...)
}
