// Package features extracts the graph substructures ("features") that the
// filter-then-verify indexes of the paper are built from:
//
//   - labeled simple paths up to a maximum edge length (GraphGrepSX and
//     Grapes index paths of length ≤ 4; the iGQ Isub/Isuper components use
//     the same feature family over query graphs),
//   - labeled subtrees up to a maximum vertex count (CT-Index, trees ≤ 6),
//   - labeled simple cycles up to a maximum length (CT-Index, cycles ≤ 8).
//
// Every feature is reduced to a canonical string key so that two occurrences
// of the same abstract substructure — anywhere, in any vertex order — map to
// the same key. For paths the canonical form is the lexicographic minimum of
// the decimal renderings of the label sequence and its reverse; for cycles,
// the minimum over all rotations of both directions; for trees, the AHU
// canonical encoding (linear-time for trees, which is exactly why CT-Index
// restricts itself to trees and cycles).
//
// # Feature dictionary and path table
//
// Canonical strings are the persistent, order-defining representation; the
// hot paths run on interned integers instead. A Dict assigns each canonical
// key a dense FeatureID (uint32), and PathsID enumerates a graph's path
// features directly as (FeatureID, count) pairs.
//
// Paths are never rendered per occurrence. The Dict also holds a
// label-transition table, the automaton of the path label sequences it has
// seen: (node, label) → node, each node carrying the FeatureID of the
// canonical key of the sequence that reaches it, so that both orientations
// of a path end at nodes with one ID. The enumeration DFS carries a node,
// and a path occurrence costs one table step and one counter bump. A key is
// rendered only when a walk takes a transition the table lacks. The string
// map stays the source of truth: snapshots and journals persist keys,
// loaders intern keys, and the table is derived state, filled by the walks
// that run. Indexes that share one Dict (the dataset trie and iGQ's
// cache-side Isub/Isuper) therefore canonicalise a query once and
// afterwards exchange only integer IDs.
package features

// A Key is the canonical string form of a feature. Keys from different
// families never collide: they are namespaced by a one-byte prefix
// ("p:" path, "t:" tree, "c:" cycle).
type Key = string

// PathOptions configures path enumeration.
type PathOptions struct {
	MaxLen int // maximum number of edges per path (paper default: 4)
}
