package index

import (
	"repro/internal/graph"
	"repro/internal/trie"
)

// Lazy index loading. A Persistable's LoadIndex decodes the entire snapshot
// before the first query can run; LazyLoadable is the capability for methods
// that can instead open a snapshot from a random-access source, decode only
// the cheap metadata eagerly (envelope, dictionary, segment table, journal
// tail) and page posting lists in as queries probe them. The first probe of
// a segment reads it once — CRC-checked there, and only there — to build a
// pinned offset directory; every later probe decodes just the list it asks
// for from that list's byte span. It is what lets a serving process answer
// its first query in O(touched segments) reading and O(touched lists)
// decoding — and hold an index bigger than RAM under a residency budget —
// at the price of one list decode on cold paths.
//
// The lazy contract is observational equivalence: a lazily opened index
// must answer every query, report every statistic and re-save byte-for-byte
// identically to the same snapshot restored through LoadIndex. Corruption
// confined to one segment body surfaces when that segment is first
// touched (as trie.ErrCorrupt, carried by a trie.ShardFaultError panic on
// query paths) and must not poison other segments.
type LazyLoadable interface {
	Persistable

	// LoadIndexLazy restores a SaveIndex snapshot from src without decoding
	// posting segments up front. budget bounds the decoded posting lists
	// kept resident (0 = unbounded; the dictionary and the per-segment
	// offset directories are pinned outside it): a CLOCK hand evicts lists not
	// probed since its last pass, and an evicted list is re-decoded from
	// its byte span on the next probe. src must remain open and immutable
	// for the lifetime of the loaded index — it is read again on every
	// posting decode.
	//
	// The next save's segment count follows LoadIndex's rule: an explicit
	// option, else the snapshot's own count.
	LoadIndexLazy(src trie.RandomAccessFile, db []*graph.Graph, budget int64) (LoadReport, error)

	// Materialize decodes every segment whole and converts the index to
	// the fully-resident representation LoadIndex would have produced,
	// releasing the dependency on src. Mutating operations call it
	// implicitly. It is idempotent and a no-op on an eagerly loaded index.
	Materialize() error
}

// ResidencyReporter is implemented by indexes that can describe how much of
// their posting data is currently decoded (see trie.Residency for what
// each counter counts) — the serving layer's residency gauges come from
// here. Eagerly loaded indexes report Lazy == false.
type ResidencyReporter interface {
	Residency() trie.Residency
}
