package core

import "repro/internal/features"

// cacheIndex is Isub and Isuper in one structure: an immutable inverted
// index over the features of one snapshot's cached query graphs. The paper
// keeps two tries, but over the same graphs they hold the same postings —
// {cached graph, occurrence count} per feature — and differ only in the
// comparison a probe applies: a cached graph may contain the query (Isub)
// if it has every feature of the query at least as often, and may be
// contained in it (Isuper, Algorithm 2) if it has each of its own features
// at most as often. So each posting is stored once, in CSR rows indexed by
// FeatureID, and one walk over the rows of the query's features decides
// both sides (candidates).
//
// Cached graphs are named by their position in snapshot.entries, which makes
// every per-graph table a plain array. The index is sized for a few hundred
// small graphs and is rebuilt, not maintained, at each flush
// (buildCacheIndex): a counting sort over the features the entries own.
type cacheIndex struct {
	rows  []int32        // rows[f]..rows[f+1] bound feature f's postings; features ≥ len(rows)-1 have none
	posts []cachePosting // grouped by feature, by ascending position within a feature
	nf    []int32        // NF[pos]: distinct features of the graph at pos
}

type cachePosting struct{ pos, count int32 }

// buildCacheIndex indexes entries by the features they own. An entry that
// owns none yet — its query met a feature the dictionary did not know, or
// the dictionary was reset since — is enumerated here, interning, once for
// its lifetime; everything else is array work. Interning aside the build is
// pure, so it runs as the §5.2 shadow build beside live queries.
func buildCacheIndex(dict *features.Dict, entries []*entry, maxPathLen int) *cacheIndex {
	ix := &cacheIndex{nf: make([]int32, len(entries))}
	var scratch *features.Scratch
	nRows, nPosts := 0, 0
	for pos, e := range entries {
		scratch = e.ownFeatures(dict, maxPathLen, scratch)
		ix.nf[pos] = int32(len(e.feats))
		nPosts += len(e.feats)
		for _, fc := range e.feats {
			nRows = max(nRows, int(fc.ID)+1)
		}
	}
	// Counting sort with the row table as its own cursor: count feature f
	// into rows[f+2], prefix-sum so that rows[f+1] is where f's postings
	// start, then let each placement advance rows[f+1] — which leaves it at
	// f's end, the start of f+1.
	rows := make([]int32, nRows+2)
	for _, e := range entries {
		for _, fc := range e.feats {
			rows[fc.ID+2]++
		}
	}
	for f := 2; f < len(rows); f++ {
		rows[f] += rows[f-1]
	}
	ix.posts = make([]cachePosting, nPosts)
	for pos, e := range entries {
		for _, fc := range e.feats {
			ix.posts[rows[fc.ID+1]] = cachePosting{pos: int32(pos), count: fc.Count}
			rows[fc.ID+1]++
		}
	}
	ix.rows = rows[:nRows+1]
	return ix
}

// candidates returns the positions of the cached graphs that may contain a
// query with features qf (sub) and of those that may be contained in it
// (super), both ascending. For each cached graph the pass counts the
// query's features it has at least as often as the query, and those it has
// at most as often. A graph may contain the query when the first count
// reaches the query's number of distinct features — never, if the query has
// a feature the dictionary does not know, and always for the empty query.
// It may be contained in the query when the second count reaches its own NF
// (Algorithm 2): features the query lacks are never counted, unknown ones
// only make the query larger, and a featureless cached graph qualifies for
// every query. The results alias sc.
func (ix *cacheIndex) candidates(qf features.IDSet, sc *queryScratch) (sub, super []int32) {
	n := len(ix.nf)
	if cap(sc.ge) < n {
		sc.ge, sc.le = make([]int32, n), make([]int32, n)
	}
	ge, le := sc.ge[:n], sc.le[:n]
	clear(ge)
	clear(le)
	for _, fc := range qf.Counts {
		if int(fc.ID)+1 >= len(ix.rows) {
			continue
		}
		for _, p := range ix.posts[ix.rows[fc.ID]:ix.rows[fc.ID+1]] {
			if p.count >= fc.Count {
				ge[p.pos]++
			}
			if p.count <= fc.Count {
				le[p.pos]++
			}
		}
	}
	sub, super = sc.subCands[:0], sc.superCands[:0]
	if qf.Unknown == 0 {
		for pos, c := range ge {
			if int(c) == len(qf.Counts) {
				sub = append(sub, int32(pos))
			}
		}
	}
	for pos, c := range le {
		if c == ix.nf[pos] {
			super = append(super, int32(pos))
		}
	}
	sc.subCands, sc.superCands = sub, super
	return sub, super
}

// SizeBytes is the index's footprint.
func (ix *cacheIndex) SizeBytes() int { return 4*len(ix.rows) + 8*len(ix.posts) + 4*len(ix.nf) }
