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
// the label sequence and its reverse; for cycles, the minimum over all
// rotations of both directions; for trees, the AHU canonical encoding
// (linear-time for trees, which is exactly why CT-Index restricts itself to
// trees and cycles).
//
// # Feature dictionary
//
// Canonical strings are the persistent, order-defining representation; the
// per-query hot path runs on interned integers instead. A Dict assigns each
// canonical key a dense FeatureID (uint32), and PathsID enumerates a graph's
// path features directly as (FeatureID, count) pairs: the canonical form is
// rendered into a reusable byte buffer (forward and reverse renderings
// compared as bytes — no string pair, no Itoa allocations) and resolved
// against the dictionary with an allocation-free map probe; occurrence
// counts accumulate in a flat per-ID scratch table rather than a string map.
// Indexes that share one Dict (the dataset trie and iGQ's cache-side
// Isub/Isuper) therefore canonicalise a query once and afterwards exchange
// only integer IDs — postings are stored and probed by FeatureID, and the
// canonical strings are needed only for trie walks and persistence.
package features

import (
	"strconv"
	"strings"

	"repro/internal/graph"
)

// A Key is the canonical string form of a feature. Keys from different
// families never collide: they are namespaced by a one-byte prefix
// ("p:" path, "t:" tree, "c:" cycle).
type Key = string

// PathSet holds, for a single graph, every canonical path feature with its
// occurrence count.
type PathSet struct {
	Counts map[Key]int
}

// PathOptions configures path enumeration.
type PathOptions struct {
	MaxLen int // maximum number of edges per path (paper default: 4)
}

// pathKey builds the canonical key for a sequence of labels: the smaller of
// the sequence and its reverse, joined with '.' and prefixed "p:".
func pathKey(labels []graph.Label) Key {
	n := len(labels)
	rev := make([]graph.Label, n)
	for i, l := range labels {
		rev[n-1-i] = l
	}
	a := joinLabels(labels)
	b := joinLabels(rev)
	if b < a {
		a = b
	}
	return "p:" + a
}

// pathKeyLabeled canonicalises a path whose edges carry labels: vertex and
// edge labels interleave (v0 e01 v1 e12 ... vk) and the key is the smaller
// of the forward and reversed interleavings. The "!" marker keeps labeled
// keys disjoint from unlabeled ones (an interleaved sequence could
// otherwise collide with a longer unlabeled path's key). Zero-labeled
// occurrences use the legacy unlabeled form, so graphs mixing labeled and
// unlabeled edges filter correctly against each other.
func pathKeyLabeled(labels, elabs []graph.Label) Key {
	if allZero(elabs) {
		return pathKey(labels)
	}
	inter := interleave(labels, elabs)
	n := len(labels)
	revV := make([]graph.Label, n)
	for i, l := range labels {
		revV[n-1-i] = l
	}
	revE := make([]graph.Label, len(elabs))
	for i, l := range elabs {
		revE[len(elabs)-1-i] = l
	}
	a := inter
	if b := interleave(revV, revE); b < a {
		a = b
	}
	return "p:!" + a
}

func allZero(ls []graph.Label) bool {
	for _, l := range ls {
		if l != 0 {
			return false
		}
	}
	return true
}

// interleave renders v0.e0.v1.e1...vk.
func interleave(vs, es []graph.Label) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte('.')
			b.WriteString(strconv.Itoa(int(es[i-1])))
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(int(v)))
	}
	return b.String()
}

func joinLabels(ls []graph.Label) string {
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(int(l)))
	}
	return b.String()
}

// Paths enumerates every simple path of 0..MaxLen edges in g (a 0-edge path
// is a single vertex). Each *directed* traversal is found once; because a
// path and its reverse share a canonical key, undirected occurrences are
// counted twice except single vertices — consistently for dataset and query
// graphs, so count-based filter comparisons remain valid.
func Paths(g *graph.Graph, opt PathOptions) *PathSet {
	return PathsRange(g, opt, 0, g.NumVertices())
}

// PathsRange enumerates the paths whose *start vertex* lies in [lo, hi).
// Because every directed path is discovered exactly once from its start
// vertex, partitioning the vertex range across workers and merging the
// per-worker sets (MergePathSets) reproduces Paths exactly — this is the
// Grapes parallel index construction strategy, where each thread works on a
// portion of the graph and the per-thread tries are merged.
func PathsRange(g *graph.Graph, opt PathOptions, lo, hi int) *PathSet {
	if opt.MaxLen < 0 {
		opt.MaxLen = 0
	}
	if lo < 0 {
		lo = 0
	}
	if hi > g.NumVertices() {
		hi = g.NumVertices()
	}
	ps := &PathSet{Counts: make(map[Key]int)}
	labeled := g.HasEdgeLabels()
	inPath := make([]bool, g.NumVertices())
	labels := make([]graph.Label, 0, opt.MaxLen+1)
	elabs := make([]graph.Label, 0, opt.MaxLen)

	var dfs func(v int)
	dfs = func(v int) {
		var k Key
		if labeled {
			k = pathKeyLabeled(labels, elabs)
		} else {
			k = pathKey(labels)
		}
		ps.Counts[k]++
		if len(labels) == opt.MaxLen+1 {
			return
		}
		for _, w := range g.Neighbors(v) {
			if inPath[w] {
				continue
			}
			inPath[w] = true
			labels = append(labels, g.Label(int(w)))
			if labeled {
				elabs = append(elabs, g.EdgeLabel(v, int(w)))
			}
			dfs(int(w))
			labels = labels[:len(labels)-1]
			if labeled {
				elabs = elabs[:len(elabs)-1]
			}
			inPath[w] = false
		}
	}
	for v := lo; v < hi; v++ {
		inPath[v] = true
		labels = append(labels[:0], g.Label(v))
		dfs(v)
		inPath[v] = false
	}
	return ps
}

// MergePathSets folds src into dst: counts add. dst must have been produced
// with the same PathOptions as src.
func MergePathSets(dst, src *PathSet) {
	for k, c := range src.Counts {
		dst.Counts[k] += c
	}
}

// SizeBytes approximates the in-memory footprint of the path set, for the
// paper's index-size accounting (Fig 18).
func (ps *PathSet) SizeBytes() int {
	sz := 48
	for k := range ps.Counts {
		sz += len(k) + 16 + 8
	}
	return sz
}
