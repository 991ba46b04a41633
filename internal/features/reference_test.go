package features

import (
	"strconv"
	"strings"

	"repro/internal/graph"
)

// The string reference enumerator: the path features of a graph as a
// (canonical key, count) map, rendered per occurrence with strings — the
// representation PathsID's table replaces, kept here as its oracle.

// refKey is the canonical key of a path given by its vertex labels and the
// labels of the edges between them: the smaller of the forward and reverse
// renderings, "p:"-prefixed, or "p:!" with edge labels interleaved when one
// of them is non-zero.
func refKey(labels, elabs []graph.Label) string {
	render := func(rev bool) string {
		n := len(labels)
		at := func(ls []graph.Label, i int) graph.Label {
			if rev {
				return ls[len(ls)-1-i]
			}
			return ls[i]
		}
		parts := make([]string, 0, 2*n)
		for i := 0; i < n; i++ {
			if i > 0 && !allZero(elabs) {
				parts = append(parts, strconv.Itoa(int(at(elabs, i-1))))
			}
			parts = append(parts, strconv.Itoa(int(at(labels, i))))
		}
		return strings.Join(parts, ".")
	}
	k := min(render(false), render(true))
	if !allZero(elabs) {
		return "p:!" + k
	}
	return "p:" + k
}

// refPaths enumerates every simple path of 0..maxLen edges of g whose start
// vertex lies in [lo, hi), by canonical key.
func refPaths(g *graph.Graph, maxLen, lo, hi int) map[string]int {
	out := make(map[string]int)
	inPath := make([]bool, g.NumVertices())
	var labels, elabs []graph.Label
	var dfs func(v int)
	dfs = func(v int) {
		out[refKey(labels, elabs)]++
		if len(elabs) == maxLen {
			return
		}
		for _, w := range g.Neighbors(v) {
			if inPath[w] {
				continue
			}
			inPath[w] = true
			labels = append(labels, g.Label(int(w)))
			elabs = append(elabs, g.EdgeLabel(v, int(w)))
			dfs(int(w))
			labels, elabs = labels[:len(labels)-1], elabs[:len(elabs)-1]
			inPath[w] = false
		}
	}
	for v := max(lo, 0); v < min(hi, g.NumVertices()); v++ {
		inPath[v] = true
		labels, elabs = []graph.Label{g.Label(v)}, nil
		dfs(v)
		inPath[v] = false
	}
	return out
}

// keyCounts renders an enumeration's counts by key.
func keyCounts(d *Dict, set IDSet) map[string]int {
	out := make(map[string]int, len(set.Counts))
	for _, c := range set.Counts {
		out[d.Key(c.ID)] += int(c.Count)
	}
	return out
}

// pathCounts is g's path-feature multiset by key, enumerated through the
// table of a fresh dictionary.
func pathCounts(g *graph.Graph, maxLen int) map[string]int {
	d := NewDict()
	return keyCounts(d, PathsID(g, PathOptions{MaxLen: maxLen}, d, NewScratch(), true))
}
