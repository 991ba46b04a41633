package features

import (
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Simple-cycle enumeration for CT-Index fingerprints (cycles ≤ 8 in the
// paper's default configuration).
//
// Each simple cycle is discovered exactly once: the search roots at the
// cycle's minimum vertex s, extends simple paths through vertices > s only,
// and closes when an edge returns to s; traversal direction is fixed by
// requiring the second path vertex to be smaller than the vertex preceding
// the closing edge. The canonical key is the lexicographically minimal
// rotation over both directions of the label sequence.

// CycleOptions configures cycle enumeration.
type CycleOptions struct {
	MaxLen int // maximum cycle length in edges (paper default: 8)
	Budget int // max distinct cycles per graph; <=0 means unlimited
}

// CycleSet is the result of enumerating a graph's simple cycles.
type CycleSet struct {
	Counts     map[Key]int
	Overflowed bool
}

// Cycles enumerates the simple cycles of g up to MaxLen edges.
func Cycles(g *graph.Graph, opt CycleOptions) *CycleSet {
	cs := &CycleSet{Counts: make(map[Key]int)}
	if opt.MaxLen < 3 {
		return cs
	}
	n := g.NumVertices()
	inPath := make([]bool, n)
	path := make([]int32, 0, opt.MaxLen)
	total := 0

	labeled := g.HasEdgeLabels()
	var dfs func(s, v int) bool
	dfs = func(s, v int) bool {
		for _, w := range g.Neighbors(v) {
			if int(w) == s && len(path) >= 3 {
				// close the cycle; fix direction: path[1] < path[len-1]
				if path[1] < path[len(path)-1] {
					labels := make([]graph.Label, len(path))
					for i, u := range path {
						labels[i] = g.Label(int(u))
					}
					var k Key
					if labeled {
						elabs := make([]graph.Label, len(path))
						for i := range path {
							elabs[i] = g.EdgeLabel(int(path[i]), int(path[(i+1)%len(path)]))
						}
						k = cycleKeyLabeled(labels, elabs)
					} else {
						k = cycleKey(labels)
					}
					cs.Counts[k]++
					total++
					if opt.Budget > 0 && total > opt.Budget {
						cs.Overflowed = true
						return false
					}
				}
				continue
			}
			if int(w) <= s || inPath[w] || len(path) == opt.MaxLen {
				continue
			}
			inPath[w] = true
			path = append(path, w)
			ok := dfs(s, int(w))
			path = path[:len(path)-1]
			inPath[w] = false
			if !ok {
				return false
			}
		}
		return true
	}

	for s := 0; s < n; s++ {
		inPath[s] = true
		path = append(path[:0], int32(s))
		if !dfs(s, s) {
			inPath[s] = false
			return cs
		}
		inPath[s] = false
	}
	return cs
}

// cycleKey returns the canonical key of a cycle's label sequence: the
// minimal string over all rotations of the sequence and its reverse.
func cycleKey(labels []graph.Label) Key {
	best := minRotation(labels)
	rev := make([]graph.Label, len(labels))
	for i, l := range labels {
		rev[len(labels)-1-i] = l
	}
	if r := minRotation(rev); r < best {
		best = r
	}
	return "c:" + best
}

// minRotation returns the lexicographically smallest rotation of the label
// sequence, rendered with '.' separators. Cycle lengths are tiny (≤ 8), so
// the quadratic scan is the clear choice over Booth's algorithm.
func minRotation(labels []graph.Label) string {
	n := len(labels)
	best := ""
	for s := 0; s < n; s++ {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte('.')
			}
			b.WriteString(strconv.Itoa(int(labels[(s+i)%n])))
		}
		enc := b.String()
		if best == "" || enc < best {
			best = enc
		}
	}
	return best
}

// cycleKeyLabeled canonicalises a cycle whose edges carry labels: the
// interleaved sequence v0 e01 v1 e12 ... e(k-1)0 is minimised over all
// rotations of both traversal directions. Zero-labeled cycles fall back to
// the legacy unlabeled key so mixed graphs filter consistently.
func cycleKeyLabeled(labels, elabs []graph.Label) Key {
	if allZero(elabs) {
		return cycleKey(labels)
	}
	best := minRotationInterleaved(labels, elabs)
	// reversed traversal: vertices v0, v(k-1)..v1; edges reverse(elabs)
	n := len(labels)
	revV := make([]graph.Label, n)
	revE := make([]graph.Label, n)
	revV[0] = labels[0]
	for i := 1; i < n; i++ {
		revV[i] = labels[n-i]
	}
	for i := 0; i < n; i++ {
		revE[i] = elabs[n-1-i]
	}
	if r := minRotationInterleaved(revV, revE); r < best {
		best = r
	}
	return "c:!" + best
}

// minRotationInterleaved minimises v_s.e_s.v_{s+1}... over start positions.
func minRotationInterleaved(vs, es []graph.Label) string {
	n := len(vs)
	best := ""
	for s := 0; s < n; s++ {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte('.')
			}
			b.WriteString(strconv.Itoa(int(vs[(s+i)%n])))
			b.WriteByte('.')
			b.WriteString(strconv.Itoa(int(es[(s+i)%n])))
		}
		enc := b.String()
		if best == "" || enc < best {
			best = enc
		}
	}
	return best
}

func allZero(ls []graph.Label) bool {
	for _, l := range ls {
		if l != 0 {
			return false
		}
	}
	return true
}
