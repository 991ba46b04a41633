// Package graph provides the labeled undirected graph type that underpins
// every component of the iGQ reproduction: the dataset graphs, the query
// graphs, and the feature-extraction and isomorphism machinery built on top.
//
// Graphs are vertex-labeled (the paper's Definition 1); labels are small
// integers. Vertices are dense indices 0..N-1, which keeps adjacency
// structures compact and makes the graph cheap to copy and hash.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Label is a vertex label. The paper's formal model uses an arbitrary label
// domain U; all algorithms here only require equality, so a small integer
// domain loses no generality (string label vocabularies can be interned).
type Label int32

// Graph is a labeled undirected graph G = (V, E, l) per Definition 1 of the
// paper. The zero value is an empty graph ready for use.
//
// Edges may optionally carry labels too — the paper notes that all results
// "straightforwardly generalize to graphs with edge labels", and this
// implementation realises that: edge labels default to 0 (unlabeled) and
// participate in feature canonical forms and isomorphism feasibility when
// set.
//
// Invariants maintained by the mutators:
//   - adjacency lists are kept sorted and duplicate-free,
//   - there are no self-loops,
//   - len(labels) == number of vertices,
//   - elabels[v] is aligned index-by-index with adj[v].
type Graph struct {
	// ID is an optional caller-assigned identifier (e.g. position in a
	// dataset). It is carried through serialization but has no semantic
	// role in any algorithm.
	ID int

	labels  []Label
	adj     [][]int32
	elabels [][]Label // edge labels aligned with adj; nil when all zero
	edges   int

	// fp memoises Fingerprint (0 = not yet computed). Structural mutators
	// reset it; Fingerprint is on the per-query cache path and the
	// snapshot-load dataset guard, both of which revisit the same immutable
	// graphs, so recomputing the WL refinement every time is pure waste.
	fp atomic.Uint64
}

// New returns an empty graph with capacity hints for n vertices.
func New(n int) *Graph {
	return &Graph{
		labels: make([]Label, 0, n),
		adj:    make([][]int32, 0, n),
	}
}

// Edge is one undirected edge for FromEdges: its endpoints and its label
// (0 = unlabeled).
type Edge struct {
	U, V int
	L    Label
}

// FromEdges returns the graph with vertex labels labels and the given
// edges, sizing each adjacency list once — the bulk form of AddVertex and
// AddEdgeLabeled for decoders. It builds the graph those calls would, edge
// labels materialised only if some label is non-zero, or, when they would
// reject an edge (a self-loop, an endpoint out of range, a duplicate),
// returns nil and the index of the first edge they reject; bad is -1
// otherwise. labels is copied.
func FromEdges(labels []Label, edges []Edge) (g *Graph, bad int) {
	n := len(labels)
	deg := make([]int32, n+1)
	bad = -1
	labeled := false
	for i, e := range edges {
		if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			bad, edges = i, edges[:i] // only an earlier duplicate can come first
			break
		}
		deg[e.U+1]++
		deg[e.V+1]++
		labeled = labeled || e.L != 0
	}
	for v := 1; v <= n; v++ {
		deg[v] += deg[v-1] // deg[v] is now where v's entries start
	}
	// Each vertex's entries are (neighbour, edge index) keys; sorted, they
	// give the adjacency list, and equal neighbours expose duplicates.
	keys := make([]uint64, 2*len(edges))
	at := append([]int32(nil), deg[:n]...)
	for i, e := range edges {
		keys[at[e.U]] = uint64(e.V)<<32 | uint64(i)
		at[e.U]++
		keys[at[e.V]] = uint64(e.U)<<32 | uint64(i)
		at[e.V]++
	}
	for v := 0; v < n; v++ {
		ks := keys[deg[v]:deg[v+1]]
		slices.Sort(ks)
		for j := 1; j < len(ks); j++ {
			if ks[j]>>32 == ks[j-1]>>32 {
				if dup := int(uint32(ks[j])); bad < 0 || dup < bad {
					bad = dup
				}
			}
		}
	}
	if bad >= 0 {
		return nil, bad
	}
	g = &Graph{labels: append([]Label(nil), labels...), adj: make([][]int32, n), edges: len(edges)}
	nbrs := make([]int32, len(keys))
	var els []Label
	if labeled {
		els = make([]Label, len(keys))
		g.elabels = make([][]Label, n)
	}
	for v := 0; v < n; v++ {
		lo, hi := deg[v], deg[v+1]
		if lo == hi {
			continue
		}
		for j := lo; j < hi; j++ {
			nbrs[j] = int32(keys[j] >> 32)
			if labeled {
				els[j] = edges[uint32(keys[j])].L
			}
		}
		g.adj[v] = nbrs[lo:hi:hi] // capped: a later insert reallocates
		if labeled {
			g.elabels[v] = els[lo:hi:hi]
		}
	}
	return g, -1
}

// NumVertices returns |V(G)|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns |E(G)| (each undirected edge counted once).
func (g *Graph) NumEdges() int { return g.edges }

// AddVertex appends a vertex with the given label and returns its index.
func (g *Graph) AddVertex(l Label) int {
	g.labels = append(g.labels, l)
	g.adj = append(g.adj, nil)
	if g.elabels != nil {
		g.elabels = append(g.elabels, nil)
	}
	g.fp.Store(0)
	return len(g.labels) - 1
}

// Label returns the label of vertex v.
func (g *Graph) Label(v int) Label { return g.labels[v] }

// Degree returns the number of neighbours of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted adjacency list of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// NeighborLabels returns the edge labels aligned index-by-index with
// Neighbors(v), or nil when no edge of the graph carries a label (every
// edge label is then 0). The returned slice is owned by the graph and must
// not be modified.
func (g *Graph) NeighborLabels(v int) []Label {
	if g.elabels == nil {
		return nil
	}
	return g.elabels[v]
}

// AddEdge inserts the undirected unlabeled edge (u, v). It reports whether
// the edge was newly added; self-loops and duplicates are rejected
// (returning false), matching the simple-graph model of the paper.
func (g *Graph) AddEdge(u, v int) bool { return g.AddEdgeLabeled(u, v, 0) }

// AddEdgeLabeled inserts the undirected edge (u, v) carrying label l.
// Storage for edge labels is materialised lazily on the first non-zero
// label, so unlabeled graphs pay nothing.
func (g *Graph) AddEdgeLabeled(u, v int, l Label) bool {
	if u == v || u < 0 || v < 0 || u >= len(g.labels) || v >= len(g.labels) {
		return false
	}
	if g.HasEdge(u, v) {
		return false
	}
	if l != 0 && g.elabels == nil {
		g.elabels = make([][]Label, len(g.labels))
		for i, a := range g.adj {
			g.elabels[i] = make([]Label, len(a))
		}
	}
	var iu, iv int
	g.adj[u], iu = insertSorted(g.adj[u], int32(v))
	g.adj[v], iv = insertSorted(g.adj[v], int32(u))
	if g.elabels != nil {
		g.elabels[u] = insertLabelAt(g.elabels[u], iu, l)
		g.elabels[v] = insertLabelAt(g.elabels[v], iv, l)
	}
	g.edges++
	g.fp.Store(0)
	return true
}

// EdgeLabel returns the label of edge (u, v), or 0 if the edge is absent or
// unlabeled.
func (g *Graph) EdgeLabel(u, v int) Label {
	if g.elabels == nil || u < 0 || u >= len(g.labels) {
		return 0
	}
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	if i < len(a) && a[i] == int32(v) {
		return g.elabels[u][i]
	}
	return 0
}

// HasEdgeLabels reports whether any edge carries a non-zero label.
func (g *Graph) HasEdgeLabels() bool {
	for _, ls := range g.elabels {
		for _, l := range ls {
			if l != 0 {
				return true
			}
		}
	}
	return false
}

func insertLabelAt(ls []Label, i int, l Label) []Label {
	ls = append(ls, 0)
	copy(ls[i+1:], ls[i:])
	ls[i] = l
	return ls
}

// HasEdge reports whether the undirected edge (u, v) is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.labels) || v >= len(g.labels) {
		return false
	}
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

func insertSorted(a []int32, x int32) ([]int32, int) {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= x })
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = x
	return a, i
}

// Edges calls fn for every undirected edge exactly once, with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := range g.adj {
		for _, w := range g.adj[u] {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// CopyFrom replaces g's contents with src's (sharing src's backing storage;
// use Clone for an independent copy). It exists because Graph carries an
// atomic fingerprint memo and therefore cannot be copied with plain struct
// assignment.
func (g *Graph) CopyFrom(src *Graph) {
	g.ID = src.ID
	g.labels = src.labels
	g.adj = src.adj
	g.elabels = src.elabels
	g.edges = src.edges
	g.fp.Store(src.fp.Load())
}

// Clone returns a deep copy of g (including ID and edge labels).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		ID:     g.ID,
		labels: append([]Label(nil), g.labels...),
		adj:    make([][]int32, len(g.adj)),
		edges:  g.edges,
	}
	for i, a := range g.adj {
		c.adj[i] = append([]int32(nil), a...)
	}
	if g.elabels != nil {
		c.elabels = make([][]Label, len(g.elabels))
		for i, ls := range g.elabels {
			c.elabels[i] = append([]Label(nil), ls...)
		}
	}
	return c
}

// EdgesLabeled calls fn for every undirected edge exactly once, with u < v
// and the edge's label.
func (g *Graph) EdgesLabeled(fn func(u, v int, l Label)) {
	for u := range g.adj {
		for i, w := range g.adj[u] {
			if int(w) > u {
				var l Label
				if g.elabels != nil {
					l = g.elabels[u][i]
				}
				fn(u, int(w), l)
			}
		}
	}
}

// Labels returns a copy of the label slice indexed by vertex.
func (g *Graph) Labels() []Label { return append([]Label(nil), g.labels...) }

// LabelSet returns the set of distinct labels appearing in g, sorted.
func (g *Graph) LabelSet() []Label {
	seen := map[Label]struct{}{}
	for _, l := range g.labels {
		seen[l] = struct{}{}
	}
	out := make([]Label, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LabelCounts returns a histogram of vertex labels.
func (g *Graph) LabelCounts() map[Label]int {
	h := make(map[Label]int)
	for _, l := range g.labels {
		h[l]++
	}
	return h
}

// InducedSubgraph returns the subgraph induced by the given vertex set,
// along with the mapping from new vertex index to original vertex index.
// Vertices keep their labels; edges with both ends in the set are retained.
func (g *Graph) InducedSubgraph(vs []int) (*Graph, []int) {
	idx := make(map[int]int, len(vs))
	sub := New(len(vs))
	orig := make([]int, 0, len(vs))
	for _, v := range vs {
		if _, dup := idx[v]; dup {
			continue
		}
		idx[v] = sub.AddVertex(g.labels[v])
		orig = append(orig, v)
	}
	for v, nv := range idx {
		for i, w := range g.adj[v] {
			if nw, ok := idx[int(w)]; ok && nv < nw {
				var l Label
				if g.elabels != nil {
					l = g.elabels[v][i]
				}
				sub.AddEdgeLabeled(nv, nw, l)
			}
		}
	}
	return sub, orig
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted ascending, ordered by their smallest vertex.
func (g *Graph) ConnectedComponents() [][]int {
	n := len(g.labels)
	seen := make([]bool, n)
	var comps [][]int
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], int32(s))
		comp := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, int(w))
					queue = append(queue, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g is connected (the empty graph counts as
// connected; a single vertex does too).
func (g *Graph) IsConnected() bool {
	if len(g.labels) <= 1 {
		return true
	}
	return len(g.ConnectedComponents()) == 1
}

// BFSOrder returns vertices reachable from start in breadth-first order.
func (g *Graph) BFSOrder(start int) []int {
	if start < 0 || start >= len(g.labels) {
		return nil
	}
	seen := make([]bool, len(g.labels))
	order := make([]int, 0, len(g.labels))
	queue := []int32{int32(start)}
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, int(v))
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// SizeBytes returns the approximate in-memory footprint of the graph
// structure, used for the index-size accounting of the paper's Figure 18.
func (g *Graph) SizeBytes() int {
	sz := 16 + 4*len(g.labels) // labels + header
	for _, a := range g.adj {
		sz += 24 + 4*len(a)
	}
	for _, ls := range g.elabels {
		sz += 24 + 4*len(ls)
	}
	return sz
}

// String returns a compact human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{id=%d |V|=%d |E|=%d}", g.ID, len(g.labels), g.edges)
}

// Validate checks the structural invariants and returns a descriptive error
// if any is violated. Intended for tests and for data loaded from files.
func (g *Graph) Validate() error {
	if len(g.labels) != len(g.adj) {
		return fmt.Errorf("graph: %d labels but %d adjacency lists", len(g.labels), len(g.adj))
	}
	count := 0
	for u, a := range g.adj {
		for i, w := range a {
			if int(w) == u {
				return fmt.Errorf("graph: self-loop at vertex %d", u)
			}
			if w < 0 || int(w) >= len(g.labels) {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", u, w)
			}
			if i > 0 && a[i-1] >= w {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			if !g.HasEdge(int(w), u) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", u, w)
			}
			count++
		}
	}
	if count != 2*g.edges {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency total %d", g.edges, count)
	}
	if g.elabels != nil {
		if len(g.elabels) != len(g.adj) {
			return fmt.Errorf("graph: %d edge-label lists but %d adjacency lists", len(g.elabels), len(g.adj))
		}
		for u := range g.adj {
			if len(g.elabels[u]) != len(g.adj[u]) {
				return fmt.Errorf("graph: vertex %d has %d edge labels for %d neighbours",
					u, len(g.elabels[u]), len(g.adj[u]))
			}
			for i, w := range g.adj[u] {
				if g.elabels[u][i] != g.EdgeLabel(int(w), u) {
					return fmt.Errorf("graph: edge (%d,%d) label asymmetric", u, w)
				}
			}
		}
	}
	return nil
}
