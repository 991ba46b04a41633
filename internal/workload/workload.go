// Package workload synthesises query streams following the paper's §7.1
// protocol: since no public query logs exist, queries are extracted from the
// dataset graphs themselves.
//
// Three distributions govern a workload:
//
//  1. which dataset graph a query is extracted from (uniform or Zipf α),
//  2. which start node within that graph (uniform or Zipf α),
//  3. the query size, drawn uniformly from {4, 8, 12, 16, 20} edges.
//
// Extraction performs a BFS from the start node, including the unvisited
// edges of each traversed node until the target edge count is reached. The
// four named workloads — uni-uni, uni-zipf, zipf-uni, zipf-zipf — are the
// paper's notation <graph-dist>-<node-dist>. Skewed selection is what makes
// future queries share subgraph/supergraph relationships with past ones,
// the phenomenon iGQ exploits.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Dist selects a sampling distribution.
type Dist int

const (
	// Uniform sampling.
	Uniform Dist = iota
	// Zipf sampling with the workload's Alpha.
	Zipf
)

// String returns "uni" or "zipf".
func (d Dist) String() string {
	if d == Zipf {
		return "zipf"
	}
	return "uni"
}

// DefaultSizes is the paper's query size domain (edges).
var DefaultSizes = []int{4, 8, 12, 16, 20}

// Spec describes a workload.
type Spec struct {
	NumQueries int
	GraphDist  Dist
	NodeDist   Dist
	Alpha      float64 // Zipf skew; paper default 1.4 (also 1.1, 2.0, 2.4)
	Sizes      []int   // target edge counts; nil → DefaultSizes
	Seed       int64
}

// Name renders the paper's workload notation, e.g. "zipf-uni(α=1.4)".
func (s Spec) Name() string {
	base := s.GraphDist.String() + "-" + s.NodeDist.String()
	if s.GraphDist == Zipf || s.NodeDist == Zipf {
		return fmt.Sprintf("%s(a=%.1f)", base, s.alpha())
	}
	return base
}

func (s Spec) alpha() float64 {
	if s.Alpha <= 1 {
		return 1.4
	}
	return s.Alpha
}

// Query is one generated query with its target size class (Q4..Q20 in the
// paper's per-group figures).
type Query struct {
	G      *graph.Graph
	Target int // requested edge count; G may be smaller in tiny components
}

// Generate produces the query stream deterministically from the seed.
func Generate(db []*graph.Graph, s Spec) []Query {
	if len(db) == 0 || s.NumQueries <= 0 {
		return nil
	}
	sizes := s.Sizes
	if len(sizes) == 0 {
		sizes = DefaultSizes
	}
	rng := rand.New(rand.NewSource(s.Seed))
	graphPick := newPicker(rng, s.GraphDist, s.alpha(), len(db))

	out := make([]Query, 0, s.NumQueries)
	for len(out) < s.NumQueries {
		g := db[graphPick()]
		if g.NumVertices() == 0 {
			continue
		}
		nodePick := newPicker(rng, s.NodeDist, s.alpha(), g.NumVertices())
		target := sizes[rng.Intn(len(sizes))]
		q := Extract(g, nodePick(), target)
		if q.NumEdges() == 0 {
			continue
		}
		out = append(out, Query{G: q, Target: target})
	}
	return out
}

// newPicker returns an index sampler over [0, n).
func newPicker(rng *rand.Rand, d Dist, alpha float64, n int) func() int {
	if n <= 1 {
		return func() int { return 0 }
	}
	if d == Zipf {
		z := rand.NewZipf(rng, alpha, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(n) }
}

// Extract performs the paper's BFS extraction: traverse from start,
// including each traversed node's unvisited edges until targetEdges edges
// are collected, then return the graph induced by the collected edges.
func Extract(g *graph.Graph, start, targetEdges int) *graph.Graph {
	if start < 0 || start >= g.NumVertices() || targetEdges <= 0 {
		return graph.New(0)
	}
	type edge struct{ u, v int32 }
	visited := map[int32]bool{int32(start): true}
	queue := []int32{int32(start)}
	var edges []edge
	seenEdge := map[[2]int32]bool{}

	for len(queue) > 0 && len(edges) < targetEdges {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(int(u)) {
			if len(edges) == targetEdges {
				break
			}
			key := [2]int32{u, v}
			if u > v {
				key = [2]int32{v, u}
			}
			if seenEdge[key] {
				continue
			}
			seenEdge[key] = true
			edges = append(edges, edge{u, v})
			if !visited[v] {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}

	// build the query graph over the touched vertices
	idx := make(map[int32]int, len(visited))
	q := graph.New(len(visited))
	for _, e := range edges {
		for _, w := range [2]int32{e.u, e.v} {
			if _, ok := idx[w]; !ok {
				idx[w] = q.AddVertex(g.Label(int(w)))
			}
		}
	}
	for _, e := range edges {
		q.AddEdgeLabeled(idx[e.u], idx[e.v], g.EdgeLabel(int(e.u), int(e.v)))
	}
	return q
}

// FourWorkloads returns the paper's four standard workloads with shared
// parameters: uni-uni, uni-zipf, zipf-uni, zipf-zipf.
func FourWorkloads(numQueries int, alpha float64, seed int64) []Spec {
	mk := func(g, n Dist, i int64) Spec {
		return Spec{
			NumQueries: numQueries, GraphDist: g, NodeDist: n,
			Alpha: alpha, Seed: seed + i,
		}
	}
	return []Spec{
		mk(Uniform, Uniform, 0),
		mk(Uniform, Zipf, 1),
		mk(Zipf, Uniform, 2),
		mk(Zipf, Zipf, 3),
	}
}
