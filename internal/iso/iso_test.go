package iso

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// dump renders g in the text codec, for failure messages.
func dump(g *graph.Graph) string {
	var b strings.Builder
	graph.WriteAll(&b, []*graph.Graph{g})
	return b.String()
}

func pathGraph(labels ...graph.Label) *graph.Graph {
	g := graph.New(len(labels))
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 0; i+1 < len(labels); i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycleGraph(labels ...graph.Label) *graph.Graph {
	g := pathGraph(labels...)
	if len(labels) > 2 {
		g.AddEdge(0, len(labels)-1)
	}
	return g
}

func randomGraph(rng *rand.Rand, n int, p float64, labels int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// randomConnectedSubgraph extracts a connected pattern with k vertices from
// t by BFS from a random start, then randomly drops some non-bridging edges
// so the pattern is a (not necessarily induced) subgraph.
func randomConnectedSubgraph(rng *rand.Rand, t *graph.Graph, k int) *graph.Graph {
	if t.NumVertices() == 0 {
		return graph.New(0)
	}
	start := rng.Intn(t.NumVertices())
	order := t.BFSOrder(start)
	if len(order) > k {
		order = order[:k]
	}
	sub, _ := t.InducedSubgraph(order)
	// drop ~30% of edges while keeping the pattern connected
	var edges [][2]int
	sub.Edges(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	out := graph.New(sub.NumVertices())
	for v := 0; v < sub.NumVertices(); v++ {
		out.AddVertex(sub.Label(v))
	}
	for _, e := range edges {
		out.AddEdge(e[0], e[1])
	}
	for _, e := range edges {
		if rng.Float64() < 0.3 {
			trial := graph.New(out.NumVertices())
			for v := 0; v < out.NumVertices(); v++ {
				trial.AddVertex(out.Label(v))
			}
			out.Edges(func(u, v int) {
				if [2]int{u, v} != e {
					trial.AddEdge(u, v)
				}
			})
			if trial.IsConnected() {
				out = trial
			}
		}
	}
	return out
}

func TestSubgraphBasics(t *testing.T) {
	tri := cycleGraph(1, 1, 1)
	edge := pathGraph(1, 1)
	single := pathGraph(1)
	wrongLabel := pathGraph(2)

	if !Subgraph(edge, tri) {
		t.Error("edge should embed in triangle")
	}
	if !Subgraph(single, tri) {
		t.Error("single vertex should embed")
	}
	if Subgraph(wrongLabel, tri) {
		t.Error("wrong label embedded")
	}
	if !Subgraph(tri, tri) {
		t.Error("graph should embed in itself")
	}
	if Subgraph(tri, edge) {
		t.Error("triangle embedded in edge")
	}
}

func TestSubgraphNonInduced(t *testing.T) {
	// path a-b-c must embed into triangle a,b,c even though the triangle
	// has the extra (a,c) edge — monomorphism, not induced isomorphism.
	p := pathGraph(1, 2, 3)
	tgt := graph.New(3)
	tgt.AddVertex(1)
	tgt.AddVertex(2)
	tgt.AddVertex(3)
	tgt.AddEdge(0, 1)
	tgt.AddEdge(1, 2)
	tgt.AddEdge(0, 2)
	if !Subgraph(p, tgt) {
		t.Error("non-induced embedding rejected")
	}
}

func TestEmptyPattern(t *testing.T) {
	empty := graph.New(0)
	tgt := pathGraph(1, 2)
	if !Subgraph(empty, tgt) || !Compile(empty).Match(tgt) {
		t.Error("empty pattern should embed everywhere")
	}
	if !Subgraph(empty, graph.New(0)) {
		t.Error("empty into empty")
	}
	if Subgraph(tgt, empty) {
		t.Error("nonempty pattern embedded into empty target")
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// two isolated labeled vertices; target has only one vertex per label
	p := graph.New(2)
	p.AddVertex(1)
	p.AddVertex(1)
	tgt1 := pathGraph(1) // single vertex: cannot host two
	if Subgraph(p, tgt1) {
		t.Error("injectivity violated")
	}
	tgt2 := graph.New(2)
	tgt2.AddVertex(1)
	tgt2.AddVertex(1)
	if !Subgraph(p, tgt2) {
		t.Error("two isolated vertices should embed into two")
	}
	// disconnected pattern with edges
	p2 := graph.New(4)
	p2.AddVertex(1)
	p2.AddVertex(2)
	p2.AddVertex(3)
	p2.AddVertex(4)
	p2.AddEdge(0, 1)
	p2.AddEdge(2, 3)
	tgt3 := pathGraph(1, 2, 3, 4)
	if !Subgraph(p2, tgt3) {
		t.Error("disconnected pattern should embed into path")
	}
}

// TestFindEmbeddingValid: the mapping a successful search stops at is an
// embedding — injective, label-preserving and edge-preserving.
func TestFindEmbeddingValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := new(state)
	for trial := 0; trial < 40; trial++ {
		tgt := randomGraph(rng, 8+rng.Intn(6), 0.35, 3)
		p := randomConnectedSubgraph(rng, tgt, 2+rng.Intn(4))
		pr := Compile(p)
		if !s.run(pr, tgt) {
			t.Fatalf("trial %d: planted pattern not found", trial)
		}
		m := s.mapping
		seen := map[int32]bool{}
		for u, v := range m {
			if seen[v] {
				t.Fatalf("trial %d: embedding not injective", trial)
			}
			seen[v] = true
			if p.Label(u) != tgt.Label(int(v)) {
				t.Fatalf("trial %d: label mismatch", trial)
			}
		}
		p.Edges(func(a, b int) {
			if !tgt.HasEdge(int(m[a]), int(m[b])) {
				t.Fatalf("trial %d: embedding drops edge %d-%d", trial, a, b)
			}
		})
	}
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		tgt := randomGraph(rng, 3+rng.Intn(6), 0.4, 2+rng.Intn(2))
		pat := randomGraph(rng, 1+rng.Intn(4), 0.5, 2+rng.Intn(2))
		want := bruteForceExists(pat, tgt)
		if got := Subgraph(pat, tgt); got != want {
			t.Fatalf("trial %d: engine=%v brute=%v\npat=%s\ntgt=%s",
				trial, got, want, dump(pat), dump(tgt))
		}
	}
}

func TestPlantedAlwaysFound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		tgt := randomGraph(rng, 6+rng.Intn(10), 0.3, 4)
		pat := randomConnectedSubgraph(rng, tgt, 2+rng.Intn(5))
		if !Subgraph(pat, tgt) {
			t.Fatalf("trial %d: missed planted subgraph", trial)
		}
	}
}

func TestIsomorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		g := randomGraph(rng, n, 0.4, 3)
		// permuted copy
		perm := rng.Perm(n)
		labels := make([]graph.Label, n)
		for i := range labels {
			labels[perm[i]] = g.Label(i)
		}
		h := graph.New(n)
		for _, l := range labels {
			h.AddVertex(l)
		}
		g.Edges(func(u, v int) { h.AddEdge(perm[u], perm[v]) })
		if !Isomorphic(g, h) {
			t.Fatalf("trial %d: isomorphic pair rejected", trial)
		}
	}
	// non-isomorphic: path vs star (same degree histogram? no; use C4 vs P4+edge)
	c4 := cycleGraph(1, 1, 1, 1)
	p4 := pathGraph(1, 1, 1, 1)
	if Isomorphic(c4, p4) {
		t.Error("C4 and P4 declared isomorphic")
	}
	// same counts different structure: C6 vs two triangles
	c6 := cycleGraph(1, 1, 1, 1, 1, 1)
	twoTri := graph.New(6)
	for i := 0; i < 6; i++ {
		twoTri.AddVertex(1)
	}
	twoTri.AddEdge(0, 1)
	twoTri.AddEdge(1, 2)
	twoTri.AddEdge(0, 2)
	twoTri.AddEdge(3, 4)
	twoTri.AddEdge(4, 5)
	twoTri.AddEdge(3, 5)
	if Isomorphic(c6, twoTri) {
		t.Error("C6 and 2×C3 declared isomorphic")
	}
}

func TestLabelHistogramPruning(t *testing.T) {
	// pattern needs two label-7 vertices, target has one: must refuse fast
	p := graph.New(2)
	p.AddVertex(7)
	p.AddVertex(7)
	p.AddEdge(0, 1)
	tgt := graph.New(3)
	tgt.AddVertex(7)
	tgt.AddVertex(1)
	tgt.AddVertex(1)
	tgt.AddEdge(0, 1)
	tgt.AddEdge(1, 2)
	if Subgraph(p, tgt) || Compile(p).Match(tgt) {
		t.Error("label-count-infeasible pattern embedded")
	}
	// ... and by the histogram cut, before any search: no state is sized.
	s := new(state)
	if s.run(Compile(p), tgt) || s.used != nil {
		t.Error("histogram cut did not refuse before the search")
	}
}
