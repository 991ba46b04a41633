package iso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// Edge-label generalization tests (the paper's claim that "all our results
// straightforwardly generalize to graphs with edge labels").

func labeledEdgePair(pl, tl graph.Label) (p, t *graph.Graph) {
	p = graph.New(2)
	p.AddVertex(1)
	p.AddVertex(1)
	p.AddEdgeLabeled(0, 1, pl)
	t = graph.New(2)
	t.AddVertex(1)
	t.AddVertex(1)
	t.AddEdgeLabeled(0, 1, tl)
	return p, t
}

func TestEdgeLabelMustMatch(t *testing.T) {
	p, tg := labeledEdgePair(1, 1)
	if !Subgraph(p, tg) {
		t.Error("matching edge labels rejected")
	}
	p2, tg2 := labeledEdgePair(1, 2)
	if Subgraph(p2, tg2) {
		t.Error("mismatched edge labels accepted")
	}
	// unlabeled pattern edge (0) cannot match labeled target edge
	p3, tg3 := labeledEdgePair(0, 2)
	if Subgraph(p3, tg3) {
		t.Error("unlabeled pattern edge matched labeled target edge")
	}
	// ... nor a labeled pattern edge an unlabeled target edge
	p4, tg4 := labeledEdgePair(2, 0)
	if Subgraph(p4, tg4) {
		t.Error("labeled pattern edge matched unlabeled target edge")
	}
}

func TestEdgeLabeledPathSelection(t *testing.T) {
	// target: triangle with bond labels 1,2,3; pattern: a 2-path requiring
	// labels 1 then 2 embeds along path 0-1-2; closing it into a triangle
	// with the wrong bond label does not embed
	tg := graph.New(3)
	for i := 0; i < 3; i++ {
		tg.AddVertex(1)
	}
	tg.AddEdgeLabeled(0, 1, 1)
	tg.AddEdgeLabeled(1, 2, 2)
	tg.AddEdgeLabeled(0, 2, 3)

	p := graph.New(3)
	for i := 0; i < 3; i++ {
		p.AddVertex(1)
	}
	p.AddEdgeLabeled(0, 1, 1)
	p.AddEdgeLabeled(1, 2, 2)

	if !Subgraph(p, tg) {
		t.Error("path with bond labels 1, 2 not embedded")
	}
	pBad := p.Clone()
	pBad.AddEdgeLabeled(0, 2, 1) // closes the triangle with the wrong label
	if Subgraph(pBad, tg) {
		t.Error("wrong-label triangle embedded")
	}
}

func randomLabeledGraph(rng *rand.Rand, n int, pEdge float64, vLabels, eLabels int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(rng.Intn(vLabels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < pEdge {
				g.AddEdgeLabeled(u, v, graph.Label(rng.Intn(eLabels)))
			}
		}
	}
	return g
}

// TestQuickLabeledEnginesAgree: the compiled engine and the brute-force
// oracle agree on arbitrary vertex- and edge-labelled pairs, through both
// the one-shot and the compiled entry point.
func TestQuickLabeledEnginesAgree(t *testing.T) {
	f := func(seedP, seedT int64) bool {
		rp := rand.New(rand.NewSource(seedP))
		rt := rand.New(rand.NewSource(seedT))
		pat := randomLabeledGraph(rp, 1+rp.Intn(4), 0.5, 2, 2)
		tgt := randomLabeledGraph(rt, 3+rt.Intn(5), 0.45, 2, 2)
		want := bruteForceExists(pat, tgt)
		return Subgraph(pat, tgt) == want && Compile(pat).Match(tgt) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLabeledPlantedAlwaysFound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		tgt := randomLabeledGraph(rng, 8+rng.Intn(6), 0.35, 3, 3)
		order := tgt.BFSOrder(rng.Intn(tgt.NumVertices()))
		if len(order) > 4 {
			order = order[:4]
		}
		pat, _ := tgt.InducedSubgraph(order)
		if !Subgraph(pat, tgt) {
			t.Fatalf("trial %d: missed planted labeled subgraph", trial)
		}
	}
}

func TestLabeledIsomorphic(t *testing.T) {
	a := graph.New(2)
	a.AddVertex(1)
	a.AddVertex(1)
	a.AddEdgeLabeled(0, 1, 5)
	b := a.Clone()
	if !Isomorphic(a, b) {
		t.Error("identical labeled graphs not isomorphic")
	}
	c := graph.New(2)
	c.AddVertex(1)
	c.AddVertex(1)
	c.AddEdgeLabeled(0, 1, 6)
	if Isomorphic(a, c) {
		t.Error("different edge labels declared isomorphic")
	}
}
