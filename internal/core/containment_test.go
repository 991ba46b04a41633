package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/index/contain"
	"repro/internal/iso"
)

// Algorithm 2, the dataset-side supergraph filter iGQ wraps in supergraph
// mode (package contain), checked from the cache's side: its candidate sets
// are what the §4.4 pruning starts from.

// containOver is the supergraph read of a path index built over db.
func containOver(db []*graph.Graph) *contain.Index {
	x := contain.New(contain.DefaultOptions())
	x.Build(db)
	return x
}

func TestContainmentNoFalseNegatives(t *testing.T) {
	// Algorithm 2's candidate set must contain every indexed graph that is
	// truly a subgraph of the query (paper §6.2 proof, executable form).
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 25; trial++ {
		var indexed []*graph.Graph
		for i := 0; i < 12; i++ {
			indexed = append(indexed, randomGraph(rng, 2+rng.Intn(5), 0.4, 3))
		}
		x := containOver(indexed)
		q := randomGraph(rng, 4+rng.Intn(5), 0.4, 3)
		cs := x.Filter(q)
		for i, g := range indexed {
			if iso.Reference(g, q) && !slices.Contains(cs, int32(i)) {
				t.Fatalf("trial %d: indexed graph %d ⊆ query but not in CS", trial, i)
			}
		}
	}
}

func TestContainmentOccurrenceCountFilter(t *testing.T) {
	// a graph needing two occurrences of a feature must not be a candidate
	// for a query that has only one
	twoEdges := graph.New(4) // two disjoint 1-2 edges
	twoEdges.AddVertex(1)
	twoEdges.AddVertex(2)
	twoEdges.AddVertex(1)
	twoEdges.AddVertex(2)
	twoEdges.AddEdge(0, 1)
	twoEdges.AddEdge(2, 3)
	x := containOver([]*graph.Graph{twoEdges})

	oneEdge := graph.New(2)
	oneEdge.AddVertex(1)
	oneEdge.AddVertex(2)
	oneEdge.AddEdge(0, 1)
	if cs := x.Filter(oneEdge); len(cs) != 0 {
		t.Errorf("occurrence filter failed: CS=%v", cs)
	}
	// but a query with both edges qualifies
	if cs := x.Filter(twoEdges); len(cs) != 1 {
		t.Errorf("self query: CS=%v", cs)
	}
}

func TestContainmentEmptyIndexedGraph(t *testing.T) {
	x := containOver([]*graph.Graph{tinyGraph(), graph.New(0)})
	q := randomGraph(rand.New(rand.NewSource(1)), 4, 0.5, 2)
	if cs := x.Filter(q); !slices.Contains(cs, 1) {
		t.Errorf("empty graph must be everyone's subgraph candidate: %v", cs)
	}
}

func TestContainmentLenAndSize(t *testing.T) {
	x := contain.New(contain.DefaultOptions())
	if cs := x.Filter(tinyGraph()); len(cs) != 0 {
		t.Errorf("fresh index answers %v", cs)
	}
	x.Build([]*graph.Graph{tinyGraph(), tinyGraph()})
	if cs := x.Filter(tinyGraph()); !slices.Equal(cs, []int32{0, 1}) {
		t.Errorf("Filter over two copies of the query = %v, want both", cs)
	}
	if x.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

func TestContainmentExactSelfHit(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 3+rng.Intn(5), 0.4, 3)
		cs := containOver([]*graph.Graph{g}).Filter(g)
		if len(cs) != 1 || cs[0] != 0 {
			t.Fatalf("trial %d: graph not a candidate subgraph of itself: %v", trial, cs)
		}
	}
}
