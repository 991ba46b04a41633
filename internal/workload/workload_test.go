package workload

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/iso"
)

func testDB(t *testing.T) []*graph.Graph {
	t.Helper()
	return dataset.Generate(dataset.AIDS().Scaled(0.001, 1)) // 40 molecule-like graphs
}

func TestGenerateCountAndDeterminism(t *testing.T) {
	db := testDB(t)
	spec := Spec{NumQueries: 50, GraphDist: Zipf, NodeDist: Uniform, Alpha: 1.4, Seed: 9}
	a := Generate(db, spec)
	b := Generate(db, spec)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Target != b[i].Target || a[i].G.NumEdges() != b[i].G.NumEdges() {
			t.Fatalf("query %d differs between runs", i)
		}
	}
}

func TestQueriesAreSubgraphsOfSomeDatasetGraph(t *testing.T) {
	// extraction guarantees every query embeds in its source graph, hence
	// every query has a non-empty answer over the dataset
	db := testDB(t)
	qs := Generate(db, Spec{NumQueries: 30, GraphDist: Uniform, NodeDist: Uniform, Seed: 3})
	for i, q := range qs {
		found := false
		for _, g := range db {
			if iso.Subgraph(q.G, g) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("query %d embeds in no dataset graph", i)
		}
	}
}

func TestQuerySizesFromDomain(t *testing.T) {
	db := testDB(t)
	qs := Generate(db, Spec{NumQueries: 100, GraphDist: Uniform, NodeDist: Uniform, Seed: 4})
	valid := map[int]bool{4: true, 8: true, 12: true, 16: true, 20: true}
	hit := map[int]bool{}
	for _, q := range qs {
		if !valid[q.Target] {
			t.Fatalf("target %d not in default domain", q.Target)
		}
		hit[q.Target] = true
		if q.G.NumEdges() > q.Target {
			t.Fatalf("query has %d edges, target %d", q.G.NumEdges(), q.Target)
		}
		if q.G.NumEdges() == 0 {
			t.Fatal("empty query emitted")
		}
	}
	if len(hit) < 4 {
		t.Errorf("only %d size classes seen in 100 queries", len(hit))
	}
}

func TestQueriesConnectedAndValid(t *testing.T) {
	db := testDB(t)
	qs := Generate(db, Spec{NumQueries: 60, GraphDist: Zipf, NodeDist: Zipf, Alpha: 2.0, Seed: 5})
	for i, q := range qs {
		if err := q.G.Validate(); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		if !q.G.IsConnected() {
			t.Fatalf("query %d disconnected (BFS extraction must stay connected)", i)
		}
	}
}

func TestExtractExactSizeWhenAvailable(t *testing.T) {
	// a long path graph supports exact-size extraction
	g := graph.New(30)
	for i := 0; i < 30; i++ {
		g.AddVertex(graph.Label(i % 3))
	}
	for i := 0; i+1 < 30; i++ {
		g.AddEdge(i, i+1)
	}
	q := Extract(g, 0, 8)
	if q.NumEdges() != 8 {
		t.Errorf("extracted %d edges, want 8", q.NumEdges())
	}
	if !iso.Subgraph(q, g) {
		t.Error("extracted query does not embed in source")
	}
}

func TestExtractTruncatesOnSmallComponents(t *testing.T) {
	g := graph.New(3)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	q := Extract(g, 0, 20)
	if q.NumEdges() != 2 {
		t.Errorf("extracted %d edges from a 2-edge graph", q.NumEdges())
	}
}

func TestExtractInvalidArgs(t *testing.T) {
	g := graph.New(2)
	g.AddVertex(1)
	g.AddVertex(1)
	g.AddEdge(0, 1)
	if q := Extract(g, -1, 4); q.NumVertices() != 0 {
		t.Error("negative start accepted")
	}
	if q := Extract(g, 5, 4); q.NumVertices() != 0 {
		t.Error("out-of-range start accepted")
	}
	if q := Extract(g, 0, 0); q.NumVertices() != 0 {
		t.Error("zero target accepted")
	}
}

func TestZipfSkewsGraphChoice(t *testing.T) {
	// under zipf-graph selection, low-index graphs must dominate
	db := testDB(t)
	rng := rand.New(rand.NewSource(11))
	pick := newPicker(rng, Zipf, 2.0, len(db))
	counts := make([]int, len(db))
	for i := 0; i < 5000; i++ {
		counts[pick()]++
	}
	if counts[0] < 2500 {
		t.Errorf("graph 0 picked %d/5000 — expected heavy head under α=2", counts[0])
	}
}

func TestSpecNames(t *testing.T) {
	s := Spec{GraphDist: Uniform, NodeDist: Uniform}
	if s.Name() != "uni-uni" {
		t.Errorf("name = %q", s.Name())
	}
	z := Spec{GraphDist: Zipf, NodeDist: Zipf, Alpha: 2.0}
	if z.Name() != "zipf-zipf(a=2.0)" {
		t.Errorf("name = %q", z.Name())
	}
	d := Spec{GraphDist: Zipf, NodeDist: Uniform} // default alpha
	if d.Name() != "zipf-uni(a=1.4)" {
		t.Errorf("name = %q", d.Name())
	}
}

func TestFourWorkloads(t *testing.T) {
	ws := FourWorkloads(10, 1.4, 99)
	if len(ws) != 4 {
		t.Fatalf("got %d workloads", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		names[w.Name()] = true
		if w.NumQueries != 10 {
			t.Errorf("workload %s queries = %d", w.Name(), w.NumQueries)
		}
	}
	if len(names) != 4 {
		t.Errorf("duplicate workload names: %v", names)
	}
}

func TestEmptyInputs(t *testing.T) {
	if qs := Generate(nil, Spec{NumQueries: 5}); qs != nil {
		t.Error("nil db should yield nil")
	}
	db := testDB(t)
	if qs := Generate(db, Spec{NumQueries: 0}); qs != nil {
		t.Error("zero queries should yield nil")
	}
}
