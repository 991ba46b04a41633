package features

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

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
	g.AddEdge(0, len(labels)-1)
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

func TestPathKeyCanonical(t *testing.T) {
	a := pathCounts(pathGraph(1, 2, 3), 2)
	b := pathCounts(pathGraph(3, 2, 1), 2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("path keys not reversal-invariant: %v vs %v", a, b)
	}
	for k := range a {
		if !strings.HasPrefix(k, "p:") {
			t.Errorf("path key missing namespace: %q", k)
		}
	}
	// multi-digit labels must not be confusable: 1.23 vs 12.3
	x := pathCounts(pathGraph(1, 23), 1)
	y := pathCounts(pathGraph(12, 3), 1)
	if x["p:1.23"] != 2 || y["p:12.3"] != 2 || x["p:12.3"] != 0 {
		t.Errorf("separator fails to distinguish multi-digit labels: %v vs %v", x, y)
	}
}

func TestPathsOnPathGraph(t *testing.T) {
	// path 1-2-3: directed simple paths: 3 of len0, 4 of len1 (2 each dir),
	// 2 of len2.
	g := pathGraph(1, 2, 3)
	ps := pathCounts(g, 4)
	if got := ps["p:1"]; got != 1 {
		t.Errorf("count(p:1) = %d, want 1", got)
	}
	if got := ps["p:2"]; got != 1 {
		t.Errorf("count(p:2) = %d, want 1", got)
	}
	if got := ps["p:1.2"]; got != 2 { // both directions collapse
		t.Errorf("count(p:1.2) = %d, want 2", got)
	}
	if got := ps["p:1.2.3"]; got != 2 {
		t.Errorf("count(p:1.2.3) = %d, want 2", got)
	}
	if _, ok := ps["p:1.3"]; ok {
		t.Error("phantom path 1.3")
	}
}

func TestPathsMaxLenRespected(t *testing.T) {
	g := pathGraph(1, 1, 1, 1, 1, 1) // 5 edges
	ps := pathCounts(g, 2)
	for k := range ps {
		if strings.Count(k, ".") > 2 {
			t.Errorf("path longer than MaxLen: %q", k)
		}
	}
	if _, ok := ps["p:1.1.1"]; !ok {
		t.Error("missing length-2 path")
	}
}

func TestPathCountsQueryVsDataset(t *testing.T) {
	// The count-based filter relies on: if q ⊆ G then for every feature f,
	// count_q(f) <= count_G(f). Validate on planted subgraphs.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		tgt := randomGraph(rng, 10, 0.3, 3)
		order := tgt.BFSOrder(rng.Intn(10))
		if len(order) > 5 {
			order = order[:5]
		}
		sub, _ := tgt.InducedSubgraph(order)
		pq := pathCounts(sub, 4)
		pt := pathCounts(tgt, 4)
		for k, c := range pq {
			if pt[k] < c {
				t.Fatalf("trial %d: feature %q query count %d > dataset %d",
					trial, k, c, pt[k])
			}
		}
	}
}

func TestTreeKeyInvariance(t *testing.T) {
	// the same labeled tree presented with permuted vertex ids must get the
	// same canonical key
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		// random labeled tree on n vertices
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddVertex(graph.Label(rng.Intn(3)))
		}
		for i := 1; i < n; i++ {
			g.AddEdge(i, rng.Intn(i))
		}
		perm := rng.Perm(n)
		h := graph.New(n)
		for i := 0; i < n; i++ {
			h.AddVertex(0)
		}
		for i := 0; i < n; i++ {
			h.SetLabel(perm[i], g.Label(i))
		}
		g.Edges(func(u, v int) { h.AddEdge(perm[u], perm[v]) })

		vsG := make([]int32, n)
		vsH := make([]int32, n)
		for i := 0; i < n; i++ {
			vsG[i] = int32(i)
			vsH[i] = int32(i)
		}
		esG := make([][2]int32, 0, n-1)
		g.Edges(func(u, v int) { esG = append(esG, [2]int32{int32(u), int32(v)}) })
		esH := make([][2]int32, 0, n-1)
		h.Edges(func(u, v int) { esH = append(esH, [2]int32{int32(u), int32(v)}) })

		if treeKey(g, vsG, esG) != treeKey(h, vsH, esH) {
			t.Fatalf("trial %d: tree key not invariant under relabeling", trial)
		}
	}
}

func TestTreeKeyDistinguishes(t *testing.T) {
	// path(1,1,1,1) vs star(1;1,1,1): same labels, different shape
	p := pathGraph(1, 1, 1, 1)
	s := graph.New(4)
	for i := 0; i < 4; i++ {
		s.AddVertex(1)
	}
	s.AddEdge(0, 1)
	s.AddEdge(0, 2)
	s.AddEdge(0, 3)
	vs := []int32{0, 1, 2, 3}
	esP := [][2]int32{{0, 1}, {1, 2}, {2, 3}}
	esS := [][2]int32{{0, 1}, {0, 2}, {0, 3}}
	if treeKey(p, vs, esP) == treeKey(s, vs, esS) {
		t.Error("path and star trees share canonical key")
	}
}

func TestTreesOnTriangle(t *testing.T) {
	g := cycleGraph(1, 2, 3)
	ts := Trees(g, TreeOptions{MaxVertices: 3})
	if ts.Overflowed {
		t.Fatal("unexpected overflow")
	}
	// 3 single vertices, 3 edges (all distinct by labels), 3 two-edge paths
	singles, edges, paths2 := 0, 0, 0
	for k, c := range ts.Counts {
		switch strings.Count(k, "(") {
		case 0:
			singles += c
		case 2:
			edges += c
		case 3:
			paths2 += c
		}
	}
	if singles != 3 {
		t.Errorf("single-vertex trees = %d, want 3", singles)
	}
	if edges != 3 {
		t.Errorf("edge trees = %d, want 3", edges)
	}
	if paths2 != 3 {
		t.Errorf("2-edge path trees = %d, want 3", paths2)
	}
}

func TestTreesBudgetSaturates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 12, 0.5, 2)
	ts := Trees(g, TreeOptions{MaxVertices: 5, Budget: 10})
	if !ts.Overflowed {
		t.Error("expected overflow with tiny budget")
	}
	full := Trees(g, TreeOptions{MaxVertices: 5})
	if full.Overflowed {
		t.Error("unlimited enumeration must not overflow")
	}
	if len(ts.Counts) > len(full.Counts) {
		t.Error("budgeted enumeration produced more keys than full")
	}
}

func TestTreeContainmentProperty(t *testing.T) {
	// induced subgraph's tree features (by key) are a subset of the host's
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		tgt := randomGraph(rng, 9, 0.25, 2)
		order := tgt.BFSOrder(rng.Intn(9))
		if len(order) > 5 {
			order = order[:5]
		}
		sub, _ := tgt.InducedSubgraph(order)
		fq := Trees(sub, TreeOptions{MaxVertices: 4})
		ft := Trees(tgt, TreeOptions{MaxVertices: 4})
		for k, c := range fq.Counts {
			if ft.Counts[k] < c {
				t.Fatalf("trial %d: tree %q count %d > host %d", trial, k, c, ft.Counts[k])
			}
		}
	}
}

func TestCyclesOnCycleGraphs(t *testing.T) {
	for n := 3; n <= 8; n++ {
		labels := make([]graph.Label, n)
		for i := range labels {
			labels[i] = graph.Label(i % 2)
		}
		g := cycleGraph(labels...)
		cs := Cycles(g, CycleOptions{MaxLen: 8})
		total := 0
		for _, c := range cs.Counts {
			total += c
		}
		if total != 1 {
			t.Errorf("C%d: found %d cycles, want 1 (%v)", n, total, cs.Counts)
		}
	}
}

func TestCyclesRespectMaxLen(t *testing.T) {
	g := cycleGraph(1, 1, 1, 1, 1, 1) // C6
	cs := Cycles(g, CycleOptions{MaxLen: 5})
	if len(cs.Counts) != 0 {
		t.Errorf("C6 found with MaxLen=5: %v", cs.Counts)
	}
}

func TestCyclesK4(t *testing.T) {
	// K4 has 4 triangles and 3 four-cycles
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(1)
	}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	cs := Cycles(g, CycleOptions{MaxLen: 8})
	tri := cs.Counts["c:1.1.1"]
	quad := cs.Counts["c:1.1.1.1"]
	if tri != 4 {
		t.Errorf("triangles in K4 = %d, want 4", tri)
	}
	if quad != 3 {
		t.Errorf("4-cycles in K4 = %d, want 3", quad)
	}
}

func TestCycleKeyRotationInvariance(t *testing.T) {
	a := cycleKey([]graph.Label{1, 2, 3, 4})
	b := cycleKey([]graph.Label{3, 4, 1, 2})
	c := cycleKey([]graph.Label{4, 3, 2, 1})
	if a != b || a != c {
		t.Errorf("cycle keys differ: %q %q %q", a, b, c)
	}
}

func TestCyclesBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 14, 0.5, 2)
	cs := Cycles(g, CycleOptions{MaxLen: 6, Budget: 5})
	if !cs.Overflowed {
		t.Error("expected cycle budget overflow")
	}
}

func TestAcyclicGraphHasNoCycles(t *testing.T) {
	g := pathGraph(1, 2, 3, 4, 5)
	cs := Cycles(g, CycleOptions{MaxLen: 8})
	if len(cs.Counts) != 0 {
		t.Errorf("cycles found in a path: %v", cs.Counts)
	}
}

func BenchmarkPathsSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 50, 0.05, 6)
	d, s := NewDict(), NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PathsID(g, PathOptions{MaxLen: 4}, d, s, true)
	}
}

func BenchmarkTreesSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 50, 0.05, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Trees(g, TreeOptions{MaxVertices: 6})
	}
}
