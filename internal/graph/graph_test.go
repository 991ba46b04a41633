package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// path builds a labeled path graph l0-l1-...-lk.
func path(labels ...Label) *Graph {
	g := New(len(labels))
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 0; i+1 < len(labels); i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("empty graph should count as connected")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("empty graph invalid: %v", err)
	}
}

func TestAddVertexAndEdge(t *testing.T) {
	g := New(3)
	a := g.AddVertex(1)
	b := g.AddVertex(2)
	c := g.AddVertex(3)
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("vertex ids = %d,%d,%d", a, b, c)
	}
	if !g.AddEdge(a, b) {
		t.Fatal("AddEdge(a,b) rejected")
	}
	if g.AddEdge(a, b) || g.AddEdge(b, a) {
		t.Error("duplicate edge accepted")
	}
	if g.AddEdge(a, a) {
		t.Error("self-loop accepted")
	}
	if g.AddEdge(a, 99) || g.AddEdge(-1, b) {
		t.Error("out-of-range edge accepted")
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Error("edge not symmetric")
	}
	if g.HasEdge(a, c) {
		t.Error("phantom edge")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := path(1, 2, 3, 4)
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Errorf("degrees: %d %d", g.Degree(0), g.Degree(1))
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
}

func TestEdgeListDeterministic(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(Label(i))
	}
	g.AddEdge(3, 0)
	g.AddEdge(2, 1)
	g.AddEdge(0, 1)
	want := [][2]int{{0, 1}, {0, 3}, {1, 2}}
	if got := edgeList(g); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges visits %v, want %v", got, want)
	}
}

// edgeList collects g's edges in the order Edges visits them.
func edgeList(g *Graph) [][2]int {
	var out [][2]int
	g.Edges(func(u, v int) { out = append(out, [2]int{u, v}) })
	return out
}

func TestCloneIndependence(t *testing.T) {
	g := path(1, 2, 3)
	c := g.Clone()
	c.AddVertex(9)
	c.AddEdge(0, 2)
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Error("mutating clone affected original")
	}
	if c.NumVertices() != 4 || c.NumEdges() != 3 {
		t.Error("clone mutation lost")
	}
}

func TestLabelSetAndCounts(t *testing.T) {
	g := path(5, 3, 5, 1)
	if got := g.LabelSet(); !reflect.DeepEqual(got, []Label{1, 3, 5}) {
		t.Errorf("LabelSet = %v", got)
	}
	h := g.LabelCounts()
	if h[5] != 2 || h[3] != 1 || h[1] != 1 {
		t.Errorf("LabelCounts = %v", h)
	}
}

func TestInducedSubgraph(t *testing.T) {
	// triangle 0-1-2 plus pendant 3
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(Label(10 + i))
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)

	sub, orig := g.InducedSubgraph([]int{0, 1, 2})
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced triangle: |V|=%d |E|=%d", sub.NumVertices(), sub.NumEdges())
	}
	if !reflect.DeepEqual(orig, []int{0, 1, 2}) {
		t.Errorf("orig mapping = %v", orig)
	}
	for i, o := range orig {
		if sub.Label(i) != g.Label(o) {
			t.Errorf("label mismatch at %d", i)
		}
	}
	// duplicate vertices collapse
	sub2, orig2 := g.InducedSubgraph([]int{3, 3, 2})
	if sub2.NumVertices() != 2 || sub2.NumEdges() != 1 {
		t.Errorf("dup-vertex induced: |V|=%d |E|=%d", sub2.NumVertices(), sub2.NumEdges())
	}
	if len(orig2) != 2 {
		t.Errorf("orig2 = %v", orig2)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	for i := 0; i < 6; i++ {
		g.AddVertex(1)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := g.ConnectedComponents()
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("components = %v, want %v", comps, want)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestBFSOrder(t *testing.T) {
	g := path(1, 1, 1, 1)
	got := g.BFSOrder(1)
	if !reflect.DeepEqual(got, []int{1, 0, 2, 3}) {
		t.Errorf("BFSOrder(1) = %v", got)
	}
	if g.BFSOrder(-1) != nil || g.BFSOrder(99) != nil {
		t.Error("out-of-range BFS start should return nil")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := path(1, 2, 3)
	g.adj[0] = append(g.adj[0], 0) // self loop
	if err := g.Validate(); err == nil {
		t.Error("Validate missed self-loop")
	}
	g2 := path(1, 2)
	g2.adj[0] = append(g2.adj[0], 5) // out of range
	if err := g2.Validate(); err == nil {
		t.Error("Validate missed out-of-range neighbour")
	}
	g3 := path(1, 2, 3)
	g3.edges = 7
	if err := g3.Validate(); err == nil {
		t.Error("Validate missed edge-count mismatch")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var gs []*Graph
	for i := 0; i < 20; i++ {
		g := randomGraph(rng, 1+rng.Intn(15), 0.3, 4)
		g.ID = i
		gs = append(gs, g)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, gs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(gs) {
		t.Fatalf("round trip count %d != %d", len(back), len(gs))
	}
	for i := range gs {
		if !equalGraphs(gs[i], back[i]) {
			t.Errorf("graph %d differs after round trip", i)
		}
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []string{
		"3\n1\n",                    // missing header
		"#x\n",                      // bad id
		"#1\n-1\n",                  // bad vertex count
		"#1\n2\n1\n",                // truncated labels
		"#1\n1\n5\nxx\n",            // bad edge count
		"#1\n2\n1\n2\n1\n0 0\n",     // self loop edge
		"#1\n2\n1\n2\n1\n0 5\n",     // out of range edge
		"#1\n2\n1\n2\n2\n0 1\n",     // truncated edges
		"#1\n2\n1\n2\n1\n0 1 2 3\n", // malformed edge line (4 fields)
		"#1\n2\n1\n2\n1\n0 1 x\n",   // bad edge label
	}
	for i, c := range cases {
		if _, err := ReadAll(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error for %q", i, c)
		}
	}
}

func TestCodecSkipsCommentsAndBlanks(t *testing.T) {
	in := "// a comment\n\n#7\n2\n\n4\n5\n1\n// edge next\n0 1\n"
	gs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 || gs[0].ID != 7 || gs[0].NumEdges() != 1 {
		t.Errorf("parsed %v", gs)
	}
}

func equalGraphs(a, b *Graph) bool {
	if a.ID != b.ID || a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Label(v) != b.Label(v) {
			return false
		}
	}
	return reflect.DeepEqual(edgeList(a), edgeList(b))
}

// randomGraph produces a connected-ish random graph for tests.
func randomGraph(rng *rand.Rand, n int, p float64, labels int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(Label(rng.Intn(labels)))
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

func TestFingerprintInvariantUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		g := randomGraph(rng, n, 0.4, 3)
		perm := rng.Perm(n)
		labels := make([]Label, n)
		for i := range labels {
			labels[perm[i]] = g.Label(i)
		}
		h := New(n)
		for _, l := range labels {
			h.AddVertex(l)
		}
		g.Edges(func(u, v int) { h.AddEdge(perm[u], perm[v]) })
		if Fingerprint(g) != Fingerprint(h) {
			t.Fatalf("trial %d: fingerprint not permutation-invariant", trial)
		}
		if !SameSignature(g, h) {
			t.Fatalf("trial %d: SameSignature failed on isomorphic pair", trial)
		}
	}
}

func TestFingerprintSeparatesLabels(t *testing.T) {
	a := path(1, 2, 3)
	b := path(1, 2, 4)
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("fingerprints collide on different labels (possible but indicates weak hash)")
	}
	if SameSignature(a, b) {
		t.Error("SameSignature true for different label sets")
	}
}

func TestSameSignatureRejectsDifferentDegrees(t *testing.T) {
	// path 0-1-2-3 vs star center 0
	p := path(1, 1, 1, 1)
	s := New(4)
	for i := 0; i < 4; i++ {
		s.AddVertex(1)
	}
	s.AddEdge(0, 1)
	s.AddEdge(0, 2)
	s.AddEdge(0, 3)
	if SameSignature(p, s) {
		t.Error("path and star share signature")
	}
}

func TestQuickInsertSortedKeepsOrder(t *testing.T) {
	f := func(xs []int32) bool {
		var a []int32
		for _, x := range xs {
			var at int
			a, at = insertSorted(a, x)
			if a[at] != x {
				return false
			}
		}
		for i := 1; i < len(a); i++ {
			if a[i-1] > a[i] {
				return false
			}
		}
		return len(a) == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSizeBytesMonotone(t *testing.T) {
	small := path(1, 2)
	big := path(1, 2, 3, 4, 5, 6, 7, 8)
	if small.SizeBytes() >= big.SizeBytes() {
		t.Errorf("SizeBytes not monotone: %d vs %d", small.SizeBytes(), big.SizeBytes())
	}
}

func TestStringer(t *testing.T) {
	g := path(1, 2)
	g.ID = 3
	if got := g.String(); !strings.Contains(got, "id=3") || !strings.Contains(got, "|V|=2") {
		t.Errorf("String() = %q", got)
	}
}

func TestSaveLoadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/graphs.db"
	rng := rand.New(rand.NewSource(77))
	var gs []*Graph
	for i := 0; i < 5; i++ {
		g := randomGraph(rng, 4+rng.Intn(6), 0.4, 3)
		g.ID = i
		gs = append(gs, g)
	}
	if err := SaveFile(path, gs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(gs) {
		t.Fatalf("round trip count %d != %d", len(back), len(gs))
	}
	for i := range gs {
		if !equalGraphs(gs[i], back[i]) {
			t.Errorf("graph %d differs after file round trip", i)
		}
	}
	// error paths
	if err := SaveFile(dir, gs); err == nil { // target is a directory
		t.Error("SaveFile to a directory should fail")
	}
	if _, err := LoadFile(dir + "/missing.db"); err == nil {
		t.Error("LoadFile of missing file should fail")
	}
}

func TestLabelsAccessor(t *testing.T) {
	g := path(4, 5, 6)
	ls := g.Labels()
	if !reflect.DeepEqual(ls, []Label{4, 5, 6}) {
		t.Errorf("Labels = %v", ls)
	}
	ls[0] = 99 // must be a copy
	if g.Label(0) != 4 {
		t.Error("Labels() leaked internal storage")
	}
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := path(1, 2)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) || g.HasEdge(99, 0) {
		t.Error("out-of-range HasEdge returned true")
	}
}

func TestSameSignatureEdgeCases(t *testing.T) {
	a := path(1, 2)
	b := path(1, 3)
	if SameSignature(a, b) {
		t.Error("different label histograms accepted")
	}
	// same counts, same degrees, different histogram sizes
	c := path(1, 1)
	d := path(1, 2)
	if SameSignature(c, d) {
		t.Error("different histogram cardinality accepted")
	}
}
