package grapes

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
)

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

func TestEnumerateParallelEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := []*graph.Graph{randomGraph(rng, 40, 0.15, 4), randomGraph(rng, 30, 0.2, 4), randomGraph(rng, 25, 0.2, 3)}
	// Three graphs are too few for six build workers, so Grapes(6) splits
	// each graph's start vertices over six goroutines instead (reusing
	// their scratches from graph to graph).
	seq := New(Options{MaxPathLen: 4, Threads: 1})
	par := New(Options{MaxPathLen: 4, Threads: 6})
	seq.Build(db)
	par.Build(db)
	if a, b := dumpTrie(seq.Trie()), dumpTrie(par.Trie()); a != b {
		t.Fatalf("per-vertex-range enumeration diverges from the sequential one:\n%s\nvs\n%s", b, a)
	}
}

func TestSmallGraphSkipsParallelism(t *testing.T) {
	// graphs smaller than 2×threads take the sequential path; behaviour
	// must be identical
	g := graph.New(3)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	x := New(Options{MaxPathLen: 4, Threads: 8})
	x.Build([]*graph.Graph{g})
	if cs := x.Filter(g); len(cs) != 1 {
		t.Errorf("self-query CS = %v", cs)
	}
	if !x.Verify(g, 0) {
		t.Error("self verification failed")
	}
}

// TestVerifyUsesLocationsCorrectly dates from location-restricted
// verification: two far-apart regions carry the same labels and the pattern
// lives in only one. Verification tests the dataset graph itself, so what
// is pinned is the contract — Verify and a prepared handle agree with
// iso.Reference on these graphs, for connected and disconnected patterns.
func TestVerifyUsesLocationsCorrectly(t *testing.T) {
	g := graph.New(8)
	// region A: triangle of label 1 (vertices 0-2)
	for i := 0; i < 3; i++ {
		g.AddVertex(1)
	}
	// bridge of label 9
	g.AddVertex(9)
	g.AddVertex(9)
	// region B: path of label 1 (vertices 5-7)
	for i := 0; i < 3; i++ {
		g.AddVertex(1)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	mk := func(labels []graph.Label, edges ...[2]int) *graph.Graph {
		q := graph.New(len(labels))
		for _, l := range labels {
			q.AddVertex(l)
		}
		for _, e := range edges {
			q.AddEdge(e[0], e[1])
		}
		return q
	}
	ones := func(n int) []graph.Label { return slices.Repeat([]graph.Label{1}, n) }
	patterns := map[string]*graph.Graph{
		"triangle (region A only)":  mk(ones(3), [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}),
		"square (nowhere)":          mk(ones(4), [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{0, 3}),
		"4-path (across no bridge)": mk(ones(4), [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}),
		"bridge 1-9-9-1":            mk([]graph.Label{1, 9, 9, 1}, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}),
		"two edges, one per region": mk(ones(4), [2]int{0, 1}, [2]int{2, 3}),
		"six isolated 1s":           mk(ones(6)),
		"unknown label":             mk([]graph.Label{1, 5}, [2]int{0, 1}),
		"empty":                     mk(nil),
	}
	x := New(Options{MaxPathLen: 4, Threads: 1})
	x.Build([]*graph.Graph{g})
	positives := 0
	for name, q := range patterns {
		want := iso.Reference(q, g)
		if want {
			positives++
		}
		if got := x.Verify(q, 0); got != want {
			t.Errorf("%s: Verify = %v, oracle %v", name, got, want)
		}
		if got := x.Prepare(q).Verify(0); got != want {
			t.Errorf("%s: prepared Verify = %v, oracle %v", name, got, want)
		}
	}
	if positives != 5 {
		t.Errorf("%d of the patterns embed, the test was written for 5", positives)
	}
}

func TestThreadsNormalised(t *testing.T) {
	if n := New(Options{Threads: 0}).Name(); n != "Grapes" {
		t.Errorf("Threads 0 names the index %q, want Grapes (one thread)", n)
	}
}

func TestNameAndSizeInPackage(t *testing.T) {
	x := New(Options{MaxPathLen: 4, Threads: 1})
	if x.Name() != "Grapes" {
		t.Errorf("Name = %q", x.Name())
	}
	x6 := New(Options{MaxPathLen: 4, Threads: 6})
	if x6.Name() != "Grapes(6)" {
		t.Errorf("Name = %q", x6.Name())
	}
	rng := rand.New(rand.NewSource(6))
	db := []*graph.Graph{randomGraph(rng, 10, 0.3, 3)}
	x.Build(db)
	if x.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive after Build")
	}
}
