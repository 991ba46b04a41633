package contain

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/iso"
)

// containsByDefinition is Algorithm 2's contract written from the paper:
// the positions of db whose every feature occurs in q at least as often,
// {g : ∀f ∈ g, cnt_g(f) ≤ cnt_q(f)}, over canonical keys.
func containsByDefinition(db []*graph.Graph, q *graph.Graph, popt features.PathOptions) []int32 {
	qc := pathKeyCounts(q, popt)
	var want []int32
	for i, g := range db {
		fits := true
		for k, c := range pathKeyCounts(g, popt) {
			fits = fits && c <= qc[k]
		}
		if fits {
			want = append(want, int32(i))
		}
	}
	return want
}

// pathKeyCounts is g's path-feature multiset by canonical key: PathsID over
// a private dictionary, which knows every key, rendered back with Dict.Key.
func pathKeyCounts(g *graph.Graph, popt features.PathOptions) map[string]int {
	d := features.NewDict()
	out := make(map[string]int)
	for _, f := range features.PathsID(g, popt, d, features.NewScratch(), true).Counts {
		out[d.Key(f.ID)] = int(f.Count)
	}
	return out
}

// TestContainmentCountingStrategiesMatchDefinition runs both counting
// strategies of the NF-gated Algorithm 2 directly — the per-graph probes
// and the posting walk — and the gated entry point, against the definition,
// over a dataset with repeated features (counts > 1), the empty graph and a
// single vertex, queries with labels the dictionary never saw, queries
// larger than every graph, and a chain of append and swap-removal
// generations of the store (NF recorded by the build, then carried by each
// mutation), then once more on the last generation saved and loaded (NF
// counted from the postings).
func TestContainmentCountingStrategiesMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	popt := features.PathOptions{MaxLen: 3}
	vertex := graph.New(1)
	vertex.AddVertex(1)
	db := []*graph.Graph{graph.New(0), vertex}
	for len(db) < 40 {
		db = append(db, randomGraph(rng, 2+rng.Intn(5), 0.5, 2))
	}
	x := New(Options{MaxPathLen: popt.MaxLen})
	x.Build(db)
	chose := map[bool]int{}
	check := func(gen int, x *Index) {
		t.Helper()
		queries := []*graph.Graph{graph.New(0), vertex, db[len(db)-1]}
		for i := 0; i < 12; i++ {
			queries = append(queries, randomGraph(rng, 2+rng.Intn(4), 0.6, 2)) // small
		}
		for i := 0; i < 4; i++ {
			queries = append(queries, randomGraph(rng, 10, 0.5, 2)) // larger than every graph
			queries = append(queries, randomGraph(rng, 5, 0.6, 4))  // labels 2, 3 unseen
		}
		s := &scratch{feat: features.NewScratch()}
		nf := x.store.NF()
		for qi, q := range queries {
			want := containsByDefinition(db, q, popt)
			qf := features.PathsID(q, popt, x.FeatureDict(), s.feat, false)
			elig, lists, postings := gate(x.store.Trie(), nf, qf, s)
			chose[len(elig)*len(lists) < postings]++
			for name, got := range map[string][]int32{
				"probes": countByProbes(nf, qf, lists, elig),
				"walk":   countByWalk(nf, qf, lists, elig, s),
				"gated":  x.FilterByFeatureCounts(qf),
			} {
				if !slices.Equal(got, want) {
					t.Fatalf("generation %d query %d: %s = %v, definition %v", gen, qi, name, got, want)
				}
			}
		}
	}
	check(0, x)
	for gen := 1; gen <= 8; gen++ {
		var next index.Mutable
		var err error
		if gen%2 == 1 {
			next, db, err = x.AppendGraphs([]*graph.Graph{randomGraph(rng, 2+rng.Intn(4), 0.5, 3), graph.New(0)})
		} else {
			next, db, _, err = x.RemoveGraphs([]int{rng.Intn(len(db)), 0})
		}
		if err != nil {
			t.Fatal(err)
		}
		x = next.(*Index)
		check(gen, x)
	}
	var buf bytes.Buffer
	if err := x.store.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New(Options{MaxPathLen: popt.MaxLen})
	if _, err := loaded.store.LoadIndex(&buf, db); err != nil {
		t.Fatal(err)
	}
	check(9, loaded)
	if chose[true] == 0 || chose[false] == 0 {
		t.Errorf("the cost choice never varied (probes %d, walk %d): both strategies must be exercised", chose[true], chose[false])
	}
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

func TestFilterNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := make([]*graph.Graph, 20)
	for i := range db {
		db[i] = randomGraph(rng, 2+rng.Intn(4), 0.5, 3)
	}
	x := New(DefaultOptions())
	x.Build(db)
	for trial := 0; trial < 30; trial++ {
		q := randomGraph(rng, 4+rng.Intn(5), 0.4, 3)
		cs := map[int32]bool{}
		for _, id := range x.Filter(q) {
			cs[id] = true
		}
		for i, g := range db {
			if iso.Reference(g, q) && !cs[int32(i)] {
				t.Fatalf("trial %d: contained graph %d missing from CS", trial, i)
			}
		}
	}
}

// TestLoadedNFCountedOnceUnderConcurrentReads: a loaded store counts NF
// from its postings on the first supergraph read; readers racing to be
// first must all answer like a built store. Run with -race.
func TestLoadedNFCountedOnceUnderConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	db := make([]*graph.Graph, 30)
	for i := range db {
		db[i] = randomGraph(rng, 2+rng.Intn(4), 0.5, 3)
	}
	queries := make([]*graph.Graph, 8)
	for i := range queries {
		queries[i] = randomGraph(rng, 5+rng.Intn(4), 0.4, 3)
	}
	built := New(DefaultOptions())
	built.Build(db)
	var buf bytes.Buffer
	if err := built.store.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New(DefaultOptions())
	if _, err := loaded.store.LoadIndex(&buf, db); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for _, q := range queries {
				if got, want := loaded.Filter(q), built.Filter(q); !slices.Equal(got, want) {
					t.Errorf("loaded store: Filter %v, built store %v", got, want)
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestRebuildIsIdempotent(t *testing.T) {
	// Build must reset the index (keeping the shared dictionary): a second
	// Build used to double posting counts, dropping valid candidates.
	rng := rand.New(rand.NewSource(43))
	db := make([]*graph.Graph, 12)
	for i := range db {
		db[i] = randomGraph(rng, 2+rng.Intn(4), 0.5, 3)
	}
	x := New(DefaultOptions())
	dict := x.FeatureDict()
	x.Build(db)
	q := randomGraph(rng, 7, 0.5, 3)
	want := x.Filter(q)
	x.Build(db)
	got := x.Filter(q)
	if len(got) != len(want) {
		t.Fatalf("Filter after rebuild = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Filter after rebuild = %v, want %v", got, want)
		}
	}
	if x.FeatureDict() != dict {
		t.Error("rebuild replaced the shared dictionary")
	}
}

func TestVerifyDirectionInverted(t *testing.T) {
	small := randomGraph(rand.New(rand.NewSource(1)), 3, 1, 1) // triangle, label 0
	x := New(DefaultOptions())
	x.Build([]*graph.Graph{small})
	big := randomGraph(rand.New(rand.NewSource(2)), 6, 0.8, 1)
	// Verify must test db[0] ⊆ q, not q ⊆ db[0]
	want := iso.Subgraph(small, big)
	if got := x.Verify(big, 0); got != want {
		t.Errorf("Verify = %v, want %v (inverted direction)", got, want)
	}
}

func TestOptionsAndName(t *testing.T) {
	x := New(Options{})
	if x.FeatureMaxPathLen() != 4 {
		t.Errorf("default MaxPathLen = %d", x.FeatureMaxPathLen())
	}
	if x.Name() != "Contain" {
		t.Errorf("name = %q", x.Name())
	}
	if DefaultOptions().MaxPathLen != 4 {
		t.Error("DefaultOptions drifted")
	}
}

func TestSizePositiveAfterBuild(t *testing.T) {
	x := New(DefaultOptions())
	x.Build([]*graph.Graph{randomGraph(rand.New(rand.NewSource(3)), 5, 0.5, 2)})
	if x.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}
