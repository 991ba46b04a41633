package grapes

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
)

// triangleDB returns one dataset graph: a labeled triangle 1-2-3.
func triangleDB() []*graph.Graph {
	g := graph.New(3)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	return []*graph.Graph{g}
}

// A caller that mutates a query graph in place between calls must get the
// mutated query tested — the regression that once hit a pointer-keyed
// query-feature memo. Nothing is memoised per query any more: Verify
// compiles the query it is handed and Prepare compiles it at that moment, so
// both see the graph as it is now, while a handle prepared earlier keeps
// testing the query as it was.
func TestVerifyAfterInPlaceMutation(t *testing.T) {
	x := New(Options{MaxPathLen: 4})
	x.Build(triangleDB())
	both := func(q *graph.Graph) (plain, prepared bool) {
		return x.Verify(q, 0), x.Prepare(q).Verify(0)
	}

	q := graph.New(2)
	q.AddVertex(1)
	if a, b := both(q); !a || !b {
		t.Fatal("single label-1 vertex should embed in the triangle")
	}
	before := x.Prepare(q)

	// Mutate q in place: it is now the edge 1-2, still a subgraph of the
	// triangle.
	q.AddVertex(2)
	q.AddEdge(0, 1)
	if a, b := both(q); !a || !b {
		t.Error("edge 1-2 should embed in the triangle after in-place mutation")
	}

	// And a mutation that makes the query unsatisfiable must not ride a
	// stale positive either.
	q.AddVertex(9) // now the path 1-2-9: label 9 is nowhere in the dataset
	q.AddEdge(1, 2)
	if a, b := both(q); a || b {
		t.Error("path 1-2-9 must not embed in the triangle after the mutation")
	}
	if !before.Verify(0) {
		t.Error("a handle prepared before the mutation must keep its query")
	}
}

// TestPreparedHandleSharedAcrossGoroutines: one prepared handle tested from
// several goroutines at once, while other goroutines prepare and test other
// queries on the same index, always agrees with the sequential answer. Run
// with -race: a handle is immutable and every test draws its own state.
func TestPreparedHandleSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := make([]*graph.Graph, 24)
	for i := range db {
		db[i] = randomGraph(rng, 10+rng.Intn(6), 0.3, 3)
	}
	x := New(Options{MaxPathLen: 4, Threads: 1})
	x.Build(db)
	queries := make([]*graph.Graph, 6)
	want := make([][]bool, len(queries))
	for i := range queries {
		queries[i] = randomGraph(rng, 3+rng.Intn(3), 0.5, 3)
		want[i] = make([]bool, len(db))
		for id := range db {
			want[i][id] = iso.Reference(queries[i], db[id])
		}
	}
	shared := x.Prepare(queries[0])
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				qi, h := 0, shared
				if w >= 4 { // two goroutines keep preparing the other queries
					qi = 1 + (w+round)%(len(queries)-1)
					h = x.Prepare(queries[qi])
				}
				for id := range db {
					if got := h.Verify(int32(id)); got != want[qi][id] {
						t.Errorf("goroutine %d: query %d graph %d = %v, want %v", w, qi, id, got, want[qi][id])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// Same vocabulary-leak regression as ggsx: re-Build on a disjoint dataset
// keeps the dictionary object but not the dead vocabulary.
func TestRebuildDoesNotLeakVocabulary(t *testing.T) {
	mk := func(base graph.Label) []*graph.Graph {
		g := graph.New(3)
		g.AddVertex(base)
		g.AddVertex(base + 1)
		g.AddVertex(base + 2)
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		return []*graph.Graph{g}
	}
	x := New(Options{MaxPathLen: 3})
	dict := x.FeatureDict()
	x.Build(mk(1))
	fresh := New(Options{MaxPathLen: 3})
	fresh.Build(mk(50))
	x.Build(mk(50))
	if x.FeatureDict() != dict {
		t.Fatal("Build replaced the shared dictionary object")
	}
	if got, want := dict.Len(), fresh.FeatureDict().Len(); got != want {
		t.Errorf("dict after re-Build holds %d keys, want %d", got, want)
	}
}
