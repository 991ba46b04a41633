package ggsx

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/trie"
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

func dumpTrie(tr *trie.Trie) string {
	out := fmt.Sprintf("len=%d\n", tr.Len())
	tr.Walk(func(k string, ps []trie.Posting) {
		out += fmt.Sprintf("%q ->", k)
		for _, p := range ps {
			out += fmt.Sprintf(" {g=%d c=%d}", p.Graph, p.Count)
		}
		out += "\n"
	})
	return out
}

// TestParallelBuildDifferential pins the parallel build pipeline to the
// sequential one: for any shard count and worker count the built trie is
// bit-identical (keys, Walk order, postings, key count) and Filter returns
// identical candidates.
func TestParallelBuildDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := make([]*graph.Graph, 24)
	for i := range db {
		db[i] = randomGraph(rng, 8+rng.Intn(10), 0.25, 4)
	}
	queries := make([]*graph.Graph, 12)
	for i := range queries {
		queries[i] = randomGraph(rng, 3+rng.Intn(3), 0.5, 4)
	}

	ref := New(Options{MaxPathLen: 4, Shards: 1, BuildWorkers: 1})
	ref.Build(db)
	wantTrie := dumpTrie(ref.tr)

	for _, tc := range []struct{ shards, workers int }{
		{1, 4}, {4, 1}, {5, 3}, {8, 8}, {64, 2},
	} {
		x := New(Options{MaxPathLen: 4, Shards: tc.shards, BuildWorkers: tc.workers})
		x.Build(db)
		if got := dumpTrie(x.tr); got != wantTrie {
			t.Errorf("shards=%d workers=%d: trie diverges from sequential build", tc.shards, tc.workers)
		}
		for qi, q := range queries {
			want := ref.Filter(q)
			got := x.Filter(q)
			if len(want) != len(got) {
				t.Fatalf("shards=%d workers=%d query %d: Filter %v != %v", tc.shards, tc.workers, qi, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("shards=%d workers=%d query %d: Filter %v != %v", tc.shards, tc.workers, qi, got, want)
				}
			}
		}
	}
}

// TestBuildIdempotentSharded: a second Build over the same index (dictionary
// already populated) must reproduce the same sharded store.
func TestBuildIdempotentSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := make([]*graph.Graph, 10)
	for i := range db {
		db[i] = randomGraph(rng, 10, 0.3, 3)
	}
	x := New(Options{MaxPathLen: 4, Shards: 8, BuildWorkers: 4})
	x.Build(db)
	first := dumpTrie(x.tr)
	x.Build(db)
	if got := dumpTrie(x.tr); got != first {
		t.Error("rebuild over a warm dictionary diverged")
	}
}
