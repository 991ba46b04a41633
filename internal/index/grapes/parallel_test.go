package grapes

import (
	"fmt"
	"testing"

	"math/rand"

	"repro/internal/graph"
	"repro/internal/trie"
)

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

// TestParallelBuildDifferential pins the graph-level parallel build to the
// sequential one, across shard counts and worker counts, down to identical
// Verify decisions.
func TestParallelBuildDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := make([]*graph.Graph, 18)
	for i := range db {
		db[i] = randomGraph(rng, 8+rng.Intn(10), 0.25, 4)
	}
	queries := make([]*graph.Graph, 10)
	for i := range queries {
		queries[i] = randomGraph(rng, 3+rng.Intn(3), 0.6, 4)
	}

	ref := New(Options{MaxPathLen: 4, Threads: 1, Shards: 1, BuildWorkers: 1})
	ref.Build(db)
	wantTrie := dumpTrie(ref.Trie())

	for _, tc := range []struct{ shards, workers int }{
		{1, 8}, {8, 1}, {8, 8}, {3, 5},
	} {
		x := New(Options{MaxPathLen: 4, Threads: 1, Shards: tc.shards, BuildWorkers: tc.workers})
		x.Build(db)
		if got := dumpTrie(x.Trie()); got != wantTrie {
			t.Errorf("shards=%d workers=%d: trie diverges from sequential build", tc.shards, tc.workers)
		}
		for qi, q := range queries {
			want, got := ref.Filter(q), x.Filter(q)
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("shards=%d workers=%d query %d: Filter %v != %v", tc.shards, tc.workers, qi, got, want)
			}
			for _, id := range want {
				if ref.Verify(q, id) != x.Verify(q, id) {
					t.Fatalf("shards=%d workers=%d query %d: Verify(%d) diverges", tc.shards, tc.workers, qi, id)
				}
			}
		}
	}
}

// TestLegacyThreadsPathMatchesWorkers: the per-vertex-range strategy
// (BuildWorkers=1, Threads>1 — also chosen automatically when the dataset
// is smaller than 2×BuildWorkers) and the graph-level fan-out must produce
// the same index.
func TestLegacyThreadsPathMatchesWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := make([]*graph.Graph, 12) // ≥ 2×BuildWorkers, so fan-out engages
	for i := range db {
		db[i] = randomGraph(rng, 30, 0.15, 3)
	}
	legacy := New(Options{MaxPathLen: 4, Threads: 6, BuildWorkers: 1, Shards: 4})
	legacy.Build(db)
	fanout := New(Options{MaxPathLen: 4, Threads: 6, Shards: 4}) // BuildWorkers = Threads
	fanout.Build(db)
	if a, b := dumpTrie(legacy.Trie()), dumpTrie(fanout.Trie()); a != b {
		t.Error("legacy per-vertex-range build diverges from graph-level fan-out")
	}
	// A dataset smaller than 2×BuildWorkers routes through the per-vertex
	// split automatically — and must still match a forced fan-out build.
	small := db[:3]
	auto := New(Options{MaxPathLen: 4, Threads: 6, Shards: 4})
	auto.Build(small)
	forced := New(Options{MaxPathLen: 4, Threads: 1, BuildWorkers: 6, Shards: 4})
	forced.Build(small)
	if a, b := dumpTrie(auto.Trie()), dumpTrie(forced.Trie()); a != b {
		t.Error("small-dataset per-vertex build diverges from forced fan-out")
	}
}
