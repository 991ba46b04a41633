package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/iso"
	"repro/internal/trie"
)

func TestContainmentNoFalseNegatives(t *testing.T) {
	// Algorithm 2's candidate set must contain every indexed graph that is
	// truly a subgraph of the query (paper §6.2 proof, executable form).
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 25; trial++ {
		ci := NewContainmentIndex(4)
		var indexed []*graph.Graph
		for i := 0; i < 12; i++ {
			g := randomGraph(rng, 2+rng.Intn(5), 0.4, 3)
			indexed = append(indexed, g)
			ci.Add(int32(i), g)
		}
		q := randomGraph(rng, 4+rng.Intn(5), 0.4, 3)
		cs := map[int32]bool{}
		for _, id := range ci.CandidateSubgraphs(q) {
			cs[id] = true
		}
		for i, g := range indexed {
			if iso.Reference(g, q) && !cs[int32(i)] {
				t.Fatalf("trial %d: indexed graph %d ⊆ query but not in CS", trial, i)
			}
		}
	}
}

func TestContainmentOccurrenceCountFilter(t *testing.T) {
	// a graph needing two occurrences of a feature must not be a candidate
	// for a query that has only one
	ci := NewContainmentIndex(4)
	twoEdges := graph.New(4) // two disjoint 1-2 edges
	twoEdges.AddVertex(1)
	twoEdges.AddVertex(2)
	twoEdges.AddVertex(1)
	twoEdges.AddVertex(2)
	twoEdges.AddEdge(0, 1)
	twoEdges.AddEdge(2, 3)
	ci.Add(0, twoEdges)

	oneEdge := graph.New(2)
	oneEdge.AddVertex(1)
	oneEdge.AddVertex(2)
	oneEdge.AddEdge(0, 1)
	if cs := ci.CandidateSubgraphs(oneEdge); len(cs) != 0 {
		t.Errorf("occurrence filter failed: CS=%v", cs)
	}
	// but a query with both edges qualifies
	if cs := ci.CandidateSubgraphs(twoEdges); len(cs) != 1 {
		t.Errorf("self query: CS=%v", cs)
	}
}

func TestContainmentEmptyIndexedGraph(t *testing.T) {
	ci := NewContainmentIndex(4)
	ci.Add(7, graph.New(0))
	q := randomGraph(rand.New(rand.NewSource(1)), 4, 0.5, 2)
	cs := ci.CandidateSubgraphs(q)
	if len(cs) != 1 || cs[0] != 7 {
		t.Errorf("empty graph must be everyone's subgraph candidate: %v", cs)
	}
}

func TestContainmentLenAndSize(t *testing.T) {
	ci := NewContainmentIndex(4)
	if ci.Len() != 0 {
		t.Error("fresh index non-empty")
	}
	ci.Add(0, tinyGraph())
	ci.Add(1, tinyGraph())
	if ci.Len() != 2 {
		t.Errorf("Len = %d", ci.Len())
	}
	if ci.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

func TestContainmentExactSelfHit(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		ci := NewContainmentIndex(4)
		g := randomGraph(rng, 3+rng.Intn(5), 0.4, 3)
		ci.Add(0, g)
		cs := ci.CandidateSubgraphs(g)
		if len(cs) != 1 || cs[0] != 0 {
			t.Fatalf("trial %d: graph not a candidate subgraph of itself: %v", trial, cs)
		}
	}
}

// containsByDefinition is Algorithm 2's contract written from the paper:
// the positions of db whose every feature occurs in q at least as often,
// {g : ∀f ∈ g, cnt_g(f) ≤ cnt_q(f)}, over canonical keys.
func containsByDefinition(db []*graph.Graph, q *graph.Graph, popt features.PathOptions) []int32 {
	qc := features.Paths(q, popt).Counts
	var want []int32
	for i, g := range db {
		fits := true
		for k, c := range features.Paths(g, popt).Counts {
			fits = fits && c <= qc[k]
		}
		if fits {
			want = append(want, int32(i))
		}
	}
	return want
}

// stagedFeatures is one graph's features as mutation records.
func stagedFeatures(g *graph.Graph, popt features.PathOptions) []trie.GraphFeature {
	var out []trie.GraphFeature
	for k, c := range features.Paths(g, popt).Counts {
		out = append(out, trie.GraphFeature{Key: k, Count: int32(c)})
	}
	return out
}

// TestContainmentCountingStrategiesMatchDefinition runs both counting
// strategies of the NF-gated Algorithm 2 directly — the per-graph probes
// and the posting walk — and the gated entry point, against the definition,
// over a dataset with repeated features (counts > 1), the empty graph and a
// featureless vertex (NF 0), queries with labels the dictionary never saw,
// queries larger than every graph, and a chain of append and swap-removal
// generations staged the way contain.AppendGraphs/RemoveGraphs stage them.
func TestContainmentCountingStrategiesMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	popt := features.PathOptions{MaxLen: 3}
	vertex := graph.New(1)
	vertex.AddVertex(1)
	db := []*graph.Graph{graph.New(0), vertex}
	for len(db) < 40 {
		db = append(db, randomGraph(rng, 2+rng.Intn(5), 0.5, 2))
	}
	ci := NewContainmentIndex(popt.MaxLen)
	for i, g := range db {
		ci.Add(int32(i), g)
	}
	chose := map[bool]int{}
	check := func(gen int) {
		t.Helper()
		queries := []*graph.Graph{graph.New(0), vertex, db[len(db)-1]}
		for i := 0; i < 12; i++ {
			queries = append(queries, randomGraph(rng, 2+rng.Intn(4), 0.6, 2)) // small
		}
		for i := 0; i < 4; i++ {
			queries = append(queries, randomGraph(rng, 10, 0.5, 2)) // larger than every graph
			queries = append(queries, randomGraph(rng, 5, 0.6, 4))  // labels 2, 3 unseen
		}
		s := &ciScratch{feat: features.NewScratch()}
		for qi, q := range queries {
			want := containsByDefinition(db, q, popt)
			qf := features.PathsID(q, popt, ci.Dict(), s.feat, false)
			elig, lists, postings := ci.gate(qf, s)
			chose[len(elig)*len(lists) < postings]++
			for name, got := range map[string][]int32{
				"probes": ci.countByProbes(qf, lists, elig),
				"walk":   ci.countByWalk(qf, lists, elig, s),
				"gated":  ci.CandidatesFromIDSet(qf),
			} {
				if !slices.Equal(got, want) {
					t.Fatalf("generation %d query %d: %s = %v, definition %v", gen, qi, name, got, want)
				}
			}
		}
	}
	check(0)
	for gen := 1; gen <= 8; gen++ {
		mut := ci.NewMutation()
		if gen%2 == 1 {
			gs := []*graph.Graph{randomGraph(rng, 2+rng.Intn(4), 0.5, 3), graph.New(0)}
			nf := ci.NFTable(len(gs))
			for _, g := range gs {
				feats := stagedFeatures(g, popt)
				mut.AppendGraph(int32(len(nf)), feats)
				nf = append(nf, int32(len(feats)))
			}
			ci, db = ci.ApplyMutation(mut, nf), append(db, gs...)
		} else {
			ndb, steps, _, err := index.SwapRemove(db, []int{rng.Intn(len(db)), 0})
			if err != nil {
				t.Fatal(err)
			}
			nf := ci.NFTable(0)
			for _, st := range steps {
				var scrub []string
				for _, f := range stagedFeatures(st.RemovedGraph, popt) {
					scrub = append(scrub, f.Key)
				}
				var swapped []trie.GraphFeature
				if st.SwappedGraph != nil {
					swapped = stagedFeatures(st.SwappedGraph, popt)
				}
				mut.RemoveGraph(st.Removed, st.SwappedFrom, scrub, swapped)
				nf[st.Removed] = nf[st.SwappedFrom]
				nf = nf[:st.SwappedFrom]
			}
			ci, db = ci.ApplyMutation(mut, nf), ndb
		}
		check(gen)
	}
	if chose[true] == 0 || chose[false] == 0 {
		t.Errorf("the cost choice never varied (probes %d, walk %d): both strategies must be exercised", chose[true], chose[false])
	}
}
