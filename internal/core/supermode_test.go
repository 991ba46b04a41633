package core_test

// §4.4 tests: iGQ accelerating *supergraph* query processing. The wrapped
// method is index/contain (dataset graphs contained in the query); the
// roles of Isub and Isuper invert, and so does the empty-answer optimal
// case. Correctness: answers must match the method alone, always.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/contain"
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

func TestSupergraphModeCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	// dataset of small graphs (supergraph queries retrieve contained graphs)
	db := make([]*graph.Graph, 25)
	for i := range db {
		db[i] = randomGraph(rng, 2+rng.Intn(4), 0.5, 3)
		db[i].ID = i
	}
	m := contain.New(contain.DefaultOptions())
	m.Build(db)
	igq := core.New(m, db, core.Options{
		CacheSize: 15, Window: 4, Mode: core.SupergraphQueries,
	})

	// queries: larger graphs, with nested families to exercise both paths
	var queries []*graph.Graph
	for i := 0; i < 60; i++ {
		q := randomGraph(rng, 4+rng.Intn(6), 0.4, 3)
		queries = append(queries, q)
		if i%3 == 0 && q.NumVertices() > 3 {
			sub, _ := q.InducedSubgraph(q.BFSOrder(0)[:3])
			queries = append(queries, sub)
		}
	}
	for i, q := range queries {
		want := index.Answer(m, q)
		got := igq.Query(q)
		if !reflect.DeepEqual(got.Answer, want) {
			t.Fatalf("query %d: iGQ answer %v != method %v (short=%v)",
				i, got.Answer, want, got.Short)
		}
	}
}

func TestSupergraphModeEmptyAnswerShortCircuit(t *testing.T) {
	// In supergraph mode the empty-answer case inverts (§4.4): if a cached
	// SUBquery of g — i.e. an Isub hit in paper terms means g ⊆ G... the
	// processing terminates when ∃G ∈ Isub(g) with Answer(G) = ∅: a cached
	// query G ⊇ g with no contained dataset graphs implies g (⊆ G) can
	// contain none either.
	rng := rand.New(rand.NewSource(62))
	db := make([]*graph.Graph, 10)
	for i := range db {
		db[i] = randomGraph(rng, 3, 0.6, 2) // labels {0,1} only
		db[i].ID = i
	}
	m := contain.New(contain.DefaultOptions())
	m.Build(db)
	igq := core.New(m, db, core.Options{
		CacheSize: 10, Window: 1, Mode: core.SupergraphQueries,
	})

	// cached big query on labels {50,51}: contains no dataset graph
	big := graph.New(4)
	big.AddVertex(50)
	big.AddVertex(51)
	big.AddVertex(50)
	big.AddVertex(51)
	big.AddEdge(0, 1)
	big.AddEdge(1, 2)
	big.AddEdge(2, 3)
	o1 := igq.Query(big)
	if len(o1.Answer) != 0 {
		t.Fatalf("big off-vocabulary query should contain nothing, got %v", o1.Answer)
	}

	// now a subgraph of big: must short-circuit via the inverted rule
	small, _ := big.InducedSubgraph([]int{0, 1, 2})
	o2 := igq.Query(small)
	if o2.Short != core.EmptyAnswerHit {
		t.Fatalf("subgraph of empty-answer superquery not short-circuited: %+v", o2)
	}
	if len(o2.Answer) != 0 || o2.DatasetIsoTests != 0 {
		t.Errorf("short-circuit outcome wrong: %+v", o2)
	}
}

func TestSupergraphModeIdenticalHit(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	db := make([]*graph.Graph, 12)
	for i := range db {
		db[i] = randomGraph(rng, 2+rng.Intn(3), 0.5, 3)
		db[i].ID = i
	}
	m := contain.New(contain.DefaultOptions())
	m.Build(db)
	igq := core.New(m, db, core.Options{
		CacheSize: 10, Window: 1, Mode: core.SupergraphQueries,
	})
	q := randomGraph(rng, 6, 0.4, 3)
	first := igq.Query(q)
	second := igq.Query(q.Clone())
	if second.Short != core.IdenticalHit {
		t.Fatalf("repeat supergraph query not short-circuited: %+v", second)
	}
	if !reflect.DeepEqual(first.Answer, second.Answer) {
		t.Error("identical hit answer mismatch")
	}
}

func TestContainMethodAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	db := make([]*graph.Graph, 20)
	for i := range db {
		db[i] = randomGraph(rng, 2+rng.Intn(4), 0.5, 3)
		db[i].ID = i
	}
	m := contain.New(contain.DefaultOptions())
	m.Build(db)
	if m.Name() != "Contain" {
		t.Error("name")
	}
	if m.SizeBytes() <= 0 {
		t.Error("size")
	}
	for trial := 0; trial < 30; trial++ {
		q := randomGraph(rng, 3+rng.Intn(5), 0.45, 3)
		got := index.Answer(m, q)
		var want []int32
		for i, g := range db {
			// supergraph query: which dataset graphs are contained in q
			if g.NumEdges() <= q.NumEdges() && containsRef(g, q) {
				want = append(want, int32(i))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

// containsRef is a local brute-force d ⊆ q oracle.
func containsRef(d, q *graph.Graph) bool {
	return bruteSub(d, q)
}

func bruteSub(p, t *graph.Graph) bool {
	np, nt := p.NumVertices(), t.NumVertices()
	if np == 0 {
		return true
	}
	if np > nt {
		return false
	}
	mapping := make([]int, np)
	used := make([]bool, nt)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == np {
			return true
		}
		for c := 0; c < nt; c++ {
			if used[c] || p.Label(i) != t.Label(c) {
				continue
			}
			ok := true
			for _, w := range p.Neighbors(i) {
				if int(w) < i && !t.HasEdge(c, mapping[w]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapping[i] = c
			used[c] = true
			if rec(i + 1) {
				return true
			}
			used[c] = false
		}
		return false
	}
	return rec(0)
}
