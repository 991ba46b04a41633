package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/iso"
)

func tinyGraph() *graph.Graph {
	g := graph.New(2)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(0, 1)
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

func connectedQuery(rng *rand.Rand, g *graph.Graph, k int) *graph.Graph {
	if g.NumVertices() == 0 {
		return graph.New(0)
	}
	order := g.BFSOrder(rng.Intn(g.NumVertices()))
	if len(order) > k {
		order = order[:k]
	}
	sub, _ := g.InducedSubgraph(order)
	return sub
}

func buildDB(rng *rand.Rand, n int) []*graph.Graph {
	db := make([]*graph.Graph, n)
	for i := range db {
		db[i] = randomGraph(rng, 6+rng.Intn(8), 0.3, 4)
		db[i].ID = i
	}
	return db
}

// workload generates queries with deliberate containment relationships:
// nested BFS prefixes of the same regions, plus repeats.
func workload(rng *rand.Rand, db []*graph.Graph, n int) []*graph.Graph {
	var qs []*graph.Graph
	for len(qs) < n {
		g := db[rng.Intn(len(db))]
		if g.NumVertices() == 0 {
			continue
		}
		order := g.BFSOrder(rng.Intn(g.NumVertices()))
		// a nested family: prefixes of the same BFS order
		for _, k := range []int{2, 3, 5} {
			if len(qs) == n {
				break
			}
			kk := k
			if kk > len(order) {
				kk = len(order)
			}
			sub, _ := g.InducedSubgraph(order[:kk])
			qs = append(qs, sub)
		}
		if len(qs) < n && len(qs) > 2 && rng.Float64() < 0.3 {
			qs = append(qs, qs[rng.Intn(len(qs))].Clone()) // exact repeat
		}
	}
	return qs[:n]
}

// TestTheorem1And2: iGQ's answers must equal the wrapped method's answers
// for every query in a workload rich in containment relationships — the
// executable form of the paper's correctness theorems. The second, tiny
// cache evicts at nearly every flush.
func TestTheorem1And2(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := buildDB(rng, 30)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{CacheSize: 20, Window: 5})
	small := New(m, db, Options{CacheSize: 10, Window: 3})

	for i, q := range workload(rng, db, 120) {
		want := index.Answer(m, q)
		for _, ig := range []*IGQ{igq, small} {
			got := ig.Query(q.Clone())
			if !reflect.DeepEqual(got.Answer, want) {
				t.Fatalf("query %d (C=%d): iGQ answer %v != method answer %v\nshort=%v subhits=%d superhits=%d",
					i, ig.opt.CacheSize, got.Answer, want, got.Short, got.SubHits, got.SuperHits)
			}
		}
	}
	if igq.Flushes() == 0 || small.Flushes() == 0 {
		t.Error("no window flushes happened — replacement path untested")
	}
}

func TestIdenticalQueryShortCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	db := buildDB(rng, 15)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{CacheSize: 10, Window: 2})

	q := connectedQuery(rng, db[3], 4)
	first := igq.Query(q)
	igq.Query(connectedQuery(rng, db[5], 3)) // trigger flush (W=2)

	second := igq.Query(q.Clone())
	if second.Short != IdenticalHit {
		t.Fatalf("repeat query not short-circuited: %+v", second)
	}
	if second.DatasetIsoTests != 0 {
		t.Errorf("identical hit ran %d dataset tests", second.DatasetIsoTests)
	}
	if !reflect.DeepEqual(first.Answer, second.Answer) {
		t.Errorf("identical hit returned different answer: %v vs %v", first.Answer, second.Answer)
	}
}

func TestEmptyAnswerShortCircuit(t *testing.T) {
	// dataset where no graph contains label 99; a cached query with label
	// 99 has an empty answer; any supergraph of it must short-circuit.
	db := buildDB(rand.New(rand.NewSource(73)), 10)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{CacheSize: 10, Window: 1}) // immediate flush

	small := graph.New(2)
	small.AddVertex(99)
	small.AddVertex(99)
	small.AddEdge(0, 1)
	o1 := igq.Query(small)
	if len(o1.Answer) != 0 {
		t.Fatalf("label-99 query should have empty answer, got %v", o1.Answer)
	}

	big := graph.New(3)
	big.AddVertex(99)
	big.AddVertex(99)
	big.AddVertex(99)
	big.AddEdge(0, 1)
	big.AddEdge(1, 2)
	o2 := igq.Query(big)
	if o2.Short != EmptyAnswerHit {
		t.Fatalf("supergraph of empty-answer query not short-circuited: %+v", o2)
	}
	if o2.DatasetIsoTests != 0 || len(o2.Answer) != 0 {
		t.Errorf("empty-answer hit: tests=%d answer=%v", o2.DatasetIsoTests, o2.Answer)
	}
}

func TestSubgraphPathPrunesAndRestores(t *testing.T) {
	// Craft: cached query G with known answer; then a subquery g ⊆ G.
	// g's candidates that are in Answer(G) must be skipped but present in
	// the final answer.
	rng := rand.New(rand.NewSource(74))
	db := buildDB(rng, 20)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{CacheSize: 10, Window: 1})

	// big cached query: 5-vertex region
	gBig := connectedQuery(rng, db[2], 5)
	oBig := igq.Query(gBig)

	// subquery: BFS prefix of the same region (3 vertices)
	order := db[2].BFSOrder(0)
	_ = order
	sub, _ := gBig.InducedSubgraph(gBig.BFSOrder(0)[:3])
	if !iso.Subgraph(sub, gBig) {
		t.Fatal("test construction broken: sub not ⊆ big")
	}
	oSub := igq.Query(sub)
	if oSub.SubHits == 0 {
		t.Fatalf("no Isub hit for nested query (big answer=%v)", oBig.Answer)
	}
	if oSub.Short == NoShortCircuit && len(oBig.Answer) > 0 &&
		oSub.DatasetIsoTests >= oSub.BaseCandidates {
		t.Errorf("Isub hit did not reduce tests: %d of %d", oSub.DatasetIsoTests, oSub.BaseCandidates)
	}
	want := index.Answer(m, sub)
	if !reflect.DeepEqual(oSub.Answer, want) {
		t.Errorf("answer mismatch: %v want %v", oSub.Answer, want)
	}
}

func TestSupergraphPathRestrictsCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	db := buildDB(rng, 20)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{CacheSize: 10, Window: 1})

	gSmall := connectedQuery(rng, db[4], 3)
	igq.Query(gSmall)

	// supergraph of gSmall: extend the BFS region
	order := db[4].BFSOrder(gSmall.BFSOrder(0)[0])
	gBig, _ := db[4].InducedSubgraph(order[:minInt(6, len(order))])
	if !iso.Subgraph(gSmall, gBig) {
		t.Skip("construction did not produce a nested pair")
	}
	o := igq.Query(gBig)
	if o.SuperHits == 0 && o.Short == NoShortCircuit {
		t.Error("no Isuper hit for extended query")
	}
	want := index.Answer(m, gBig)
	if !reflect.DeepEqual(o.Answer, want) {
		t.Errorf("answer mismatch: %v want %v", o.Answer, want)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestReplacementEvictsAtCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	db := buildDB(rng, 10)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{CacheSize: 4, Window: 2})

	for i := 0; i < 20; i++ {
		igq.Query(randomGraph(rng, 3+rng.Intn(3), 0.5, 4))
	}
	if igq.CacheLen() > 4 {
		t.Errorf("cache grew past capacity: %d", igq.CacheLen())
	}
	if igq.Flushes() < 5 {
		t.Errorf("flushes = %d, want many", igq.Flushes())
	}
}

func TestUtilityKeepsUsefulEntries(t *testing.T) {
	// One cached query is hit repeatedly (accumulating utility); fillers
	// use disjoint label pairs so they are never hit by anything and stay
	// at utility -Inf. Under capacity pressure the policy must always evict
	// a filler, never the credited entry.
	rng := rand.New(rand.NewSource(77))
	db := buildDB(rng, 15)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{CacheSize: 3, Window: 1})

	useful := connectedQuery(rng, db[1], 5)
	igq.Query(useful) // cached immediately (W=1)

	// alternate distinct subqueries of `useful` (crediting it) with
	// never-hit fillers on private labels
	subOrder := useful.BFSOrder(0)
	for i := 0; i < 6; i++ {
		k := minInt(2+i%3, len(subOrder))
		sub, _ := useful.InducedSubgraph(subOrder[:k])
		o := igq.Query(sub)
		if o.SubHits == 0 && o.Short == NoShortCircuit {
			t.Fatalf("iter %d: subquery missed the cached supergraph", i)
		}
		filler := graph.New(2)
		filler.AddVertex(graph.Label(1000 + 2*i))
		filler.AddVertex(graph.Label(1001 + 2*i))
		filler.AddEdge(0, 1)
		igq.Query(filler)
	}
	// the useful entry must still be cached: re-issuing it is an identical hit
	o := igq.Query(useful.Clone())
	if o.Short != IdenticalHit {
		t.Errorf("high-utility entry was evicted (short=%v)", o.Short)
	}
}

func TestWindowDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	db := buildDB(rng, 10)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{CacheSize: 10, Window: 5})

	q := connectedQuery(rng, db[0], 4)
	igq.Query(q)
	igq.Query(q.Clone()) // same query again within the window
	if igq.WindowLen() != 1 {
		t.Errorf("window holds %d entries, want 1 (duplicate suppressed)", igq.WindowLen())
	}
}

func TestSizeBytesGrowsWithCache(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	db := buildDB(rng, 10)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{CacheSize: 10, Window: 1})
	empty := igq.SizeBytes()
	for i := 0; i < 5; i++ {
		igq.Query(randomGraph(rng, 4, 0.5, 4))
	}
	if igq.SizeBytes() <= empty {
		t.Errorf("SizeBytes did not grow: %d -> %d", empty, igq.SizeBytes())
	}
}

func TestOutcomeCountersConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	db := buildDB(rng, 20)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{CacheSize: 15, Window: 3})
	for _, q := range workload(rng, db, 60) {
		o := igq.Query(q)
		if o.Short == NoShortCircuit {
			if o.DatasetIsoTests != o.FinalCandidates {
				t.Fatalf("tests %d != final candidates %d", o.DatasetIsoTests, o.FinalCandidates)
			}
			if o.FinalCandidates > o.BaseCandidates {
				t.Fatalf("pruning grew the candidate set: %d > %d", o.FinalCandidates, o.BaseCandidates)
			}
		} else if o.DatasetIsoTests != 0 {
			t.Fatalf("short-circuit ran %d dataset tests", o.DatasetIsoTests)
		}
	}
}

func TestQueriesCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	db := buildDB(rng, 5)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	igq := New(m, db, Options{})
	for i := 0; i < 7; i++ {
		igq.Query(randomGraph(rng, 3, 0.5, 4))
	}
	if n := igq.seq.Load(); n != 7 {
		t.Errorf("seq = %d, want 7", n)
	}
}
