package index_test

// Cross-method conformance tests: every filter-then-verify implementation
// must (a) never produce false negatives in its candidate set and (b) agree
// with the brute-force oracle on the final answer set. These are the
// executable form of the correctness assumptions the paper's Theorems 1–2
// place on the underlying method M.

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ctindex"
	"repro/internal/index/ggsx"
	"repro/internal/index/grapes"
	"repro/internal/iso"
)

// dump renders g in the text codec, for failure messages.
func dump(g *graph.Graph) string {
	var b strings.Builder
	graph.WriteAll(&b, []*graph.Graph{g})
	return b.String()
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

// connectedQuery extracts a connected query of ~k vertices from g.
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

func methodsUnderTest() []index.Method {
	return []index.Method{
		ggsx.New(ggsx.DefaultOptions()),
		grapes.New(grapes.Options{MaxPathLen: 4, Threads: 1}),
		grapes.New(grapes.Options{MaxPathLen: 4, Threads: 6}),
		ctindex.New(ctindex.DefaultOptions()),
	}
}

func buildTestDB(rng *rand.Rand, n int) []*graph.Graph {
	db := make([]*graph.Graph, n)
	for i := range db {
		db[i] = randomGraph(rng, 6+rng.Intn(8), 0.3, 4)
		db[i].ID = i
	}
	return db
}

func TestMethodsAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := buildTestDB(rng, 25)
	oracle := index.NewBruteForce()
	oracle.Build(db)

	for _, m := range methodsUnderTest() {
		m.Build(db)
		for trial := 0; trial < 40; trial++ {
			var q *graph.Graph
			if trial%2 == 0 {
				q = connectedQuery(rng, db[rng.Intn(len(db))], 2+rng.Intn(4))
			} else {
				q = randomGraph(rng, 2+rng.Intn(4), 0.5, 4)
			}
			want := index.Answer(oracle, q)
			got := index.Answer(m, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: answer %v, oracle %v\nquery:\n%s",
					m.Name(), trial, got, want, dump(q))
			}
		}
	}
}

// methodOnly hides every optional capability of a method, Prepare included:
// what a wrapper embedding only index.Method looks like to the shared loop.
type methodOnly struct{ index.Method }

// TestMethodsPrepareVerifyOracleAgree: for every method and every
// (query, dataset graph) pair — candidates or not — Verify, the prepared
// handle and the brute-force isomorphism oracle give the same verdict, and
// the shared verification loop returns the same candidates whether it
// prepares the query or calls Verify one candidate at a time.
func TestMethodsPrepareVerifyOracleAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	db := buildTestDB(rng, 25)
	all := index.AllIDs(len(db))
	for _, m := range append(methodsUnderTest(), index.NewBruteForce()) {
		m.Build(db)
		p, ok := m.(index.Preparer)
		if !ok {
			t.Fatalf("%s does not offer Prepare", m.Name())
		}
		for trial := 0; trial < 30; trial++ {
			var q *graph.Graph
			switch trial % 3 {
			case 0:
				q = connectedQuery(rng, db[rng.Intn(len(db))], 2+rng.Intn(4))
			case 1:
				q = randomGraph(rng, 2+rng.Intn(4), 0.5, 4)
			default:
				q = randomGraph(rng, rng.Intn(5), 0.2, 4) // sparse: disconnected, sometimes empty
			}
			h := p.Prepare(q)
			var want []int32
			for id, g := range db {
				ref := iso.Reference(q, g)
				if ref {
					want = append(want, int32(id))
				}
				if got := m.Verify(q, int32(id)); got != ref {
					t.Fatalf("%s trial %d graph %d: Verify = %v, oracle %v\nquery:\n%s",
						m.Name(), trial, id, got, ref, dump(q))
				}
				if got := h.Verify(int32(id)); got != ref {
					t.Fatalf("%s trial %d graph %d: prepared Verify = %v, oracle %v\nquery:\n%s",
						m.Name(), trial, id, got, ref, dump(q))
				}
			}
			prepared, err1 := index.VerifyCandidates(context.Background(), m, q, all)
			plain, err2 := index.VerifyCandidates(context.Background(), methodOnly{m}, q, all)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(prepared, want) || !reflect.DeepEqual(plain, want) {
				t.Fatalf("%s trial %d: loop returned %v (prepared) / %v (plain), oracle %v",
					m.Name(), trial, prepared, plain, want)
			}
		}
	}
}

func TestMethodsNoFalseNegativesInFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	db := buildTestDB(rng, 20)
	for _, m := range methodsUnderTest() {
		m.Build(db)
		for trial := 0; trial < 30; trial++ {
			q := connectedQuery(rng, db[rng.Intn(len(db))], 2+rng.Intn(4))
			cs := map[int32]bool{}
			for _, id := range m.Filter(q) {
				cs[id] = true
			}
			for i, g := range db {
				if iso.Reference(q, g) && !cs[int32(i)] {
					t.Fatalf("%s trial %d: graph %d contains the query but was filtered out",
						m.Name(), trial, i)
				}
			}
		}
	}
}

func TestMethodsFilterSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := buildTestDB(rng, 15)
	for _, m := range methodsUnderTest() {
		m.Build(db)
		q := connectedQuery(rng, db[0], 3)
		ids := m.Filter(q)
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("%s: Filter result not sorted: %v", m.Name(), ids)
			}
		}
	}
}

func TestMethodsEmptyQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	db := buildTestDB(rng, 5)
	empty := graph.New(0)
	for _, m := range methodsUnderTest() {
		m.Build(db)
		ans := index.Answer(m, empty)
		if len(ans) != len(db) {
			t.Errorf("%s: empty query answered by %d/%d graphs", m.Name(), len(ans), len(db))
		}
	}
}

func TestMethodsSizeBytesPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	db := buildTestDB(rng, 5)
	for _, m := range methodsUnderTest() {
		m.Build(db)
		if m.SizeBytes() <= 0 {
			t.Errorf("%s: SizeBytes = %d", m.Name(), m.SizeBytes())
		}
	}
}

func TestGrapesParallelBuildEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	db := buildTestDB(rng, 10)
	seq := grapes.New(grapes.Options{MaxPathLen: 4, Threads: 1})
	par := grapes.New(grapes.Options{MaxPathLen: 4, Threads: 6})
	seq.Build(db)
	par.Build(db)
	for trial := 0; trial < 25; trial++ {
		q := connectedQuery(rng, db[rng.Intn(len(db))], 2+rng.Intn(4))
		a := seq.Filter(q)
		b := par.Filter(q)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: sequential CS %v != parallel CS %v", trial, a, b)
		}
	}
}

func TestGrapesNames(t *testing.T) {
	if n := grapes.New(grapes.Options{Threads: 1}).Name(); n != "Grapes" {
		t.Errorf("Grapes(1) name = %q", n)
	}
	if n := grapes.New(grapes.Options{Threads: 6}).Name(); n != "Grapes(6)" {
		t.Errorf("Grapes(6) name = %q", n)
	}
}

func TestGrapesDisconnectedQueryFallback(t *testing.T) {
	// a disconnected query must still be answered correctly
	rng := rand.New(rand.NewSource(37))
	db := buildTestDB(rng, 10)
	m := grapes.New(grapes.Options{MaxPathLen: 4, Threads: 1})
	m.Build(db)
	q := graph.New(3)
	q.AddVertex(db[0].Label(0))
	q.AddVertex(db[0].Label(0))
	q.AddVertex(db[0].Label(0))
	// no edges: disconnected
	want := map[int32]bool{}
	for i, g := range db {
		if iso.Reference(q, g) {
			want[int32(i)] = true
		}
	}
	got := map[int32]bool{}
	for _, id := range index.Answer(m, q) {
		got[id] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disconnected query: got %v want %v", got, want)
	}
}

func TestCTIndexLargerConfigStillCorrect(t *testing.T) {
	// the Fig 18 "larger" configuration (trees 7, cycles 9, 8192 bits)
	rng := rand.New(rand.NewSource(38))
	db := buildTestDB(rng, 12)
	oracle := index.NewBruteForce()
	oracle.Build(db)
	m := ctindex.New(ctindex.Options{TreeSize: 7, CycleSize: 9, Bits: 8192, HashCount: 2})
	m.Build(db)
	for trial := 0; trial < 20; trial++ {
		q := connectedQuery(rng, db[rng.Intn(len(db))], 3)
		if !reflect.DeepEqual(index.Answer(m, q), index.Answer(oracle, q)) {
			t.Fatalf("trial %d: larger CT-Index config disagrees with oracle", trial)
		}
	}
}

func TestCTIndexBudgetSaturationSound(t *testing.T) {
	// force tiny budgets: dense dataset graphs saturate, answers must stay
	// correct (possibly larger candidate sets, never wrong answers)
	rng := rand.New(rand.NewSource(39))
	db := make([]*graph.Graph, 8)
	for i := range db {
		db[i] = randomGraph(rng, 10, 0.5, 2) // dense: budgets will blow
		db[i].ID = i
	}
	oracle := index.NewBruteForce()
	oracle.Build(db)
	m := ctindex.New(ctindex.Options{TreeSize: 6, CycleSize: 8, Bits: 4096, HashCount: 2, TreeBudget: 5, CycleBudget: 5})
	m.Build(db)
	for trial := 0; trial < 15; trial++ {
		q := connectedQuery(rng, db[rng.Intn(len(db))], 3)
		if !reflect.DeepEqual(index.Answer(m, q), index.Answer(oracle, q)) {
			t.Fatalf("trial %d: budget-saturated CT-Index disagrees with oracle", trial)
		}
	}
}

func TestCTIndexFiltersSomething(t *testing.T) {
	// sanity: on a DB with two disjoint label vocabularies, a query using
	// vocabulary A must filter out all vocabulary-B graphs
	mkLabeled := func(base graph.Label) *graph.Graph {
		g := graph.New(4)
		for i := 0; i < 4; i++ {
			g.AddVertex(base + graph.Label(i))
		}
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		return g
	}
	db := []*graph.Graph{mkLabeled(0), mkLabeled(100)}
	m := ctindex.New(ctindex.DefaultOptions())
	m.Build(db)
	q := graph.New(2)
	q.AddVertex(0)
	q.AddVertex(1)
	q.AddEdge(0, 1)
	cs := m.Filter(q)
	if len(cs) != 1 || cs[0] != 0 {
		t.Errorf("CS = %v, want [0]", cs)
	}
}
