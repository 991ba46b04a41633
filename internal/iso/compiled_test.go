package iso

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestProgramAndStateReuse: one program run against many targets and one
// state run under many programs give the oracle's answer every time —
// nothing of a finished test (marks, mapping, histogram, the order of a
// larger pattern) leaks into the next. Patterns include disconnected ones,
// the empty one and ones larger than the target, vertex- and edge-labelled.
func TestProgramAndStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var targets, patterns []*graph.Graph
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			targets = append(targets, randomGraph(rng, 2+rng.Intn(8), 0.4, 2))
			patterns = append(patterns, randomGraph(rng, rng.Intn(6), 0.45, 2))
		} else {
			targets = append(targets, randomLabeledGraph(rng, 2+rng.Intn(8), 0.4, 2, 2))
			patterns = append(patterns, randomLabeledGraph(rng, rng.Intn(6), 0.45, 2, 2))
		}
	}
	s := new(state)
	positives := 0
	for pi, p := range patterns {
		pr := Compile(p)
		s.oneShot.compile(p) // the state's own program, recompiled per pattern
		for ti, tgt := range targets {
			want := bruteForceExists(p, tgt)
			if want {
				positives++
			}
			if got := pr.Match(tgt); got != want {
				t.Fatalf("pattern %d target %d: Match=%v oracle=%v\npat=%s\ntgt=%s",
					pi, ti, got, want, dump(p), dump(tgt))
			}
			if got := s.run(pr, tgt); got != want {
				t.Fatalf("pattern %d target %d: shared state=%v oracle=%v", pi, ti, got, want)
			}
			if got := s.run(&s.oneShot, tgt); got != want {
				t.Fatalf("pattern %d target %d: recompiled program=%v oracle=%v", pi, ti, got, want)
			}
			for v, u := range s.used {
				if u {
					t.Fatalf("pattern %d target %d: vertex %d left marked", pi, ti, v)
				}
			}
		}
	}
	if positives == 0 || positives == len(patterns)*len(targets) {
		t.Fatalf("degenerate pairs: %d positives", positives)
	}
}

// TestCompileSnapshotsPattern: a program is unaffected by later changes to
// the graph it was compiled from.
func TestCompileSnapshotsPattern(t *testing.T) {
	p := pathGraph(1, 2)
	pr := Compile(p)
	p.AddVertex(9)
	p.AddEdge(1, 2)
	if !pr.Match(pathGraph(3, 1, 2)) {
		t.Error("program changed with its source graph")
	}
	if Subgraph(p, pathGraph(3, 1, 2)) {
		t.Error("mutated pattern matched through the uncompiled entry point")
	}
}

// TestPanicMidSearchPoisonsNoLaterTest: a test that panics half-way through
// its search (here from a program whose last position names a parent out of
// range, with vertices marked and the state's fields pointing into the
// search) never returns its state to the pool, so the tests that follow on
// the same goroutine — which would be handed that very state — still agree
// with the oracle.
func TestPanicMidSearchPoisonsNoLaterTest(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tgt := randomGraph(rng, 9, 0.5, 2)
	pat := randomConnectedSubgraph(rng, tgt, 4)
	poisoned := Compile(pat)
	poisoned.parent[len(poisoned.parent)-1] = 1 << 20
	for round := 0; round < 20; round++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the search's panic did not propagate")
				}
			}()
			poisoned.Match(tgt)
		}()
		p := randomGraph(rng, 1+rng.Intn(5), 0.5, 2)
		want := bruteForceExists(p, tgt)
		if got := Subgraph(p, tgt); got != want {
			t.Fatalf("round %d: Subgraph = %v after a panicked test, oracle %v", round, got, want)
		}
		if got := Compile(p).Match(tgt); got != want {
			t.Fatalf("round %d: Match = %v after a panicked test, oracle %v", round, got, want)
		}
	}
}

func smallSparsePair() (pat, tgt *graph.Graph) {
	rng := rand.New(rand.NewSource(1))
	tgt = randomGraph(rng, 40, 0.08, 6)
	return randomConnectedSubgraph(rng, tgt, 6), tgt
}

// TestMatchDoesNotAllocate: a warm test allocates nothing, whether it finds
// an embedding or exhausts the search, compiled or not.
func TestMatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	pat, tgt := smallSparsePair()
	miss := pat.Clone() // the same vertices as a clique: survives every cheap cut, embeds nowhere
	for u := 0; u < miss.NumVertices(); u++ {
		for v := u + 1; v < miss.NumVertices(); v++ {
			miss.AddEdge(u, v)
		}
	}
	for name, p := range map[string]*graph.Graph{"positive": pat, "negative": miss} {
		want := name == "positive"
		pr := Compile(p)
		if pr.Match(tgt) != want || Subgraph(p, tgt) != want {
			t.Fatalf("%s pair does not test %v", name, want)
		}
		if n := testing.AllocsPerRun(200, func() { pr.Match(tgt) }); n != 0 {
			t.Errorf("%s: Match allocates %v times per test", name, n)
		}
		if n := testing.AllocsPerRun(200, func() { Subgraph(p, tgt) }); n != 0 {
			t.Errorf("%s: Subgraph allocates %v times per test", name, n)
		}
	}
}

var sink bool

func BenchmarkSubgraphSmallSparse(b *testing.B) {
	pat, tgt := smallSparsePair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Subgraph(pat, tgt)
	}
}

func BenchmarkVerifyCompiled(b *testing.B) {
	pat, tgt := smallSparsePair()
	pr := Compile(pat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = pr.Match(tgt)
	}
}

// FuzzCompiledMatch decodes a (pattern, target) pair from the fuzz bytes with
// the text graph codec and checks the compiled engine against the oracle. The
// engine must never panic, whatever shape the codec lets through: isolated
// vertices, disconnected patterns, negative and edge labels.
func FuzzCompiledMatch(f *testing.F) {
	f.Add([]byte("#0\n2\n1\n2\n1\n0 1\n#1\n3\n1\n2\n1\n2\n0 1\n1 2\n"))
	f.Add([]byte("#0\n3\n1\n1\n1\n3\n0 1 1\n1 2 2\n0 2 1\n#1\n3\n1\n1\n1\n3\n0 1 1\n1 2 2\n0 2 3\n"))
	f.Add([]byte("#0\n3\n5\n5\n7\n1\n0 2\n#1\n4\n7\n5\n5\n5\n2\n0 1\n2 3\n"))
	f.Add([]byte("#0\n0\n0\n#1\n1\n-4\n0\n"))
	f.Add([]byte("#0\n4\n1\n1\n1\n1\n4\n0 1\n1 2\n2 3\n0 3\n#1\n2\n1\n1\n1\n0 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		gs, err := graph.ReadAll(bytes.NewReader(data))
		if err != nil || len(gs) != 2 {
			return
		}
		pat, tgt := gs[0], gs[1]
		if pat.NumVertices() > 7 || tgt.NumVertices() > 9 {
			return // the oracle is exponential
		}
		want := bruteForceExists(pat, tgt)
		if got := Compile(pat).Match(tgt); got != want {
			t.Fatalf("Match=%v oracle=%v\npat=%s\ntgt=%s", got, want, dump(pat), dump(tgt))
		}
		if got := Subgraph(pat, tgt); got != want {
			t.Fatalf("Subgraph=%v oracle=%v\npat=%s\ntgt=%s", got, want, dump(pat), dump(tgt))
		}
	})
}
