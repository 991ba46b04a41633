package features

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func benchGraph(n int, p float64, labels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
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

// BenchmarkPathsID is the interned enumeration with a warm dictionary and
// reused scratch — the steady-state per-query cost.
func BenchmarkPathsID(b *testing.B) {
	g := benchGraph(24, 0.25, 4, 7)
	opt := PathOptions{MaxLen: 4}
	d := NewDict()
	s := NewScratch()
	PathsID(g, opt, d, s, true) // warm the dictionary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PathsID(g, opt, d, s, false)
	}
}

// BenchmarkPathsIDIntern measures the build-side enumeration (interning
// enabled, dictionary already warm).
func BenchmarkPathsIDIntern(b *testing.B) {
	g := benchGraph(24, 0.25, 4, 7)
	opt := PathOptions{MaxLen: 4}
	d := NewDict()
	s := NewScratch()
	PathsID(g, opt, d, s, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PathsID(g, opt, d, s, true)
	}
}
