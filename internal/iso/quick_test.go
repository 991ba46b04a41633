package iso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// graphSpec is a quick-generatable description of a random graph pair.
type graphSpec struct {
	SeedT, SeedP int64
	NT, NP       uint8
	Dense        bool
}

func (gs graphSpec) build() (pat, tgt *graph.Graph) {
	pt := 0.35
	if gs.Dense {
		pt = 0.6
	}
	tgt = specGraph(gs.SeedT, 3+int(gs.NT%6), pt, 2)
	pat = specGraph(gs.SeedP, 1+int(gs.NP%5), 0.5, 2)
	return pat, tgt
}

func specGraph(seed int64, n int, p float64, labels int) *graph.Graph {
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

// TestQuickEnginesAgree: the compiled engine and the brute-force oracle
// agree on arbitrary inputs — patterns of up to five vertices, disconnected
// ones and ones larger than the target included.
func TestQuickEnginesAgree(t *testing.T) {
	f := func(gs graphSpec) bool {
		pat, tgt := gs.build()
		want := bruteForceExists(pat, tgt)
		return Subgraph(pat, tgt) == want && Compile(pat).Match(tgt) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickReflexiveAndMonotone: every graph embeds into itself, and adding
// a fresh vertex to the target preserves any embedding.
func TestQuickReflexiveAndMonotone(t *testing.T) {
	f := func(gs graphSpec) bool {
		pat, _ := gs.build()
		if !Subgraph(pat, pat) {
			return false
		}
		bigger := pat.Clone()
		bigger.AddVertex(99)
		return Subgraph(pat, bigger)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickTransitivity: planted chains a ⊆ b ⊆ c imply a ⊆ c.
func TestQuickTransitivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := specGraph(seed, 8, 0.4, 3)
		orderB := c.BFSOrder(rng.Intn(8))
		if len(orderB) > 6 {
			orderB = orderB[:6]
		}
		b, _ := c.InducedSubgraph(orderB)
		orderA := b.BFSOrder(0)
		if len(orderA) > 3 {
			orderA = orderA[:3]
		}
		a, _ := b.InducedSubgraph(orderA)
		// a ⊆ b and b ⊆ c hold by construction; a ⊆ c must follow
		return Subgraph(a, b) && Subgraph(b, c) && Subgraph(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
