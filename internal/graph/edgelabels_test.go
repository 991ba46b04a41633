package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestAddEdgeLabeledBasics(t *testing.T) {
	g := New(3)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(3)
	if !g.AddEdgeLabeled(0, 1, 5) {
		t.Fatal("labeled edge rejected")
	}
	if !g.AddEdge(1, 2) { // unlabeled after labeled
		t.Fatal("unlabeled edge rejected")
	}
	if g.EdgeLabel(0, 1) != 5 || g.EdgeLabel(1, 0) != 5 {
		t.Errorf("edge label = %d / %d, want 5 both ways", g.EdgeLabel(0, 1), g.EdgeLabel(1, 0))
	}
	if g.EdgeLabel(1, 2) != 0 {
		t.Errorf("unlabeled edge label = %d", g.EdgeLabel(1, 2))
	}
	if g.EdgeLabel(0, 2) != 0 {
		t.Error("absent edge should report label 0")
	}
	if !g.HasEdgeLabels() {
		t.Error("HasEdgeLabels false after labeled insert")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestUnlabeledGraphPaysNothing(t *testing.T) {
	g := New(3)
	g.AddVertex(1)
	g.AddVertex(1)
	g.AddEdge(0, 1)
	if g.HasEdgeLabels() {
		t.Error("unlabeled graph claims edge labels")
	}
	if g.elabels != nil {
		t.Error("edge-label storage materialised for unlabeled graph")
	}
}

func TestLazyMaterializationBackfillsZeros(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(1)
	}
	g.AddEdge(0, 1)           // unlabeled first
	g.AddEdgeLabeled(1, 2, 7) // triggers materialisation
	g.AddEdge(2, 3)
	if g.EdgeLabel(0, 1) != 0 || g.EdgeLabel(1, 2) != 7 || g.EdgeLabel(2, 3) != 0 {
		t.Errorf("labels: %d %d %d", g.EdgeLabel(0, 1), g.EdgeLabel(1, 2), g.EdgeLabel(2, 3))
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestEdgeLabelAlignmentSurvivesInsertOrder(t *testing.T) {
	// inserting edges out of order must keep labels aligned with the
	// sorted adjacency lists
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 6
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddVertex(1)
		}
		type e struct {
			u, v int
			l    Label
		}
		var es []e
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					es = append(es, e{u, v, Label(rng.Intn(4))})
				}
			}
		}
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		for _, x := range es {
			g.AddEdgeLabeled(x.u, x.v, x.l)
		}
		for _, x := range es {
			if g.EdgeLabel(x.u, x.v) != x.l {
				t.Fatalf("trial %d: edge (%d,%d) label %d, want %d",
					trial, x.u, x.v, g.EdgeLabel(x.u, x.v), x.l)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestEdgesLabeledIteration(t *testing.T) {
	g := New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex(1)
	}
	g.AddEdgeLabeled(0, 1, 2)
	g.AddEdgeLabeled(1, 2, 3)
	got := map[[2]int]Label{}
	g.EdgesLabeled(func(u, v int, l Label) { got[[2]int{u, v}] = l })
	if got[[2]int{0, 1}] != 2 || got[[2]int{1, 2}] != 3 {
		t.Errorf("EdgesLabeled = %v", got)
	}
}

func TestCloneAndInducedPreserveEdgeLabels(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex(Label(i))
	}
	g.AddEdgeLabeled(0, 1, 9)
	g.AddEdgeLabeled(1, 2, 8)
	g.AddEdge(2, 3)

	c := g.Clone()
	if c.EdgeLabel(0, 1) != 9 || c.EdgeLabel(1, 2) != 8 {
		t.Error("Clone dropped edge labels")
	}
	c.AddEdgeLabeled(0, 3, 7)
	if g.HasEdge(0, 3) || g.EdgeLabel(0, 1) != 9 {
		t.Error("clone shares storage")
	}

	sub, orig := g.InducedSubgraph([]int{0, 1, 2})
	_ = orig
	if sub.EdgeLabel(0, 1) != 9 || sub.EdgeLabel(1, 2) != 8 {
		t.Errorf("InducedSubgraph dropped edge labels: %d %d",
			sub.EdgeLabel(0, 1), sub.EdgeLabel(1, 2))
	}
}

func TestCodecRoundTripEdgeLabels(t *testing.T) {
	g := New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex(Label(i + 1))
	}
	g.AddEdgeLabeled(0, 1, 4)
	g.AddEdge(1, 2)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatal("round trip lost graph")
	}
	if back[0].EdgeLabel(0, 1) != 4 || back[0].EdgeLabel(1, 2) != 0 {
		t.Errorf("labels after round trip: %d %d",
			back[0].EdgeLabel(0, 1), back[0].EdgeLabel(1, 2))
	}
}

func TestFingerprintSeparatesEdgeLabels(t *testing.T) {
	mk := func(l Label) *Graph {
		g := New(2)
		g.AddVertex(1)
		g.AddVertex(1)
		g.AddEdgeLabeled(0, 1, l)
		return g
	}
	if Fingerprint(mk(1)) == Fingerprint(mk(2)) {
		t.Error("fingerprints collide across edge labels")
	}
	if Fingerprint(mk(1)) != Fingerprint(mk(1)) {
		t.Error("fingerprint not deterministic")
	}
}

func TestValidateCatchesAsymmetricEdgeLabels(t *testing.T) {
	g := New(2)
	g.AddVertex(1)
	g.AddVertex(1)
	g.AddEdgeLabeled(0, 1, 3)
	g.elabels[0][0] = 4 // corrupt one direction
	if err := g.Validate(); err == nil {
		t.Error("Validate missed asymmetric edge label")
	}
}
