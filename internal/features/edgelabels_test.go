package features

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// Edge-label feature tests: labeled features must canonicalise
// direction/rotation-invariantly, stay disjoint from unlabeled keys, and
// preserve the count-containment property the filters rely on.

func labeledPath(vls []graph.Label, els []graph.Label) *graph.Graph {
	g := graph.New(len(vls))
	for _, l := range vls {
		g.AddVertex(l)
	}
	for i := 0; i+1 < len(vls); i++ {
		g.AddEdgeLabeled(i, i+1, els[i])
	}
	return g
}

func TestPathKeyLabeledReversalInvariant(t *testing.T) {
	a := pathCounts(labeledPath([]graph.Label{1, 2, 3}, []graph.Label{7, 8}), 2)
	b := pathCounts(labeledPath([]graph.Label{3, 2, 1}, []graph.Label{8, 7}), 2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("labeled path keys not reversal-invariant: %v vs %v", a, b)
	}
	if a["p:!1.7.2.8.3"] != 2 {
		t.Errorf("labeled key missing or without marker: %v", a)
	}
}

func TestPathKeyLabeledZeroFallsBack(t *testing.T) {
	// 1 -0- 2 -5- 3: the path over the zero-labeled edge alone takes the
	// unlabeled form; the path over both edges does not
	ps := pathCounts(labeledPath([]graph.Label{1, 2, 3}, []graph.Label{0, 5}), 2)
	if ps["p:1.2"] != 2 || ps["p:!2.5.3"] != 2 || ps["p:!1.0.2.5.3"] != 2 {
		t.Errorf("zero-labeled path should use unlabeled key, got %v", ps)
	}
}

func TestLabeledKeysDisjointFromUnlabeled(t *testing.T) {
	// labeled 2-vertex path with edge label 5 vs unlabeled 3-vertex path
	// with middle vertex 5 — the interleavings coincide numerically, the
	// marker must keep them apart
	labeled := pathCounts(labeledPath([]graph.Label{1, 2}, []graph.Label{5}), 1)
	unlabeled := pathCounts(pathGraph(1, 5, 2), 2)
	for k := range labeled {
		if strings.Count(k, ".") > 0 && unlabeled[k] > 0 {
			t.Errorf("labeled and unlabeled keys collide: %q", k)
		}
	}
}

func TestPathsEnumerationWithEdgeLabels(t *testing.T) {
	g := labeledPath([]graph.Label{1, 2, 3}, []graph.Label{4, 5})
	ps := pathCounts(g, 2)
	// the full path: 1 -4- 2 -5- 3, two directions, one canonical key
	want := refKey([]graph.Label{1, 2, 3}, []graph.Label{4, 5})
	if ps[want] != 2 {
		t.Errorf("count(%q) = %d, want 2\nall: %v", want, ps[want], ps)
	}
	// single vertices keep unlabeled keys
	if ps["p:1"] != 1 {
		t.Errorf("single-vertex key wrong: %v", ps)
	}
}

func TestLabeledPathContainmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		tgt := graph.New(9)
		for i := 0; i < 9; i++ {
			tgt.AddVertex(graph.Label(rng.Intn(2)))
		}
		for u := 0; u < 9; u++ {
			for v := u + 1; v < 9; v++ {
				if rng.Float64() < 0.3 {
					tgt.AddEdgeLabeled(u, v, graph.Label(rng.Intn(3)))
				}
			}
		}
		order := tgt.BFSOrder(rng.Intn(9))
		if len(order) > 5 {
			order = order[:5]
		}
		sub, _ := tgt.InducedSubgraph(order)
		fq := pathCounts(sub, 4)
		ft := pathCounts(tgt, 4)
		for k, c := range fq {
			if ft[k] < c {
				t.Fatalf("trial %d: labeled feature %q count %d > host %d",
					trial, k, c, ft[k])
			}
		}
	}
}

func TestTreeKeyLabeledInvariance(t *testing.T) {
	// a labeled star presented with different vertex orders
	mk := func(perm []int) ([]int32, [][2]int32, *graph.Graph) {
		g := graph.New(4)
		labels := []graph.Label{9, 1, 2, 3}
		elabs := []graph.Label{4, 5, 6}
		placed := make([]graph.Label, len(perm))
		for i, p := range perm {
			placed[p] = labels[i]
		}
		for _, l := range placed {
			g.AddVertex(l)
		}
		for i := 1; i < 4; i++ {
			g.AddEdgeLabeled(perm[0], perm[i], elabs[i-1])
		}
		vs := []int32{0, 1, 2, 3}
		var es [][2]int32
		g.Edges(func(u, v int) { es = append(es, [2]int32{int32(u), int32(v)}) })
		return vs, es, g
	}
	vs1, es1, g1 := mk([]int{0, 1, 2, 3})
	vs2, es2, g2 := mk([]int{3, 0, 1, 2})
	k1 := treeKey(g1, vs1, es1)
	k2 := treeKey(g2, vs2, es2)
	if k1 != k2 {
		t.Errorf("labeled tree keys differ:\n%q\n%q", k1, k2)
	}
	if !strings.HasPrefix(k1, "t:!") {
		t.Errorf("labeled tree key missing marker: %q", k1)
	}
}

func TestTreeKeyLabeledSeparatesEdgeLabels(t *testing.T) {
	mk := func(el graph.Label) (string, bool) {
		g := graph.New(2)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdgeLabeled(0, 1, el)
		vs := []int32{0, 1}
		es := [][2]int32{{0, 1}}
		return treeKey(g, vs, es), true
	}
	a, _ := mk(1)
	b, _ := mk(2)
	if a == b {
		t.Error("tree keys identical across different edge labels")
	}
}

func TestCycleKeyLabeledRotationReflectionInvariant(t *testing.T) {
	v := []graph.Label{1, 2, 3, 4}
	e := []graph.Label{5, 6, 7, 8}
	a := cycleKeyLabeled(v, e)
	// rotate by 1: vertices 2,3,4,1; edges 6,7,8,5
	b := cycleKeyLabeled([]graph.Label{2, 3, 4, 1}, []graph.Label{6, 7, 8, 5})
	if a != b {
		t.Errorf("labeled cycle key not rotation-invariant: %q vs %q", a, b)
	}
	// reflect: vertices 1,4,3,2; edges walk backwards: 8,7,6,5
	c := cycleKeyLabeled([]graph.Label{1, 4, 3, 2}, []graph.Label{8, 7, 6, 5})
	if a != c {
		t.Errorf("labeled cycle key not reflection-invariant: %q vs %q", a, c)
	}
	if !strings.HasPrefix(a, "c:!") {
		t.Errorf("labeled cycle key missing marker: %q", a)
	}
}

func TestCyclesEnumerationWithEdgeLabels(t *testing.T) {
	// triangle with distinct bond labels: exactly one cycle feature
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex(1)
	}
	g.AddEdgeLabeled(0, 1, 1)
	g.AddEdgeLabeled(1, 2, 2)
	g.AddEdgeLabeled(0, 2, 3)
	cs := Cycles(g, CycleOptions{MaxLen: 8})
	if len(cs.Counts) != 1 {
		t.Fatalf("labeled triangle cycles = %v", cs.Counts)
	}
	for k, c := range cs.Counts {
		if !strings.HasPrefix(k, "c:!") || c != 1 {
			t.Errorf("cycle key %q count %d", k, c)
		}
	}
	// same triangle with a different bond must get a different key
	h := graph.New(3)
	for i := 0; i < 3; i++ {
		h.AddVertex(1)
	}
	h.AddEdgeLabeled(0, 1, 1)
	h.AddEdgeLabeled(1, 2, 2)
	h.AddEdgeLabeled(0, 2, 9)
	ch := Cycles(h, CycleOptions{MaxLen: 8})
	for k := range cs.Counts {
		if ch.Counts[k] != 0 {
			t.Error("different bond triangle shares a cycle key")
		}
	}
}
