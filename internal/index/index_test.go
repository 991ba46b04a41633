package index

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
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

func TestBruteForceAnswersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := make([]*graph.Graph, 12)
	for i := range db {
		db[i] = randomGraph(rng, 5+rng.Intn(5), 0.35, 3)
		db[i].ID = i
	}
	m := NewBruteForce()
	m.Build(db)
	for trial := 0; trial < 30; trial++ {
		q := randomGraph(rng, 2+rng.Intn(3), 0.5, 3)
		got := Answer(m, q)
		var want []int32
		for i, g := range db {
			if iso.Reference(q, g) {
				want = append(want, int32(i))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestBruteForceFilterIsEverything(t *testing.T) {
	db := []*graph.Graph{graph.New(0), graph.New(0), graph.New(0)}
	m := NewBruteForce()
	m.Build(db)
	if got := m.Filter(graph.New(0)); len(got) != 3 {
		t.Errorf("Filter = %v", got)
	}
	if m.SizeBytes() != 0 {
		t.Error("BruteForce reports an index size")
	}
	if m.Name() != "BruteForce" {
		t.Error("name")
	}
}

func TestSetOps(t *testing.T) {
	a := []int32{1, 3, 5, 7}
	b := []int32{3, 4, 5, 8}
	if got := IntersectSorted(a, b); !reflect.DeepEqual(got, []int32{3, 5}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := SubtractSorted(a, b); !reflect.DeepEqual(got, []int32{1, 7}) {
		t.Errorf("Subtract = %v", got)
	}
	if got := UnionSorted(a, b); !reflect.DeepEqual(got, []int32{1, 3, 4, 5, 7, 8}) {
		t.Errorf("Union = %v", got)
	}
	if got := IntersectSorted(nil, b); len(got) != 0 {
		t.Errorf("Intersect(nil,b) = %v", got)
	}
	if got := SubtractSorted(a, nil); !reflect.DeepEqual(got, a) {
		t.Errorf("Subtract(a,nil) = %v", got)
	}
	if got := UnionSorted(nil, nil); len(got) != 0 {
		t.Errorf("Union(nil,nil) = %v", got)
	}
}

func TestSetOpsPreserveSortedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sortedRand := func() []int32 {
		n := rng.Intn(10)
		m := map[int32]bool{}
		for i := 0; i < n; i++ {
			m[int32(rng.Intn(20))] = true
		}
		var out []int32
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	isSorted := func(xs []int32) bool {
		for i := 1; i < len(xs); i++ {
			if xs[i-1] >= xs[i] {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 100; trial++ {
		a, b := sortedRand(), sortedRand()
		if !isSorted(IntersectSorted(a, b)) || !isSorted(SubtractSorted(a, b)) || !isSorted(UnionSorted(a, b)) {
			t.Fatalf("trial %d: set op broke sorted invariant", trial)
		}
	}
}
