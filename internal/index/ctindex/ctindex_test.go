package ctindex

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// onesCount returns the number of set bits of b.
func (b Bitmap) onesCount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(4096)
	if b.Bits() != 4096 {
		t.Errorf("Bits = %d", b.Bits())
	}
	if b.onesCount() != 0 {
		t.Error("fresh bitmap has set bits")
	}
	b.Set(5)
	b.Set(4095)
	b.Set(4096 + 5) // wraps to 5
	if b.onesCount() != 2 {
		t.Errorf("onesCount = %d, want 2", b.onesCount())
	}
}

func TestBitmapMinimumWidth(t *testing.T) {
	b := NewBitmap(1)
	if b.Bits() != 64 {
		t.Errorf("minimum width = %d", b.Bits())
	}
}

func TestBitmapSubset(t *testing.T) {
	a := NewBitmap(128)
	b := NewBitmap(128)
	a.Set(3)
	b.Set(3)
	b.Set(70)
	if !a.SubsetOf(b) {
		t.Error("subset rejected")
	}
	if b.SubsetOf(a) {
		t.Error("superset accepted as subset")
	}
	empty := NewBitmap(128)
	if !empty.SubsetOf(a) || !empty.SubsetOf(empty) {
		t.Error("empty bitmap must be subset of everything")
	}
}

func TestBitmapSaturate(t *testing.T) {
	a := NewBitmap(256)
	a.Saturate()
	if a.onesCount() != 256 {
		t.Errorf("saturated count = %d", a.onesCount())
	}
	q := NewBitmap(256)
	q.Set(123)
	if !q.SubsetOf(a) {
		t.Error("saturated bitmap must pass every filter")
	}
}

func TestAddFeatureDeterministic(t *testing.T) {
	a := NewBitmap(4096)
	b := NewBitmap(4096)
	a.AddFeature("t:1(2,3)", 2)
	b.AddFeature("t:1(2,3)", 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("AddFeature not deterministic")
		}
	}
	if a.onesCount() == 0 || a.onesCount() > 2 {
		t.Errorf("k=2 set %d bits", a.onesCount())
	}
}

func TestFingerprintQueryContainedInDataset(t *testing.T) {
	// bitmap(sub) ⊆ bitmap(host) must hold for real subgraphs — the
	// correctness core of CT-Index filtering
	rng := rand.New(rand.NewSource(12))
	x := New(DefaultOptions())
	for trial := 0; trial < 30; trial++ {
		host := graph.New(10)
		for i := 0; i < 10; i++ {
			host.AddVertex(graph.Label(rng.Intn(3)))
		}
		for i := 1; i < 10; i++ {
			host.AddEdge(i, rng.Intn(i))
		}
		host.AddEdge(0, 9) // one cycle
		order := host.BFSOrder(rng.Intn(10))[:5]
		sub, _ := host.InducedSubgraph(order)
		fpHost := x.fingerprint(host, true)
		fpSub := x.fingerprint(sub, false)
		if !fpSub.SubsetOf(fpHost) {
			t.Fatalf("trial %d: subgraph fingerprint not subset of host's", trial)
		}
	}
}

func TestOptionsNormalised(t *testing.T) {
	x := New(Options{})
	if x.opt.TreeSize != 6 || x.opt.CycleSize != 8 || x.opt.Bits != 4096 || x.opt.HashCount != 2 {
		t.Errorf("normalised options: %+v", x.opt)
	}
}

func TestSizeBytesTracksBitmapWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := make([]*graph.Graph, 5)
	for i := range db {
		g := graph.New(6)
		for v := 0; v < 6; v++ {
			g.AddVertex(graph.Label(rng.Intn(2)))
		}
		for v := 1; v < 6; v++ {
			g.AddEdge(v, rng.Intn(v))
		}
		db[i] = g
	}
	small := New(Options{Bits: 4096})
	big := New(Options{Bits: 8192})
	small.Build(db)
	big.Build(db)
	if big.SizeBytes() <= small.SizeBytes() {
		t.Errorf("8192-bit index (%d B) not larger than 4096-bit (%d B)",
			big.SizeBytes(), small.SizeBytes())
	}
}

func TestNameFilterVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	db := make([]*graph.Graph, 6)
	for i := range db {
		g := graph.New(5)
		for v := 0; v < 5; v++ {
			g.AddVertex(graph.Label(rng.Intn(3)))
		}
		for v := 1; v < 5; v++ {
			g.AddEdge(v, rng.Intn(v))
		}
		db[i] = g
	}
	x := New(DefaultOptions())
	if x.Name() != "CT-Index" {
		t.Errorf("Name = %q", x.Name())
	}
	x.Build(db)
	// self-query: each graph must pass its own filter and verify
	for i, g := range db {
		found := false
		for _, id := range x.Filter(g) {
			if id == int32(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("graph %d filtered out on self-query", i)
		}
		if !x.Verify(g, int32(i)) {
			t.Fatalf("graph %d failed self-verification", i)
		}
	}
	// impossible query: filter must reject everything or verify must fail
	q := graph.New(2)
	q.AddVertex(77)
	q.AddVertex(78)
	q.AddEdge(0, 1)
	for _, id := range x.Filter(q) {
		if x.Verify(q, id) {
			t.Error("phantom verification of off-vocabulary query")
		}
	}
}

func TestQuerySideBudgetTruncationSound(t *testing.T) {
	// query overflow truncates (dataset side saturates — separate test);
	// answers must remain correct either way
	rng := rand.New(rand.NewSource(16))
	db := make([]*graph.Graph, 5)
	for i := range db {
		g := graph.New(8)
		for v := 0; v < 8; v++ {
			g.AddVertex(graph.Label(rng.Intn(2)))
		}
		for u := 0; u < 8; u++ {
			for v := u + 1; v < 8; v++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		db[i] = g
	}
	tiny := New(Options{TreeSize: 6, CycleSize: 8, Bits: 4096, HashCount: 2, TreeBudget: 3, CycleBudget: 3})
	tiny.Build(db) // every dataset graph saturates
	// dense query overflows its budget → truncated fingerprint → still sound
	q, _ := db[0].InducedSubgraph([]int{0, 1, 2, 3, 4})
	cs := tiny.Filter(q)
	found := false
	for _, id := range cs {
		if id == 0 {
			found = true
		}
	}
	if !found {
		t.Error("saturated dataset graph missing from candidates")
	}
}
