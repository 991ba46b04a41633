package core

import (
	"math"
	"testing"
)

// creditHit records a hit that pruned the given candidate dataset graphs
// for a query with queryNodes vertices. targetSizes lists the vertex counts
// of the pruned graphs; labels is the label-domain size for the cost model.
func (e *entry) creditHit(queryNodes int, targetSizes []int, labels int) {
	delta := math.Inf(-1)
	for _, ni := range targetSizes {
		delta = LogSumExp(delta, LogIsoCost(queryNodes, ni, labels))
	}
	e.applyCredit(delta)
}

func TestLogIsoCostSmallValuesMatchDirect(t *testing.T) {
	// for small Ni the closed form is computable directly:
	// c = Ni * Ni! / (L^(n+1) * (Ni-n)!)
	fact := func(n int) float64 {
		f := 1.0
		for i := 2; i <= n; i++ {
			f *= float64(i)
		}
		return f
	}
	cases := []struct{ n, ni, l int }{
		{2, 5, 3}, {3, 8, 2}, {1, 4, 10}, {4, 4, 2}, {5, 20, 6},
	}
	for _, c := range cases {
		direct := float64(c.ni) * fact(c.ni) / (math.Pow(float64(c.l), float64(c.n+1)) * fact(c.ni-c.n))
		got := LogIsoCost(c.n, c.ni, c.l)
		want := math.Log(direct)
		if math.Abs(got-want) > 1e-9*math.Abs(want)+1e-9 {
			t.Errorf("LogIsoCost(%d,%d,%d) = %v, want %v", c.n, c.ni, c.l, got, want)
		}
	}
}

func TestLogIsoCostInfeasible(t *testing.T) {
	if !math.IsInf(LogIsoCost(5, 3, 2), -1) {
		t.Error("target smaller than query should cost -Inf")
	}
	if !math.IsInf(LogIsoCost(1, 0, 2), -1) {
		t.Error("empty target should cost -Inf")
	}
}

func TestLogIsoCostNoOverflowOnHugeGraphs(t *testing.T) {
	// PDBS-scale graphs: thousands of vertices — the raison d'être of the
	// log-space formulation.
	got := LogIsoCost(20, 16431, 10)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("huge-graph cost not finite: %v", got)
	}
	if got <= 0 {
		t.Errorf("huge-graph log-cost suspiciously small: %v", got)
	}
}

func TestLogIsoCostMonotoneInTargetSize(t *testing.T) {
	prev := LogIsoCost(10, 50, 5)
	for ni := 100; ni <= 3200; ni *= 2 {
		cur := LogIsoCost(10, ni, 5)
		if cur <= prev {
			t.Fatalf("cost not increasing with target size at Ni=%d", ni)
		}
		prev = cur
	}
}

func TestLogIsoCostSingleLabelDomain(t *testing.T) {
	// L <= 1 must degrade to ln L = 0, not NaN
	got := LogIsoCost(2, 4, 1)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("L=1 cost = %v", got)
	}
	if g0 := LogIsoCost(2, 4, 0); g0 != got {
		t.Errorf("L=0 should behave like L=1: %v vs %v", g0, got)
	}
}

func TestLogSumExp(t *testing.T) {
	negInf := math.Inf(-1)
	if got := LogSumExp(negInf, negInf); !math.IsInf(got, -1) {
		t.Errorf("LSE(-Inf,-Inf) = %v", got)
	}
	if got := LogSumExp(negInf, 3); got != 3 {
		t.Errorf("LSE(-Inf,3) = %v", got)
	}
	if got := LogSumExp(2, negInf); got != 2 {
		t.Errorf("LSE(2,-Inf) = %v", got)
	}
	// ln(e^1 + e^1) = 1 + ln 2
	want := 1 + math.Log(2)
	if got := LogSumExp(1, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("LSE(1,1) = %v, want %v", got, want)
	}
	// asymmetric, large spread: should be ≈ max
	if got := LogSumExp(1000, 1); math.Abs(got-1000) > 1e-9 {
		t.Errorf("LSE(1000,1) = %v", got)
	}
	// order independence
	if LogSumExp(5, 7) != LogSumExp(7, 5) {
		t.Error("LSE not symmetric")
	}
}

func TestEntryUtilityOrdering(t *testing.T) {
	// an entry with credited hits must out-rank one without
	a := newEntry(1, tinyGraph(), nil, 0)
	b := newEntry(2, tinyGraph(), nil, 0)
	a.creditHit(4, []int{100, 200}, 10)
	seq := int64(50)
	if a.logUtility(seq) <= b.logUtility(seq) {
		t.Error("credited entry should have higher utility")
	}
	// same cost, older entry (larger M) has lower utility
	c := newEntry(3, tinyGraph(), nil, 0)
	d := newEntry(4, tinyGraph(), nil, 40)
	c.creditHit(4, []int{100}, 10)
	d.creditHit(4, []int{100}, 10)
	if c.logUtility(seq) >= d.logUtility(seq) {
		t.Error("older entry with equal cost should have lower utility")
	}
}

func TestEvictionOrderDeterministicTies(t *testing.T) {
	es := []*entry{
		newEntry(5, tinyGraph(), nil, 10),
		newEntry(2, tinyGraph(), nil, 10),
		newEntry(9, tinyGraph(), nil, 3),
	}
	order := evictionOrder(es, 20)
	// all have -Inf utility; oldest first (insertedAt 3), then id order
	if order[0].id != 9 || order[1].id != 2 || order[2].id != 5 {
		t.Errorf("eviction order = %d,%d,%d", order[0].id, order[1].id, order[2].id)
	}
}

func TestEntryCreditAccounting(t *testing.T) {
	e := newEntry(1, tinyGraph(), nil, 0)
	e.creditHit(4, []int{10, 20, 30}, 5)
	c := e.loadLogCost()
	if math.IsInf(c, -1) {
		t.Error("logCost still -Inf after credited removals")
	}
	e.creditHit(4, nil, 5) // a hit that removed nothing adds no cost
	if got := e.loadLogCost(); got != c {
		t.Errorf("logCost moved from %v to %v on a hit that removed nothing", c, got)
	}
}
