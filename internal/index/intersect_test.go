package index

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func sortedUnique(rng *rand.Rand, n, max int) []int32 {
	seen := map[int32]bool{}
	for len(seen) < n {
		seen[int32(rng.Intn(max))] = true
	}
	out := make([]int32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestGallopingMatchesLinear: IntersectIntoCost equals the linear merge at
// skews on both sides of the switchover, so both of its branches run.
func TestGallopingMatchesLinear(t *testing.T) {
	gallops, merges := 0, 0
	f := func(seedA, seedB uint16) bool {
		rng := rand.New(rand.NewSource(int64(seedA)*65536 + int64(seedB)))
		a := sortedUnique(rng, 1+rng.Intn(20), 4000)
		b := sortedUnique(rng, 1+rng.Intn(800), 4000)
		if shouldGallopCost(min(len(a), len(b)), max(len(a), len(b)), DefaultGallopProbeCost) {
			gallops++
		} else {
			merges++
		}
		want := IntersectSorted(a, b)
		if got := IntersectIntoCost(nil, a, b, 0); !equalIDs(got, want) {
			t.Logf("a=%v b=%v got=%v want=%v", a, b, got, want)
			return false
		}
		if got := IntersectIntoCost(nil, b, a, 0); !equalIDs(got, want) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if gallops == 0 || merges == 0 {
		t.Errorf("%d galloping and %d merging pairs, want both branches taken", gallops, merges)
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestShouldGallopModel(t *testing.T) {
	// The calibrated model must keep the merge below the measured crossover
	// (skew ≤ 4) and gallop above it (skew ≥ 8), at any list scale.
	for _, la := range []int{4, 16, 64, 256, 4096} {
		if shouldGallopCost(la, 2*la, DefaultGallopProbeCost) || shouldGallopCost(la, 4*la, DefaultGallopProbeCost) {
			t.Errorf("la=%d: galloping chosen below the crossover", la)
		}
		if !shouldGallopCost(la, 8*la, DefaultGallopProbeCost) || !shouldGallopCost(la, 512*la, DefaultGallopProbeCost) {
			t.Errorf("la=%d: merge chosen above the crossover", la)
		}
	}
	if shouldGallopCost(0, 100, DefaultGallopProbeCost) {
		t.Error("empty short side must never gallop")
	}
}

// Benchmarks: a skewed pair (the shape selectivity ordering produces), a
// balanced pair (where the linear merge should win), and a moderate-skew
// pair near the adaptive switchover.

func benchLists(nA, nB int) (a, b []int32) {
	rng := rand.New(rand.NewSource(3))
	return sortedUnique(rng, nA, 10*nB), sortedUnique(rng, nB, 10*nB)
}

// BenchmarkIntersectModerateSkew sits just above the adaptive switchover
// (skew 8): IntersectIntoCost must track the galloping side here, where the old
// fixed ratio was calibrated and the adaptive model must not regress.
func BenchmarkIntersectModerateSkew(b *testing.B) {
	x, y := benchLists(256, 2048)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = IntersectIntoCost(buf, x, y, 0)
	}
}

func BenchmarkIntersectSortedSkewed(b *testing.B) {
	x, y := benchLists(16, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectSorted(x, y)
	}
}

func BenchmarkIntersectGallopingSkewed(b *testing.B) {
	x, y := benchLists(16, 8192)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = IntersectIntoCost(buf, x, y, 0)
	}
}

func BenchmarkIntersectSortedBalanced(b *testing.B) {
	x, y := benchLists(4096, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectSorted(x, y)
	}
}

func BenchmarkIntersectIntoBalanced(b *testing.B) {
	x, y := benchLists(4096, 4096)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = IntersectIntoCost(buf, x, y, 0)
	}
}
