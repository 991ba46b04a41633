package features

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPathsRangePartitionEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomGraph(rng, 30, 0.15, 3)
	opt := PathOptions{MaxLen: 3}
	d := NewDict()
	whole := keyCounts(d, PathsID(g, opt, d, NewScratch(), true))

	// any 3-way partition of the start-vertex range must sum to the whole,
	// on the warm table and on a fresh one
	for _, d := range []*Dict{d, NewDict()} {
		merged := make(map[string]int)
		for _, c := range [][2]int{{0, 7}, {7, 19}, {19, 30}} {
			for k, n := range keyCounts(d, PathsIDRange(g, opt, d, NewScratch(), true, c[0], c[1])) {
				merged[k] += n
			}
		}
		if !reflect.DeepEqual(whole, merged) {
			t.Fatal("partitioned counts differ from whole enumeration")
		}
	}
}

func TestPathsRangeClampsBounds(t *testing.T) {
	g := pathGraph(1, 2, 3)
	d, s := NewDict(), NewScratch()
	a := keyCounts(d, PathsIDRange(g, PathOptions{MaxLen: 2}, d, s, true, -5, 99))
	if !reflect.DeepEqual(a, pathCounts(g, 2)) {
		t.Error("out-of-range bounds not clamped")
	}
	empty := PathsIDRange(g, PathOptions{MaxLen: 2}, d, s, true, 2, 2)
	if len(empty.Counts) != 0 || empty.Unknown != 0 {
		t.Errorf("empty range produced features: %v", empty)
	}
}
