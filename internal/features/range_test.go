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
	whole := Paths(g, opt)

	// any 3-way partition of the start-vertex range must merge to the whole
	cuts := [][2]int{{0, 7}, {7, 19}, {19, 30}}
	merged := PathsRange(g, opt, cuts[0][0], cuts[0][1])
	for _, c := range cuts[1:] {
		MergePathSets(merged, PathsRange(g, opt, c[0], c[1]))
	}
	if !reflect.DeepEqual(whole.Counts, merged.Counts) {
		t.Fatal("partitioned counts differ from whole enumeration")
	}
}

func TestPathsRangeClampsBounds(t *testing.T) {
	g := pathGraph(1, 2, 3)
	a := PathsRange(g, PathOptions{MaxLen: 2}, -5, 99)
	b := Paths(g, PathOptions{MaxLen: 2})
	if !reflect.DeepEqual(a.Counts, b.Counts) {
		t.Error("out-of-range bounds not clamped")
	}
	empty := PathsRange(g, PathOptions{MaxLen: 2}, 2, 2)
	if len(empty.Counts) != 0 {
		t.Errorf("empty range produced features: %v", empty.Counts)
	}
}

func TestMergePathSetsAccumulates(t *testing.T) {
	dst := &PathSet{Counts: map[string]int{"p:1": 2}}
	src := &PathSet{Counts: map[string]int{"p:1": 3, "p:2": 1}}
	MergePathSets(dst, src)
	if dst.Counts["p:1"] != 5 || dst.Counts["p:2"] != 1 {
		t.Errorf("merged counts = %v", dst.Counts)
	}
}
