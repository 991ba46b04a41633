package index

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trie"
)

// Container micro-benchmarks: the same intersection workloads at three
// membership densities, each run over adaptive containers and the flat
// forced-array baseline. Together with the snapshot-size assertion in
// internal/trie these track the adaptive win (dense intersections are the
// word-AND fast path; sparse must stay at parity with the merge/gallop
// pair). The CI bench smoke job runs them at -benchtime 1x as a liveness
// check; the gated numbers come from `igqbench -experiment containers`.

// densityDataset builds nFeats feature lists where each of nGraphs graphs
// is a member with probability p — uniform scatter, the container choice's
// worst case (no run structure to exploit).
func densityDataset(seed int64, nFeats, nGraphs int, p float64) map[string][]trie.Posting {
	rng := rand.New(rand.NewSource(seed))
	ds := make(map[string][]trie.Posting, nFeats)
	for f := 0; f < nFeats; f++ {
		var ps []trie.Posting
		for g := 0; g < nGraphs; g++ {
			if rng.Float64() < p {
				ps = append(ps, trie.Posting{Graph: int32(g), Count: 1})
			}
		}
		ds[fmt.Sprintf("d:%d", f)] = ps
	}
	return ds
}

var benchRegimes = []struct {
	name string
	p    float64
}{
	{"sparse", 0.01},
	{"moderate", 0.20},
	{"dense", 0.90},
}

var benchPolicies = []struct {
	name   string
	policy trie.ContainerPolicy
}{
	{"adaptive", trie.AdaptiveContainers},
	{"array", trie.ArrayOnlyContainers},
}

var benchSink int

// BenchmarkIntersectViewsDensity measures the raw container intersection
// (the countfilter's inner loop) over four equal-density operands: at
// dense the adaptive side is a pure bitmap word-AND chain, at sparse both
// sides degenerate to the same array merge.
func BenchmarkIntersectViewsDensity(b *testing.B) {
	const nFeats, nGraphs = 4, 1 << 14
	for _, reg := range benchRegimes {
		ds := densityDataset(1, nFeats, nGraphs, reg.p)
		for _, pol := range benchPolicies {
			tr := buildCFTrie(pol.policy, ds)
			views := make([]View, 0, nFeats)
			for k := range ds {
				id, ok := tr.Dict().Lookup(k)
				if !ok {
					b.Fatalf("key %q missing", k)
				}
				views = append(views, View{C: tr.GetByID(id).IDs()})
			}
			b.Run(reg.name+"/"+pol.name, func(b *testing.B) {
				s := new(ViewScratch)
				vbuf := make([]View, len(views))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(vbuf, views) // IntersectViews reorders its copy
					benchSink = len(IntersectViews(vbuf, 0, s))
				}
			})
		}
	}
}

// BenchmarkFilterCountGEDensity measures the full count-filter pass —
// view assembly, intersection, thresholds — per density and policy.
func BenchmarkFilterCountGEDensity(b *testing.B) {
	const nFeats, nGraphs = 4, 1 << 14
	for _, reg := range benchRegimes {
		ds := densityDataset(2, nFeats, nGraphs, reg.p)
		keys := make([]string, 0, nFeats)
		counts := make([]int32, 0, nFeats)
		for k := range ds {
			keys = append(keys, k)
			counts = append(counts, 1)
		}
		for _, pol := range benchPolicies {
			tr := buildCFTrie(pol.policy, ds)
			qf := idSetFor(tr, keys, counts)
			b.Run(reg.name+"/"+pol.name, func(b *testing.B) {
				s := GetCountFilterScratch()
				defer PutCountFilterScratch(s)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = len(FilterCountGE(tr, qf, s))
				}
			})
		}
	}
}

// thresholdedDensityQuery is the density benchmark's dataset with counts
// 1–4 scattered over the postings, queried at wanted counts 2 and 3 — the
// normal case on molecule graphs, where most query features repeat.
func thresholdedDensityQuery(p float64) (map[string][]trie.Posting, []string, []int32) {
	const nFeats, nGraphs = 4, 1 << 14
	ds := densityDataset(3, nFeats, nGraphs, p)
	rng := rand.New(rand.NewSource(4))
	keys := slices.Sorted(maps.Keys(ds))
	counts := make([]int32, len(keys))
	for i, k := range keys {
		for j := range ds[k] {
			ds[k][j].Count = int32(1 + rng.Intn(4))
		}
		counts[i] = int32(2 + i%2)
	}
	return ds, keys, counts
}

// BenchmarkFilterCountGEThresholded is BenchmarkFilterCountGEDensity with
// every feature thresholded: the intersection runs over the unmaterialised
// containers and the counts are checked on its survivors.
func BenchmarkFilterCountGEThresholded(b *testing.B) {
	for _, reg := range benchRegimes {
		ds, keys, counts := thresholdedDensityQuery(reg.p)
		for _, pol := range benchPolicies {
			tr := buildCFTrie(pol.policy, ds)
			qf := idSetFor(tr, keys, counts)
			b.Run(reg.name+"/"+pol.name, func(b *testing.B) {
				s := GetCountFilterScratch()
				defer PutCountFilterScratch(s)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = len(FilterCountGE(tr, qf, s))
				}
			})
		}
	}
}

// TestFilterCountGEThresholdedAllocs: on a warm scratch a thresholded pass
// allocates nothing, whatever the container kind.
func TestFilterCountGEThresholdedAllocs(t *testing.T) {
	for _, reg := range benchRegimes {
		ds, keys, counts := thresholdedDensityQuery(reg.p)
		for _, pol := range benchPolicies {
			tr := buildCFTrie(pol.policy, ds)
			qf := idSetFor(tr, keys, counts)
			s := GetCountFilterScratch()
			if len(FilterCountGE(tr, qf, s)) == 0 && reg.p > 0.1 {
				t.Errorf("%s/%s: premise: no graph passes the thresholds", reg.name, pol.name)
			}
			if allocs := testing.AllocsPerRun(20, func() { benchSink = len(FilterCountGE(tr, qf, s)) }); allocs != 0 {
				t.Errorf("%s/%s: %v allocs per thresholded pass, want 0", reg.name, pol.name, allocs)
			}
			PutCountFilterScratch(s)
		}
	}
}
