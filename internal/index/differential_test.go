package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/trie"
)

// cfDataset builds one membership table covering every container regime:
// tiny sets, sparse scatter, dense scatter and clustered runs, with a few
// non-unit counts (2–4, on a third of the postings) so thresholds have
// something to keep.
func cfDataset(seed int64, nFeats, nGraphs int) map[string][]trie.Posting {
	rng := rand.New(rand.NewSource(seed))
	ds := make(map[string][]trie.Posting, nFeats)
	for f := 0; f < nFeats; f++ {
		key := fmt.Sprintf("q:%d.%d", f%9, f)
		var ps []trie.Posting
		add := func(g int) {
			p := trie.Posting{Graph: int32(g), Count: 1}
			if rng.Intn(3) == 0 {
				p.Count = int32(2 + rng.Intn(3))
			}
			ps = append(ps, p)
		}
		switch f % 4 {
		case 0:
			for g := 0; g < 1+rng.Intn(4); g++ {
				add(rng.Intn(nGraphs))
			}
		case 1:
			for g := 0; g < nGraphs; g++ {
				if rng.Intn(15) == 0 {
					add(g)
				}
			}
		case 2:
			for g := 0; g < nGraphs; g++ {
				if rng.Intn(8) != 0 {
					add(g)
				}
			}
		default:
			for g := 0; g < nGraphs; {
				for j, n := 0, 1+rng.Intn(50); j < n && g < nGraphs; j++ {
					add(g)
					g++
				}
				g += 1 + rng.Intn(40)
			}
		}
		ds[key] = ps
	}
	return ds
}

func buildCFTrie(policy trie.ContainerPolicy, ds map[string][]trie.Posting) *trie.Trie {
	tr := trie.New()
	tr.SetContainerPolicy(policy)
	for k, ps := range ds {
		for _, p := range ps {
			tr.Insert(k, p)
		}
	}
	return tr
}

// idSetFor resolves a key/count query against one trie's dictionary.
func idSetFor(tr *trie.Trie, keys []string, counts []int32) features.IDSet {
	var qf features.IDSet
	for i, k := range keys {
		id, ok := tr.Dict().Lookup(k)
		if !ok {
			qf.Unknown++
			continue
		}
		qf.Counts = append(qf.Counts, features.IDCount{ID: id, Count: counts[i]})
	}
	return qf
}

// naiveCountGE is the per-graph definition FilterCountGE must agree with: a
// graph qualifies when, for every query key, it holds a posting whose count
// reaches the wanted one. It reads the raw membership table, not a trie.
func naiveCountGE(ds map[string][]trie.Posting, keys []string, counts []int32) []int32 {
	n := 0
	for _, k := range keys {
		for _, p := range ds[k] {
			n = max(n, int(p.Graph)+1)
		}
	}
	ok := make([]bool, n)
	for i := range ok {
		ok[i] = true
	}
	for i, k := range keys {
		have := make([]int32, n)
		for _, p := range ds[k] {
			have[p.Graph] = p.Count
		}
		for g := range ok {
			ok[g] = ok[g] && have[g] >= max(counts[i], 1)
		}
	}
	var out []int32
	for g, keep := range ok {
		if keep {
			out = append(out, int32(g))
		}
	}
	return out
}

// checkCountGE probes tr on scratch s and compares with the naive check.
func checkCountGE(t *testing.T, name string, tr *trie.Trie, ds map[string][]trie.Posting, keys []string, counts []int32, s *CountFilterScratch) {
	t.Helper()
	got := FilterCountGE(tr, idSetFor(tr, keys, counts), s)
	if want := naiveCountGE(ds, keys, counts); !slices.Equal(got, want) {
		t.Fatalf("%s: query %v/%v: got %v, per-graph check %v", name, keys, counts, got, want)
	}
}

// TestFilterCountGEAdaptiveMatchesArray is the read-path differential:
// FilterCountGE over adaptive containers must return the identical
// candidate list as over the forced-array reference — and both the list a
// per-graph count check yields — across probe costs, feature
// mixes and wanted counts 0–4: the bitmap word-AND chain, container probes
// and the threshold pass over array, bitmap and run containers.
func TestFilterCountGEAdaptiveMatchesArray(t *testing.T) {
	ds := cfDataset(5, 36, 900)
	var allKeys []string
	for k := range ds {
		allKeys = append(allKeys, k)
	}
	adaptive := buildCFTrie(trie.AdaptiveContainers, ds)
	reference := buildCFTrie(trie.ArrayOnlyContainers, ds)
	for _, probeCost := range []int{0, 1, 4} {
		adaptive.SetGallopProbeCost(probeCost)
		reference.SetGallopProbeCost(probeCost)
		rng := rand.New(rand.NewSource(int64(10 + probeCost)))
		for q := 0; q < 200; q++ {
			nk := 1 + rng.Intn(5)
			keys := make([]string, nk)
			counts := make([]int32, nk)
			for i := range keys {
				keys[i] = allKeys[rng.Intn(len(allKeys))]
				counts[i] = int32(rng.Intn(5))
			}
			sa := GetCountFilterScratch()
			ga := FilterCountGE(adaptive, idSetFor(adaptive, keys, counts), sa)
			ga = append([]int32(nil), ga...)
			PutCountFilterScratch(sa)
			sr := GetCountFilterScratch()
			gr := FilterCountGE(reference, idSetFor(reference, keys, counts), sr)
			gr = append([]int32(nil), gr...)
			PutCountFilterScratch(sr)
			if !reflect.DeepEqual(ga, gr) {
				t.Fatalf("probeCost=%d query %v/%v: adaptive %v != reference %v",
					probeCost, keys, counts, ga, gr)
			}
			if want := naiveCountGE(ds, keys, counts); !slices.Equal(ga, want) {
				t.Fatalf("probeCost=%d query %v/%v: got %v, per-graph check %v",
					probeCost, keys, counts, ga, want)
			}
		}
	}
}

// TestFilterCountGEDenseFold drives one fold over six dense lists of 3×8 192
// graphs — bitmap territory, every list and the survivors far larger than
// any list on the benchmark workloads — and pins it against the array
// reference and the per-graph check, with counts 1–4 on the postings and
// thresholds 1–3 in the query so the survivors go through the threshold
// pass too.
func TestFilterCountGEDenseFold(t *testing.T) {
	const nGraphs = 3 * 8192
	rng := rand.New(rand.NewSource(17))
	ds := make(map[string][]trie.Posting)
	for f := 0; f < 6; f++ {
		var ps []trie.Posting
		for g := 0; g < nGraphs; g++ {
			if rng.Intn(8) != 0 { // dense: bitmap territory
				ps = append(ps, trie.Posting{Graph: int32(g), Count: int32(1 + rng.Intn(4))})
			}
		}
		ds[fmt.Sprintf("big:%d", f)] = ps
	}
	adaptive := buildCFTrie(trie.AdaptiveContainers, ds)
	reference := buildCFTrie(trie.ArrayOnlyContainers, ds)
	keys := make([]string, 0, len(ds))
	counts := make([]int32, 0, len(ds))
	for k := range ds {
		keys = append(keys, k)
		counts = append(counts, int32(1+len(keys)%3))
	}
	sa := GetCountFilterScratch()
	ga := append([]int32(nil), FilterCountGE(adaptive, idSetFor(adaptive, keys, counts), sa)...)
	PutCountFilterScratch(sa)
	sr := GetCountFilterScratch()
	gr := append([]int32(nil), FilterCountGE(reference, idSetFor(reference, keys, counts), sr)...)
	PutCountFilterScratch(sr)
	if len(ga) == 0 {
		t.Fatal("premise: dense intersection came back empty")
	}
	if !reflect.DeepEqual(ga, gr) {
		t.Fatalf("adaptive result diverges: %d vs %d candidates", len(ga), len(gr))
	}
	if want := naiveCountGE(ds, keys, counts); !slices.Equal(ga, want) {
		t.Fatalf("result diverges from the per-graph check: %d vs %d candidates", len(ga), len(want))
	}
}

// boundaryDataset is four hand-built lists, one per container kind plus a
// longer dense one, whose members sit on the first and last bits of bitmap
// words and whose counts cycle through 1–4.
func boundaryDataset() map[string][]trie.Posting {
	count := func(g int) int32 { return int32(1 + g%4) }
	ds := map[string][]trie.Posting{}
	for g := 0; g < 192; g++ {
		if g%5 != 3 { // dense with holes: a bitmap; 0, 63, 64, 127, 128 and 191 are members
			ds["b:bitmap"] = append(ds["b:bitmap"], trie.Posting{Graph: int32(g), Count: count(g)})
		}
	}
	for _, g := range []int{0, 63, 64, 127, 128, 191, 300, 1000} { // sparse: an array
		ds["b:array"] = append(ds["b:array"], trie.Posting{Graph: int32(g), Count: count(g + 1)})
	}
	for _, r := range [][2]int{{0, 70}, {120, 200}, {990, 1010}} { // clustered: runs
		for g := r[0]; g <= r[1]; g++ {
			ds["b:runs"] = append(ds["b:runs"], trie.Posting{Graph: int32(g), Count: count(g + 2)})
		}
	}
	for g := 0; g < 1200; g++ {
		if g%7 != 0 || g%64 == 0 || g%64 == 63 {
			ds["b:long"] = append(ds["b:long"], trie.Posting{Graph: int32(g), Count: count(g + 3)})
		}
	}
	return ds
}

// boundaryQueries enumerates every non-empty subset of the boundary lists
// under every assignment of wanted counts 1–4.
func boundaryQueries(fn func(keys []string, counts []int32)) {
	all := []string{"b:bitmap", "b:array", "b:runs", "b:long"}
	for mask := 1; mask < 1<<len(all); mask++ {
		var keys []string
		for i, k := range all {
			if mask&(1<<i) != 0 {
				keys = append(keys, k)
			}
		}
		counts := make([]int32, len(keys))
		for code := 0; code < 1<<(2*len(keys)); code++ {
			for i := range counts {
				counts[i] = int32(1 + code>>(2*i)&3)
			}
			fn(keys, counts)
		}
	}
}

// TestFilterCountGEThresholdBoundaries runs every boundary query against
// the per-graph check: on built tries of both policies,
// on a lazily opened trie whose 1-byte budget evicts every list as soon as
// the next one is decoded, and across a copy-on-write mutation probed
// between two probes of its base — all on one scratch.
func TestFilterCountGEThresholdBoundaries(t *testing.T) {
	ds := boundaryDataset()
	s := GetCountFilterScratch()
	defer PutCountFilterScratch(s)

	for _, pol := range benchPolicies {
		tr := buildCFTrie(pol.policy, ds)
		if pol.policy == trie.AdaptiveContainers {
			for key, want := range map[string]trie.ContainerKind{"b:bitmap": trie.KindBitmap, "b:array": trie.KindArray, "b:runs": trie.KindRuns} {
				id, _ := tr.Dict().Lookup(key)
				if got := tr.GetByID(id).IDs().Kind(); got != want {
					t.Fatalf("premise: %s is stored as %v, want %v", key, got, want)
				}
			}
		}
		boundaryQueries(func(keys []string, counts []int32) {
			checkCountGE(t, pol.name, tr, ds, keys, counts, s)
		})
	}

	built := buildCFTrie(trie.AdaptiveContainers, ds)
	built.SetSegments(4)
	var snap bytes.Buffer
	if _, err := built.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	lazy := trie.New()
	if _, _, err := lazy.OpenLazy(bytes.NewReader(snap.Bytes()), trie.LazyOptions{BudgetBytes: 1}); err != nil {
		t.Fatal(err)
	}
	boundaryQueries(func(keys []string, counts []int32) {
		checkCountGE(t, "lazy, 1-byte budget", lazy, ds, keys, counts, s)
	})
	if r := lazy.Residency(); r.Evictions == 0 {
		t.Errorf("premise: the 1-byte budget evicted nothing (%+v)", r)
	}

	// One more graph joins two of the lists, with a count that passes every
	// threshold; the base must keep answering without it.
	const newGraph = 1200
	mut := built.NewMutation()
	mut.AppendGraph(newGraph, []trie.GraphFeature{{Key: "b:array", Count: 4}, {Key: "b:long", Count: 4}})
	mutated := mut.Apply()
	ds2 := map[string][]trie.Posting{"b:bitmap": ds["b:bitmap"], "b:runs": ds["b:runs"]}
	for _, k := range []string{"b:array", "b:long"} {
		ds2[k] = append(slices.Clone(ds[k]), trie.Posting{Graph: newGraph, Count: 4})
	}
	boundaryQueries(func(keys []string, counts []int32) {
		checkCountGE(t, "base before", built, ds, keys, counts, s)
		checkCountGE(t, "mutated", mutated, ds2, keys, counts, s)
		checkCountGE(t, "base after", built, ds, keys, counts, s)
	})
}
