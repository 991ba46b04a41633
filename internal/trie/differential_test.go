package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/features"
)

// diffDataset deterministically generates one graph-membership dataset
// covering every container regime: per feature the generator picks tiny
// (≤ smallSetMax members), sparse scatter (array), dense scatter (bitmap)
// or clustered ranges (runs), with occasional non-unit counts so the count
// array is exercised alongside the id containers.
func diffDataset(seed int64, nFeats, nGraphs int) map[string][]Posting {
	rng := rand.New(rand.NewSource(seed))
	ds := make(map[string][]Posting, nFeats)
	for f := 0; f < nFeats; f++ {
		key := fmt.Sprintf("p:%d.%d.%d", f%7, f%5, f)
		var graphs []int32
		switch f % 4 {
		case 0: // tiny
			for g := 0; g < 1+rng.Intn(smallSetMax); g++ {
				graphs = append(graphs, int32(rng.Intn(nGraphs)))
			}
		case 1: // sparse scatter
			for g := 0; g < nGraphs; g++ {
				if rng.Intn(20) == 0 {
					graphs = append(graphs, int32(g))
				}
			}
		case 2: // dense scatter
			for g := 0; g < nGraphs; g++ {
				if rng.Intn(10) != 0 {
					graphs = append(graphs, int32(g))
				}
			}
		default: // clustered runs
			for g := 0; g < nGraphs; {
				runLen := 1 + rng.Intn(40)
				for j := 0; j < runLen && g < nGraphs; j++ {
					graphs = append(graphs, int32(g))
					g++
				}
				g += 1 + rng.Intn(30)
			}
		}
		seen := map[int32]bool{}
		var ps []Posting
		for _, g := range graphs {
			if seen[g] {
				continue
			}
			seen[g] = true
			p := Posting{Graph: g, Count: 1}
			if rng.Intn(5) == 0 {
				p.Count = int32(2 + rng.Intn(4))
			}
			ps = append(ps, p)
		}
		ds[key] = ps
	}
	return ds
}

// buildPolicy inserts ds into a fresh trie under the given policy, in an
// order shuffled by seed (container choice must not depend on it).
func buildPolicy(policy ContainerPolicy, shards int, ds map[string][]Posting, seed int64) *Trie {
	tr := newSegmented(features.NewDict(), shards)
	tr.SetContainerPolicy(policy)
	type ins struct {
		key string
		p   Posting
	}
	var all []ins
	for k, ps := range ds {
		for _, p := range ps {
			all = append(all, ins{k, p})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, in := range all {
		tr.Insert(in.key, in.p)
	}
	return tr
}

// trieFingerprint captures everything observable about a trie's logical
// content: walk order, postings, and the count stats.
func trieFingerprint(tr *Trie) []string {
	out := []string{
		fmt.Sprintf("len=%d dead=%d maxlist=%d",
			tr.Len(), tr.DeadLen(), tr.MaxPostingLen()),
	}
	return append(out, dump(tr)...)
}

// TestAdaptiveMatchesArrayReference is the container-equivalence
// differential: adaptive containers must answer byte-identically to the
// forced-array reference across densities, shard layouts and insertion
// orders, and the adaptive encoding must never report a *larger* in-memory
// posting footprint than the flat arrays on this mixed-density data.
func TestAdaptiveMatchesArrayReference(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				ds := diffDataset(seed, 48, 700)
				adaptive := buildPolicy(AdaptiveContainers, shards, ds, seed)
				reference := buildPolicy(ArrayOnlyContainers, shards, ds, seed)
				if !reflect.DeepEqual(trieFingerprint(adaptive), trieFingerprint(reference)) {
					t.Fatal("adaptive trie diverges from the array reference")
				}
				// Same logical content under a different insertion order must
				// produce the identical canonical representation: every
				// container kind — and hence the SizeBytes accounting — is a
				// pure function of the member set, not of the build path.
				// (Snapshot *bytes* may differ: dictionary IDs, and with them
				// shard assignment, depend on interning order.)
				reordered := buildPolicy(AdaptiveContainers, shards, ds, seed+100)
				if !reflect.DeepEqual(trieFingerprint(adaptive), trieFingerprint(reordered)) {
					t.Error("logical content depends on insertion order")
				}
				if adaptive.SizeBytes() != reordered.SizeBytes() {
					t.Errorf("container choice depends on insertion order: SizeBytes %d vs %d",
						adaptive.SizeBytes(), reordered.SizeBytes())
				}
				if adaptive.SizeBytes() > reference.SizeBytes() {
					t.Errorf("adaptive SizeBytes %d exceeds array reference %d",
						adaptive.SizeBytes(), reference.SizeBytes())
				}
			})
		}
	}
}

// mutateBoth stages the identical mutation batch against both tries and
// applies it, returning the successors.
func mutateBoth(a, b *Trie, seed int64, nGraphs int) (*Trie, *Trie) {
	rng := rand.New(rand.NewSource(seed))
	var appended []GraphFeature
	for f := 0; f < 10; f++ {
		appended = append(appended, GraphFeature{Key: fmt.Sprintf("p:new.%d", rng.Intn(6)), Count: int32(1 + rng.Intn(3))})
	}
	// Scrub a graph that appears in many features: its feature keys are all
	// keys whose posting list contains it.
	victim := int32(rng.Intn(nGraphs))
	var scrub []string
	a.Walk(func(key string, posts []Posting) {
		for _, p := range posts {
			if p.Graph == victim {
				scrub = append(scrub, key)
				return
			}
		}
	})
	out := make([]*Trie, 2)
	for i, tr := range []*Trie{a, b} {
		m := tr.NewMutation()
		m.AppendGraph(int32(nGraphs), appended)
		m.RemoveGraph(victim, victim, scrub, nil)
		out[i] = m.Apply()
	}
	return out[0], out[1]
}

// TestAdaptiveSaveLoadMutateCycle pins equivalence across the full
// save→load→mutate→save lifecycle: after each step the adaptive trie must
// match the forced-array reference, loads must reproduce SizeBytes exactly,
// and re-saving must be byte-stable.
func TestAdaptiveSaveLoadMutateCycle(t *testing.T) {
	ds := diffDataset(11, 40, 500)
	adaptive := buildPolicy(AdaptiveContainers, 4, ds, 11)
	reference := buildPolicy(ArrayOnlyContainers, 4, ds, 11)

	reload := func(src *Trie, policy ContainerPolicy) *Trie {
		t.Helper()
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got := newSegmented(features.NewDict(), 1)
		got.SetContainerPolicy(policy)
		if _, err := got.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if got.SizeBytes() != src.SizeBytes() {
			t.Fatalf("SizeBytes after load %d, saved trie reports %d", got.SizeBytes(), src.SizeBytes())
		}
		return got
	}

	adaptive = reload(adaptive, AdaptiveContainers)
	// Cross-policy load: an array-only reader of the v3 adaptive snapshot
	// promotes every container to a flat array (the same mechanism that
	// promotes v1/v2 snapshots), preserving the logical content.
	crossed := reload(reference, ArrayOnlyContainers)
	if !reflect.DeepEqual(dump(adaptive), dump(crossed)) {
		t.Fatal("adaptive reader and array-only reader disagree after load")
	}

	for round := int64(0); round < 3; round++ {
		nGraphs := 500 + int(round)*1 // one graph appended per round
		adaptive, crossed = mutateBoth(adaptive, crossed, 77+round, nGraphs)
		if !reflect.DeepEqual(trieFingerprint(adaptive), trieFingerprint(crossed)) {
			t.Fatalf("round %d: adaptive diverges from array reference after mutation", round)
		}
		adaptive = reload(adaptive, AdaptiveContainers)
		var s1, s2 bytes.Buffer
		if _, err := adaptive.WriteTo(&s1); err != nil {
			t.Fatal(err)
		}
		if _, err := adaptive.WriteTo(&s2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
			t.Fatalf("round %d: re-save is not byte-stable", round)
		}
	}
}
