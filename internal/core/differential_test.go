package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/contain"
	"repro/internal/index/ggsx"
	"repro/internal/index/grapes"
	"repro/internal/iso"
	wl "repro/internal/workload"
)

// newSuperRefMethod is the supergraph method the core suites wrap: the
// containment read over a path index of its own, with the shared-dictionary
// fast path.
func newSuperRefMethod() index.Method { return contain.New(contain.DefaultOptions()) }

// The seed implementation computed candidates from string-keyed feature
// maps. This file keeps that path alive as a reference oracle: before every
// Query, refOutcome recomputes the answer and the pruning counters over the
// IGQ's current cache snapshot using brute-force string-feature comparisons
// and the method's legacy Filter, and the outcome of the interned-ID
// pipeline must match it exactly.

// refFeatures enumerates string-keyed path features (the seed
// representation): PathsID over a private dictionary, which knows every
// key, rendered back with Dict.Key.
func refFeatures(g *graph.Graph, maxLen int) map[string]int {
	d := features.NewDict()
	out := make(map[string]int)
	for _, f := range features.PathsID(g, features.PathOptions{MaxLen: maxLen}, d, features.NewScratch(), true).Counts {
		out[d.Key(f.ID)] = int(f.Count)
	}
	return out
}

// refOutcome replays the Fig 6 pipeline over q's indexed entries with
// string-based feature filtering. It must not mutate q.
func refOutcome(q *IGQ, g *graph.Graph) (answer []int32, subHits, superHits, finalCands int, short ShortCircuit) {
	maxLen := q.opt.MaxPathLen
	qCounts := refFeatures(g, maxLen)
	qfp := graph.Fingerprint(g)

	// Entries are named by their position in the snapshot, in admission
	// order, as the cache-side index names them.
	entries := q.snap.Load().entries
	entryFeats := make([]map[string]int, len(entries))
	for pos, e := range entries {
		entryFeats[pos] = refFeatures(e.g, maxLen)
	}

	// Candidate generation, seed-style: brute-force count comparisons.
	var subCands, superCands []int32
	if !q.opt.DisableSub {
		for pos := range entries {
			ok := true
			for f, need := range qCounts {
				if entryFeats[pos][f] < need {
					ok = false
					break
				}
			}
			if ok {
				subCands = append(subCands, int32(pos))
			}
		}
	}
	if !q.opt.DisableSuper {
		for pos := range entries {
			ok := true
			for f, o := range entryFeats[pos] {
				if qCounts[f] < o {
					ok = false
					break
				}
			}
			if ok {
				superCands = append(superCands, int32(pos))
			}
		}
	}

	cs := normalizeIDs(q.m.Filter(g))

	nv, ne := g.NumVertices(), g.NumEdges()
	sameSize := func(e *entry) bool { return e.g.NumVertices() == nv && e.g.NumEdges() == ne }

	for _, pos := range index.UnionSorted(subCands, superCands) {
		e := entries[pos]
		if sameSize(e) && e.fp == qfp && iso.Reference(g, e.g) {
			if len(e.answer) > 0 {
				answer = append([]int32(nil), e.answer...)
			}
			return answer, 1, 1, 0, IdenticalHit
		}
	}

	subIsUnion := q.opt.Mode == SubgraphQueries
	var subEntries, superEntries []*entry
	for _, pos := range subCands {
		e := entries[pos]
		if sameSize(e) || (subIsUnion && len(e.answer) == 0) {
			continue
		}
		if iso.Reference(g, e.g) {
			subEntries = append(subEntries, e)
		}
	}
	for _, pos := range superCands {
		e := entries[pos]
		if sameSize(e) || (!subIsUnion && len(e.answer) == 0) {
			continue
		}
		if iso.Reference(e.g, g) {
			superEntries = append(superEntries, e)
		}
	}
	subHits, superHits = len(subEntries), len(superEntries)

	unionSide, intersectSide := subEntries, superEntries
	if q.opt.Mode == SupergraphQueries {
		unionSide, intersectSide = superEntries, subEntries
	}
	for _, e := range intersectSide {
		if len(e.answer) == 0 {
			return nil, subHits, superHits, 0, EmptyAnswerHit
		}
	}

	pruned := cs
	for _, e := range unionSide {
		pruned = index.SubtractSorted(pruned, e.answer)
	}
	for _, e := range intersectSide {
		pruned = index.IntersectSorted(pruned, e.answer)
	}
	finalCands = len(pruned)

	var verified []int32
	for _, id := range pruned {
		if q.m.Verify(g, id) {
			verified = append(verified, id)
		}
	}
	answer = verified
	for _, e := range unionSide {
		answer = index.UnionSorted(answer, e.answer)
	}
	if len(answer) == 0 {
		answer = nil
	}
	return answer, subHits, superHits, finalCands, NoShortCircuit
}

// diffWorkload mixes the §7.1 generator with nested BFS prefixes so the
// stream is rich in identical, subgraph and supergraph relationships.
func diffWorkload(rng *rand.Rand, db []*graph.Graph, n int) []*graph.Graph {
	spec := wl.Spec{NumQueries: n / 2, GraphDist: wl.Zipf, NodeDist: wl.Zipf, Alpha: 1.6, Seed: rng.Int63()}
	var qs []*graph.Graph
	for _, wq := range wl.Generate(db, spec) {
		qs = append(qs, wq.G)
	}
	qs = append(qs, workload2(rng, db, n-len(qs))...)
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// workload2 emits nested prefix families (same shape as igq_test's helper).
func workload2(rng *rand.Rand, db []*graph.Graph, n int) []*graph.Graph {
	var qs []*graph.Graph
	for len(qs) < n {
		g := db[rng.Intn(len(db))]
		if g.NumVertices() == 0 {
			continue
		}
		order := g.BFSOrder(rng.Intn(g.NumVertices()))
		for _, k := range []int{2, 3, 5} {
			if len(qs) == n {
				break
			}
			if k > len(order) {
				k = len(order)
			}
			sub, _ := g.InducedSubgraph(order[:k])
			qs = append(qs, sub)
		}
	}
	return qs
}

func runDifferential(t *testing.T, m index.Method, mode Mode, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := buildDB(rng, 30)
	m.Build(db)
	q := New(m, db, Options{CacheSize: 20, Window: 5, Mode: mode})
	for i, g := range diffWorkload(rng, db, 120) {
		wantAns, wantSub, wantSuper, wantFinal, wantShort := refOutcome(q, g)
		out := q.Query(g)
		if !reflect.DeepEqual(out.Answer, wantAns) {
			t.Fatalf("query %d: Answer = %v, reference %v", i, out.Answer, wantAns)
		}
		if out.SubHits != wantSub || out.SuperHits != wantSuper {
			t.Fatalf("query %d: hits = (%d,%d), reference (%d,%d)",
				i, out.SubHits, out.SuperHits, wantSub, wantSuper)
		}
		if out.FinalCandidates != wantFinal {
			t.Fatalf("query %d: FinalCandidates = %d, reference %d", i, out.FinalCandidates, wantFinal)
		}
		if out.Short != wantShort {
			t.Fatalf("query %d: Short = %v, reference %v", i, out.Short, wantShort)
		}
	}
}

func TestDifferentialVsStringPipelineGGSX(t *testing.T) {
	runDifferential(t, ggsx.New(ggsx.DefaultOptions()), SubgraphQueries, 1)
}

func TestDifferentialVsStringPipelineGrapes(t *testing.T) {
	runDifferential(t, grapes.New(grapes.DefaultOptions()), SubgraphQueries, 2)
}

func TestDifferentialVsStringPipelineSupergraph(t *testing.T) {
	runDifferential(t, newSuperRefMethod(), SupergraphQueries, 3)
}

func TestDifferentialBruteForceNoDict(t *testing.T) {
	// BruteForce exposes no dictionary, exercising the unshared-dict path
	// where iGQ owns a private interner and falls back to m.Filter.
	runDifferential(t, index.NewBruteForce(), SubgraphQueries, 4)
}
