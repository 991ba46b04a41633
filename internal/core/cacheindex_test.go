package core

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ggsx"
)

// The cache-side index is checked against the definition of the two
// candidate sets, computed from string-keyed features that never pass
// through the dictionary, the entries' owned features or the index:
//
//	sub(q)   = { e : ∀ f ∈ q, cnt_e(f) ≥ cnt_q(f) }   — e may contain q
//	super(q) = { e : ∀ f ∈ e, cnt_e(f) ≤ cnt_q(f) }   — e may be contained in q
//
// as ascending positions in the snapshot's entries.

// oracleCoverage is what a check's probes exercised, so that a caller can
// assert it was not vacuous.
type oracleCoverage struct{ sub, super, unknown int }

// checkCacheIndex checks the current snapshot's index on every probe.

func checkCacheIndex(t *testing.T, q *IGQ, probes []*graph.Graph, when string) (cov oracleCoverage) {
	t.Helper()
	snap := q.snap.Load()
	maxLen := q.opt.MaxPathLen
	ef := make([]map[string]int, len(snap.entries))
	for pos, e := range snap.entries {
		ef[pos] = refFeatures(e.g, maxLen)
		if pos > 0 && snap.entries[pos-1].id >= e.id {
			t.Fatalf("%s: entries out of admission order at position %d", when, pos)
		}
	}
	sc := q.getScratch()
	defer q.putScratch(sc)
	for pi, g := range probes {
		qc := refFeatures(g, maxLen)
		var wantSub, wantSuper []int32
		for pos := range snap.entries {
			sub, super := true, true
			for f, n := range qc {
				if ef[pos][f] < n {
					sub = false
				}
			}
			for f, n := range ef[pos] {
				if n > qc[f] {
					super = false
				}
			}
			if sub {
				wantSub = append(wantSub, int32(pos))
			}
			if super {
				wantSuper = append(wantSuper, int32(pos))
			}
		}
		qf := features.PathsID(g, features.PathOptions{MaxLen: maxLen}, q.dict, sc.feat, false)
		gotSub, gotSuper := snap.index.candidates(qf, sc)
		if !slices.Equal(gotSub, wantSub) {
			t.Fatalf("%s: probe %d (unknown=%d): sub candidates %v, definition %v", when, pi, qf.Unknown, gotSub, wantSub)
		}
		if !slices.Equal(gotSuper, wantSuper) {
			t.Fatalf("%s: probe %d (unknown=%d): super candidates %v, definition %v", when, pi, qf.Unknown, gotSuper, wantSuper)
		}
		cov.sub += len(wantSub)
		cov.super += len(wantSuper)
		if qf.Unknown > 0 {
			cov.unknown++
		}
	}
	return cov
}

// oracleProbes mixes what the cache holds (identical), pieces of it (sub
// side), dataset graphs (super side), the empty query, and graphs over
// labels the dataset never uses (features unknown to the method's
// dictionary, and to a private one until a flush interns them).
func oracleProbes(rng *rand.Rand, q *IGQ, db []*graph.Graph) []*graph.Graph {
	probes := []*graph.Graph{graph.New(0)}
	for _, e := range q.snap.Load().entries {
		probes = append(probes, e.g)
		if e.g.NumVertices() > 1 {
			probes = append(probes, connectedQuery(rng, e.g, 1+rng.Intn(e.g.NumVertices()-1)))
		}
	}
	probes = append(probes, db[:min(len(db), 8)]...)
	probes = append(probes, workload(rng, db, 10)...)
	for i := 0; i < 4; i++ {
		probes = append(probes, foreignGraph(rng))
	}
	return probes
}

// foreignGraph draws a graph over labels 1–2 plus 7–8, which buildDB's
// datasets (labels 0–3) never carry.
func foreignGraph(rng *rand.Rand) *graph.Graph {
	g := randomGraph(rng, 3+rng.Intn(3), 0.6, 2)
	h := graph.New(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		l := g.Label(v) + 1
		if rng.Intn(2) == 0 {
			l += 6
		}
		h.AddVertex(l)
	}
	g.Edges(func(u, v int) { h.AddEdge(u, v) })
	return h
}

// oracleStream is a query stream with repeats (counts above one come from
// the 4-label random graphs themselves), the empty graph and foreign graphs.
func oracleStream(rng *rand.Rand, db []*graph.Graph, n int) []*graph.Graph {
	qs := append(workload(rng, db, n), graph.New(0))
	for i := 0; i < n/6; i++ {
		qs = append(qs, foreignGraph(rng))
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func hasCommitted(q *IGQ, g *graph.Graph) bool {
	return q.snap.Load().identical(g, graph.Fingerprint(g), &Outcome{}) != nil
}

// TestCacheIndexMatchesDefinition drives caches over a shared and a private
// dictionary, in both query modes, through admission, eviction and
// re-admission, checking every snapshot's index.
func TestCacheIndexMatchesDefinition(t *testing.T) {
	cases := []struct {
		name    string
		method  func() index.Method
		opt     Options
		private bool
	}{
		{"shared-dict", func() index.Method { return ggsx.New(ggsx.DefaultOptions()) }, Options{}, false},
		{"private-dict", func() index.Method { return index.NewBruteForce() }, Options{}, true},
		{"supergraph-mode", func() index.Method { return newSuperRefMethod() }, Options{Mode: SupergraphQueries}, false},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(300 + ci)))
			db := buildDB(rng, 25)
			m := tc.method()
			m.Build(db)
			tc.opt.CacheSize, tc.opt.Window = 12, 4
			q := New(m, db, tc.opt)
			if (q.dict != nil && !q.methodDict) != tc.private {
				t.Fatalf("methodDict = %v, test premise wants private = %v", q.methodDict, tc.private)
			}

			var cov oracleCoverage
			var evicted *graph.Graph
			multi, featureless := false, false
			seen := map[uint64]*graph.Graph{}
			for i, g := range oracleStream(rng, db, 90) {
				q.Query(g)
				if i%2 == 0 {
					continue // a snapshot lasts at least Window = 4 queries: none goes unchecked
				}
				c := checkCacheIndex(t, q, oracleProbes(rng, q, db), "stream")
				cov.sub, cov.super, cov.unknown = cov.sub+c.sub, cov.super+c.super, cov.unknown+c.unknown
				for fp, sg := range seen {
					if !hasCommitted(q, sg) {
						evicted = sg
						delete(seen, fp)
					}
				}
				for _, e := range q.snap.Load().entries {
					seen[e.fp] = e.g
				}
				for _, p := range q.snap.Load().index.posts {
					multi = multi || p.count > 1
				}
				featureless = featureless || slices.Contains(q.snap.Load().index.nf, 0)
			}
			if cov.sub == 0 || cov.super == 0 || cov.unknown == 0 {
				t.Fatalf("vacuous run: %+v", cov)
			}
			if !multi {
				t.Fatal("no posting with an occurrence count above one — the count comparisons went untested")
			}
			if !featureless {
				t.Fatal("the empty graph was never a committed entry while the index was checked")
			}

			// Re-admit a graph the policy evicted and flush it in: the index
			// must name it at its new position.
			if evicted == nil {
				t.Fatal("nothing was evicted — test premise broken")
			}
			q.Query(evicted.Clone())
			for _, g := range workload(rng, db, 2*q.opt.Window) {
				if hasCommitted(q, evicted) {
					break
				}
				q.Query(g)
			}
			if !hasCommitted(q, evicted) {
				t.Fatal("evicted graph was not re-admitted")
			}
			checkCacheIndex(t, q, oracleProbes(rng, q, db), "after re-admission")
		})
	}
}

// TestCacheIndexSurvivesMutationAndRestore: dataset mutations reuse the very
// same index over patched entries; Save→Load and a method LoadIndex (which
// resets the shared dictionary) followed by RebuildIndexes — with a window
// pending — re-derive it; it matches the definition at every stage and
// after the stages' own entries have been flushed in.
func TestCacheIndexSurvivesMutationAndRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	db := buildDB(rng, 25)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	var built bytes.Buffer
	if err := m.SaveIndex(&built); err != nil {
		t.Fatal(err)
	}
	// One key more than the saved index knows: every feature the cache
	// interns from here on gets another id after the reload below.
	m.FeatureDict().Intern("not a feature")

	q := New(m, db, Options{CacheSize: 12, Window: 4})
	for _, g := range oracleStream(rng, db, 40) {
		q.Query(g)
	}
	checkCacheIndex(t, q, oracleProbes(rng, q, db), "before mutation")

	// Append, then remove: same index object, patched entries.
	ix := q.snap.Load().index
	var cur index.Mutable = m
	extra := buildDB(rng, 3)
	next, newDB, err := cur.AppendGraphs(extra)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.DatasetAppended(context.Background(), next, newDB, len(db)); err != nil {
		t.Fatal(err)
	}
	cur = next
	next, newDB2, mapping, err := cur.RemoveGraphs([]int{1, len(newDB) - 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.DatasetRemoved(context.Background(), next, newDB2, mapping); err != nil {
		t.Fatal(err)
	}
	if q.snap.Load().index != ix {
		t.Fatal("a dataset mutation rebuilt the cache-side index")
	}
	checkCacheIndex(t, q, oracleProbes(rng, q, newDB2), "after mutation")
	for _, g := range oracleStream(rng, newDB2, 12) {
		if out := q.Query(g); !slices.Equal(out.Answer, index.Answer(next, g)) {
			t.Fatalf("answer %v after mutation, method alone %v", out.Answer, index.Answer(next, g))
		}
	}
	checkCacheIndex(t, q, oracleProbes(rng, q, newDB2), "flushed after mutation")

	// Save → Load over the original generation (the cache above moved on).
	q = New(m, db, Options{CacheSize: 12, Window: 4})
	for _, g := range oracleStream(rng, db, 40) {
		q.Query(g)
	}
	var saved bytes.Buffer
	if err := q.Save(&saved); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&saved, m, db, Options{CacheSize: 12, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if restored.CacheLen() == 0 || restored.CacheLen() != q.CacheLen() {
		t.Fatalf("restored %d entries of %d", restored.CacheLen(), q.CacheLen())
	}
	checkCacheIndex(t, restored, oracleProbes(rng, restored, db), "after Load")

	// LoadIndex resets the dictionary under a cache with committed entries
	// and a pending window, some of whose features only the cache interned.
	foreign := foreignGraph(rng)
	for !hasCommitted(q, foreign) {
		q.Query(foreign)
		q.Query(foreignGraph(rng))
	}
	for q.WindowLen() < 2 {
		q.Query(foreignGraph(rng))
	}
	if !hasCommitted(q, foreign) {
		t.Fatal("no committed entry owns a feature the reload forgets — premise broken")
	}
	before := q.dict.Len()
	if _, err := m.LoadIndex(&built, db); err != nil {
		t.Fatal(err)
	}
	if q.dict.Len() >= before {
		t.Fatalf("dictionary has %d keys after the reload, %d before — premise broken", q.dict.Len(), before)
	}
	q.RebuildIndexes()
	checkCacheIndex(t, q, oracleProbes(rng, q, db), "after LoadIndex + RebuildIndexes")
	for q.WindowLen() != 0 {
		q.Query(foreignGraph(rng))
	}
	checkCacheIndex(t, q, oracleProbes(rng, q, db), "window flushed after RebuildIndexes")
	for _, g := range oracleStream(rng, db, 12) {
		if out := q.Query(g); !slices.Equal(out.Answer, index.Answer(m, g)) {
			t.Fatalf("answer %v after the reload, method alone %v", out.Answer, index.Answer(m, g))
		}
	}
}

// TestRebuildIndexesAfterPrivateDictionaryRenumbering voids every FeatureID
// for certain: the private dictionary is reset and re-interned in reverse.
func TestRebuildIndexesAfterPrivateDictionaryRenumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(412))
	db := buildDB(rng, 20)
	m := index.NewBruteForce()
	m.Build(db)
	q := New(m, db, Options{CacheSize: 12, Window: 4})
	for _, g := range oracleStream(rng, db, 30) {
		q.Query(g)
	}
	for q.WindowLen() < 2 {
		q.Query(foreignGraph(rng))
	}
	keys := q.dict.Keys()
	if len(keys) < 2 {
		t.Fatal("private dictionary nearly empty — premise broken")
	}
	q.dict.Reset()
	for i := len(keys) - 1; i >= 0; i-- {
		q.dict.Intern(keys[i])
	}
	q.RebuildIndexes()
	checkCacheIndex(t, q, oracleProbes(rng, q, db), "after renumbering")
	for q.WindowLen() != 0 {
		q.Query(foreignGraph(rng))
	}
	checkCacheIndex(t, q, oracleProbes(rng, q, db), "window flushed after renumbering")
}
