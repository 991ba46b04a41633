package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/contain"
	"repro/internal/index/ggsx"
)

// patchLeg is one method under TestMutationPatchDifferential: how to build
// it and how to mutate it. The path indexes mutate copy-on-write over the
// shared dictionary, so their memos must survive; brute force has no
// dictionary and is rebuilt, so its memos are dropped and only the answers
// are pinned.
type patchLeg struct {
	name      string
	mode      Mode
	newMethod func() index.Method
	keepMemos bool
}

// appendTo and removeFrom mutate m as the engine would: through
// index.Mutable when m offers it, by rebuilding otherwise.
func appendTo(t *testing.T, m index.Method, db, gs []*graph.Graph) (index.Method, []*graph.Graph) {
	t.Helper()
	if mm, ok := m.(index.Mutable); ok {
		next, newDB, err := mm.AppendGraphs(gs)
		if err != nil {
			t.Fatal(err)
		}
		return next, newDB
	}
	newDB := append(slices.Clip(db), gs...)
	next := index.NewBruteForce()
	next.Build(newDB)
	return next, newDB
}

func removeFrom(t *testing.T, m index.Method, db []*graph.Graph, positions []int) (index.Method, []*graph.Graph, []int32) {
	t.Helper()
	if mm, ok := m.(index.Mutable); ok {
		next, newDB, mapping, err := mm.RemoveGraphs(positions)
		if err != nil {
			t.Fatal(err)
		}
		return next, newDB, mapping
	}
	newDB, _, mapping, err := index.SwapRemove(db, positions)
	if err != nil {
		t.Fatal(err)
	}
	next := index.NewBruteForce()
	next.Build(newDB)
	return next, newDB, mapping
}

// freshMemo is the memo a renewal on the current generation would make: the
// filter's CS(g) and the fold of its test costs, in candidate order.
func freshMemo(q *IGQ, s *snapshot, g *graph.Graph) (cs []int32, logCost float64) {
	cs = normalizeIDs(s.m.Filter(g))
	logCost = math.Inf(-1)
	for _, id := range cs {
		logCost = LogSumExp(logCost, LogIsoCost(g.NumVertices(), s.db[id].NumVertices(), q.opt.Labels))
	}
	return cs, logCost
}

// cachedEntries returns the committed entries and the window.
func cachedEntries(q *IGQ) (*snapshot, []*entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.snap.Load()
	return s, slices.Concat(s.entries, q.window)
}

// TestMutationPatchDifferential runs seeded append and remove batches —
// non-tail removals among them, which move graphs — against caches with
// window entries pending, in both modes. After every step
// each cached answer must equal the method's answer on the new generation;
// each memo current on it must equal a fresh renewal's under ==, n and
// logCost alike; memos must survive every append and every removal that
// took no member of CS(g) out or moved one; and an append must run exactly
// one compiled test per (entry, appended graph in its CS) — the probe's
// candidates — and none elsewhere.
func TestMutationPatchDifferential(t *testing.T) {
	legs := []patchLeg{
		{"ggsx", SubgraphQueries, func() index.Method { return ggsx.New(ggsx.DefaultOptions()) }, true},
		{"contain", SupergraphQueries, func() index.Method { return contain.New(contain.DefaultOptions()) }, true},
		{"bruteforce", SubgraphQueries, func() index.Method { return index.NewBruteForce() }, false},
	}
	for li, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			runPatchDifferential(t, leg, int64(100+li))
		})
	}
}

func runPatchDifferential(t *testing.T, leg patchLeg, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	super := leg.mode == SupergraphQueries
	// Supergraph mode: small dataset graphs, larger queries holding some of
	// them. Subgraph mode: the reverse.
	dataGraph := func() *graph.Graph {
		if super {
			return randomGraph(rng, 2+rng.Intn(3), 0.6, 3)
		}
		return randomGraph(rng, 6+rng.Intn(8), 0.3, 4)
	}
	db := make([]*graph.Graph, 24)
	for i := range db {
		db[i] = dataGraph()
	}
	var queries []*graph.Graph
	for len(queries) < 16 {
		if super {
			queries = append(queries, randomGraph(rng, 6+rng.Intn(3), 0.5, 3))
		} else {
			queries = append(queries, connectedQuery(rng, db[rng.Intn(len(db))], 2+rng.Intn(3)))
		}
	}
	// related returns a graph likely to join some cached answer.
	related := func() *graph.Graph {
		g := queries[rng.Intn(len(queries))]
		if super {
			return connectedQuery(rng, g, 2+rng.Intn(2))
		}
		h := g.Clone()
		v := h.AddVertex(graph.Label(rng.Intn(4)))
		h.AddEdge(v, rng.Intn(v))
		return h
	}

	m := leg.newMethod()
	m.Build(db)
	q := New(m, db, Options{CacheSize: 10, Window: 4, Mode: leg.mode, Labels: 4})
	checked := map[string]int{}
	for step := 0; step < 24; step++ {
		for i := 0; i < 3+rng.Intn(4); i++ {
			q.Query(queries[rng.Intn(len(queries))])
		}
		before, entries := cachedEntries(q)
		memoBefore := map[int32]*graph.Graph{} // entries holding a memo the mutation must carry, by id
		for _, e := range entries {
			if b := e.base.Load(); b != nil && b.dbGen == before.dbGen {
				memoBefore[e.id] = e.g
			}
		}
		// One more query, which may flush before the mutation.
		q.Query(queries[rng.Intn(len(queries))])
		cur := before.m
		var wantTests int64
		var changed []int32 // removal: the old positions taken out or moved
		if step%2 == 0 {
			var gs []*graph.Graph
			for k := 1 + rng.Intn(3); k > 0; k-- {
				if rng.Intn(2) == 0 {
					gs = append(gs, related())
				} else {
					gs = append(gs, dataGraph())
				}
			}
			next, newDB := appendTo(t, cur, before.db, gs)
			tests := q.patchTests
			if err := q.DatasetAppended(context.Background(), next, newDB, len(before.db)); err != nil {
				t.Fatal(err)
			}
			got := q.patchTests - tests
			_, after := cachedEntries(q)
			for _, e := range after {
				cs := normalizeIDs(next.Filter(e.g))
				i, _ := slices.BinarySearch(cs, int32(len(before.db)))
				wantTests += int64(len(cs) - i)
			}
			if leg.keepMemos && got != wantTests {
				t.Fatalf("step %d: the append ran %d compiled tests, want %d (one per appended CS member)", step, got, wantTests)
			}
			if total := int64(len(after) * len(gs)); got > total {
				t.Fatalf("step %d: %d compiled tests for %d entries × %d graphs", step, got, len(after), len(gs))
			}
			checked["appends"]++
		} else {
			positions := rng.Perm(len(before.db))[:1+rng.Intn(3)]
			next, newDB, mapping := removeFrom(t, cur, before.db, positions)
			for old, now := range mapping {
				if now != int32(old) {
					changed = append(changed, int32(old))
				}
			}
			// Which current memos must survive: those whose CS(g) on the old
			// generation held no changed graph.
			for id, g := range memoBefore {
				cs := normalizeIDs(cur.Filter(g))
				for _, old := range changed {
					if _, held := slices.BinarySearch(cs, old); held {
						delete(memoBefore, id)
						checked["memos dropped by a removal"]++
						break
					}
				}
			}
			if err := q.DatasetRemoved(context.Background(), next, newDB, mapping); err != nil {
				t.Fatal(err)
			}
			checked["removals"]++
			if len(changed) > len(positions) {
				checked["removals that moved graphs"]++
			}
		}

		after, entries := cachedEntries(q)
		checked["window entries"] += len(entries) - len(after.entries)
		for _, e := range entries {
			if want := index.Answer(after.m, e.g); !slices.Equal(e.answer, want) {
				t.Fatalf("step %d: entry %d answers %v, the method %v", step, e.id, e.answer, want)
			}
			b := e.base.Load()
			current := b != nil && b.dbGen == after.dbGen
			if !leg.keepMemos {
				if current {
					t.Fatalf("step %d: entry %d kept a memo over a method without count filter", step, e.id)
				}
				continue
			}
			if _, carry := memoBefore[e.id]; carry && !current {
				t.Fatalf("step %d: entry %d lost a memo the mutation could carry", step, e.id)
			}
			if !current {
				continue
			}
			cs, logCost := freshMemo(q, after, e.g)
			if b.n != len(cs) || b.logCost != logCost {
				t.Fatalf("step %d: entry %d memo (%d, %v), a renewal makes (%d, %v)", step, e.id, b.n, b.logCost, len(cs), logCost)
			}
			checked["memos compared"]++
		}
		// Hot queries, identical hits among them, still answer right.
		for _, g := range queries[:4] {
			out := q.Query(g)
			if want := index.Answer(after.m, g); !slices.Equal(out.Answer, want) {
				t.Fatalf("step %d: query answers %v, the method %v", step, out.Answer, want)
			}
		}
	}
	for _, what := range []string{"appends", "removals", "removals that moved graphs", "window entries"} {
		if checked[what] == 0 {
			t.Errorf("no %s exercised: %v", what, checked)
		}
	}
	if leg.keepMemos && (checked["memos compared"] == 0 || checked["memos dropped by a removal"] == 0) {
		t.Errorf("memo paths not exercised: %v", checked)
	}
}
