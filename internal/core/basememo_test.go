package core_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/contain"
	"repro/internal/index/ggsx"
	wl "repro/internal/workload"
)

// filterCounter wraps one method generation and counts the dataset filters
// core runs through it, on either entry point. It embeds only the
// interfaces, so core sees no index.Preparer and nothing bypasses it.
type filterCounter struct {
	index.Method
	index.DictProvider
	index.CountFilterer
	calls *atomic.Int64
}

func countFilters(m index.Method, calls *atomic.Int64) filterCounter {
	return filterCounter{Method: m, DictProvider: m.(index.DictProvider), CountFilterer: m.(index.CountFilterer), calls: calls}
}

func (c filterCounter) Filter(q *graph.Graph) []int32 {
	c.calls.Add(1)
	return c.Method.Filter(q)
}

func (c filterCounter) FilterByFeatureCounts(qf features.IDSet) []int32 {
	c.calls.Add(1)
	return c.CountFilterer.FilterByFeatureCounts(qf)
}

const memoLabels = 4 // Options.Labels of every IGQ below, so the tests can price a test themselves

// memoFixture is one mode's dataset, method, repeated query and mutations.
type memoFixture struct {
	m      index.Mutable
	db     []*graph.Graph
	q      *graph.Graph
	extra  []*graph.Graph // graphs to append: one related to q, then one in no CS(q)
	remove []int          // positions to remove after the second extra graph
}

// alienGraph is an edge over a label no fixture graph uses, so it is in no
// candidate set of a fixture query in either mode.
func alienGraph() *graph.Graph {
	g := graph.New(2)
	g.AddVertex(9)
	g.AddVertex(9)
	g.AddEdge(0, 1)
	return g
}

func newMemoFixture(mode core.Mode, seed int64) memoFixture {
	rng := rand.New(rand.NewSource(seed))
	f := memoFixture{remove: []int{0, 2}}
	if mode == core.SupergraphQueries {
		// Small dataset graphs, one large query containing some of them.
		f.db = make([]*graph.Graph, 14)
		for i := range f.db {
			f.db[i] = randomGraph(rng, 2+rng.Intn(3), 0.6, 2)
		}
		f.q = randomGraph(rng, 7, 0.5, 2)
		piece, _ := f.q.InducedSubgraph(f.q.BFSOrder(0)[:3])
		f.extra = []*graph.Graph{piece, alienGraph()}
		m := contain.New(contain.DefaultOptions())
		m.Build(f.db)
		f.m = m
		return f
	}
	f.db = make([]*graph.Graph, 14)
	for i := range f.db {
		f.db[i] = randomGraph(rng, 6+rng.Intn(8), 0.3, memoLabels)
	}
	f.q, _ = f.db[2].InducedSubgraph(f.db[2].BFSOrder(0)[:3])
	f.extra = []*graph.Graph{f.db[2].Clone(), alienGraph()}
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(f.db)
	f.m = m
	return f
}

// TestBaseMemoLifeCycle follows one cached query through admission, dataset
// append, two dataset removals, a Save/Load round trip and an index rebuild,
// then through a mutation that finds it still in the window. An identical
// hit must run the dataset filter only when the entry holds no memo for the
// current dataset generation, and must report and credit exactly what
// filtering would have. The mutations carry the memo: an append always, a
// removal unless CS(q) held a removed or moved graph (the fixture removes
// once each way). A Load and a rebuild drop it, so the first hit after each
// of them filters once.
func TestBaseMemoLifeCycle(t *testing.T) {
	for _, mode := range []core.Mode{core.SubgraphQueries, core.SupergraphQueries} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			f := newMemoFixture(mode, 41)
			var calls atomic.Int64
			opt := core.Options{CacheSize: 8, Window: 1, Mode: mode, Labels: memoLabels}
			ig := core.New(countFilters(f.m, &calls), f.db, opt)

			// hit re-issues q and checks the identical hit against a
			// filter run on the current generation, outside the counter.
			hit := func(when string, wantFilters int64) {
				t.Helper()
				cs := f.m.Filter(f.q)
				cost0, ok := ig.LogCostOf(f.q)
				if !ok {
					t.Fatalf("%s: q is not cached", when)
				}
				calls.Store(0)
				out := ig.Query(f.q.Clone())
				if out.Short != core.IdenticalHit {
					t.Fatalf("%s: Short = %v, want identical hit", when, out.Short)
				}
				if got := calls.Load(); got != wantFilters {
					t.Errorf("%s: %d filter calls, want %d", when, got, wantFilters)
				}
				if wantFilters == 0 && out.FilterDur != 0 {
					t.Errorf("%s: FilterDur = %v on a memoised hit", when, out.FilterDur)
				}
				if out.BaseCandidates != len(cs) {
					t.Errorf("%s: BaseCandidates = %d, filter yields %d", when, out.BaseCandidates, len(cs))
				}
				if want := index.Answer(f.m, f.q); !reflect.DeepEqual(out.Answer, want) {
					t.Errorf("%s: answer %v, method alone %v", when, out.Answer, want)
				}
				wantCost := math.Inf(-1)
				for _, id := range cs {
					wantCost = core.LogSumExp(wantCost, core.LogIsoCost(f.q.NumVertices(), f.db[id].NumVertices(), memoLabels))
				}
				if cost1, _ := ig.LogCostOf(f.q); cost1 != core.LogSumExp(cost0, wantCost) {
					t.Errorf("%s: credited logCost %v, want %v", when, cost1, core.LogSumExp(cost0, wantCost))
				}
			}

			ig.Query(f.q)
			hit("first hit, memo from admission", 0)
			hit("second hit", 0)

			m2, db2, err := f.m.AppendGraphs(f.extra)
			if err != nil {
				t.Fatal(err)
			}
			if err := ig.DatasetAppended(context.Background(), countFilters(m2, &calls), db2, len(f.db)); err != nil {
				t.Fatal(err)
			}
			f.m, f.db = m2, db2
			hit("first hit after append", 0)
			hit("second hit after append", 0)

			// remove removes positions and reports whether CS(q) held a
			// graph the removal took out or moved.
			remove := func(positions []int) (held bool) {
				t.Helper()
				cs := f.m.Filter(f.q)
				m3, db3, mapping, err := f.m.RemoveGraphs(positions)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range cs {
					held = held || mapping[id] != id
				}
				if err := ig.DatasetRemoved(context.Background(), countFilters(m3, &calls), db3, mapping); err != nil {
					t.Fatal(err)
				}
				f.m, f.db = m3, db3
				want := int64(0)
				if held {
					want = 1
				}
				hit(fmt.Sprintf("first hit after removing %v (CS(q) held one: %v)", positions, held), want)
				hit("second hit after removal", 0)
				return held
			}
			// The alien graph is last: removing it moves nothing.
			if remove([]int{len(f.db) - 1}) {
				t.Fatal("CS(q) holds the alien graph")
			}
			if !remove(f.remove) {
				t.Fatalf("CS(q) holds none of the graphs removing %v takes out or moves", f.remove)
			}

			var buf bytes.Buffer
			if err := ig.Save(&buf); err != nil {
				t.Fatal(err)
			}
			ig, err = core.Load(&buf, countFilters(f.m, &calls), f.db, opt)
			if err != nil {
				t.Fatal(err)
			}
			hit("first hit after load", 1)
			hit("second hit after load", 0)

			// The method index may have been replaced under the entries.
			ig.RebuildIndexes()
			hit("first hit after rebuild", 1)
			hit("second hit after rebuild", 0)

			// A window entry is patched in place, its memo carried as a
			// committed entry's is.
			opt.Window = 3
			ig = core.New(countFilters(f.m, &calls), f.db, opt)
			ig.Query(f.q)
			m4, db4, err := f.m.AppendGraphs([]*graph.Graph{f.extra[0].Clone()})
			if err != nil {
				t.Fatal(err)
			}
			if err := ig.DatasetAppended(context.Background(), countFilters(m4, &calls), db4, len(f.db)); err != nil {
				t.Fatal(err)
			}
			f.m, f.db = m4, db4
			if err := ig.Save(io.Discard); err != nil { // flushes the partial window
				t.Fatal(err)
			}
			hit("first hit on an entry mutated in the window", 0)
			hit("second hit on that entry", 0)
		})
	}
}

// TestBaseMemoConcurrentRefresh lets two goroutines meet the same stale
// memo at once (run under -race): both may filter, both must report the
// current generation's base set, and the memo they leave must be good. An
// index rebuild is what leaves every memo stale.
func TestBaseMemoConcurrentRefresh(t *testing.T) {
	f := newMemoFixture(core.SubgraphQueries, 43)
	var calls atomic.Int64
	ig := core.New(countFilters(f.m, &calls), f.db, core.Options{CacheSize: 8, Window: 1, Labels: memoLabels})
	ig.Query(f.q)
	want := len(f.m.Filter(f.q))
	for round := 0; round < 20; round++ {
		ig.RebuildIndexes()
		calls.Store(0)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				out, err := ig.QueryNoAdmit(context.Background(), f.q.Clone())
				if err != nil {
					t.Errorf("round %d: %v", round, err)
				} else if out.Short != core.IdenticalHit || out.BaseCandidates != want {
					t.Errorf("round %d: short %v over %d base candidates, want an identical hit over %d",
						round, out.Short, out.BaseCandidates, want)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := calls.Load(); n < 1 || n > 2 {
			t.Errorf("round %d: %d filter calls from two racing hits, want 1 or 2", round, n)
		}
		calls.Store(0)
		if out := ig.Query(f.q.Clone()); calls.Load() != 0 || out.BaseCandidates != want {
			t.Errorf("round %d: after the race, %d filter calls and %d base candidates, want 0 and %d",
				round, calls.Load(), out.BaseCandidates, want)
		}
	}
}

// BenchmarkIdenticalHit measures the §4.3 identical short-circuit on a warm
// cache: a fingerprint probe, one small isomorphism test and a memoised
// credit — no feature enumeration and no dataset filter, which it checks.
func BenchmarkIdenticalHit(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	db := make([]*graph.Graph, 200)
	for i := range db {
		db[i] = randomGraph(rng, 10+rng.Intn(10), 0.2, memoLabels)
	}
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	var calls atomic.Int64
	ig := core.New(countFilters(m, &calls), db, core.Options{CacheSize: 64, Window: 16})
	var qs []*graph.Graph
	for len(qs) < 32 {
		g := db[rng.Intn(len(db))]
		q, _ := g.InducedSubgraph(g.BFSOrder(rng.Intn(g.NumVertices()))[:4+rng.Intn(3)])
		if ig.Query(q).Short != core.IdenticalHit { // distinct queries only
			qs = append(qs, q)
		}
	}
	calls.Store(0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ig.QueryNoAdmit(ctx, qs[i%len(qs)])
		if err != nil || out.Short != core.IdenticalHit {
			b.Fatalf("query %d: err %v, short %v, want an identical hit", i, err, out.Short)
		}
	}
	b.StopTimer()
	if n := calls.Load(); n != 0 {
		b.Fatalf("%d dataset filters ran during %d identical hits", n, b.N)
	}
}

// BenchmarkHitsAfterMutation is the mutation-then-hits cycle of a serving
// cache at the paper's defaults: 500 cached queries over 2 000 AIDS-like
// graphs; each iteration appends 4 graphs, removes them again and replays
// 100 cached queries as identical hits. filters/op counts the dataset
// filters those hits run to renew a base memo — only entries whose
// candidate set held one of the removed graphs need one.
func BenchmarkHitsAfterMutation(b *testing.B) {
	db := dataset.Generate(dataset.AIDS().Scaled(2000.0/40000, 1))
	extra := dataset.Generate(dataset.AIDS().Scaled(40.0/40000, 1))
	var m index.Mutable = ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	var calls atomic.Int64
	ig := core.New(countFilters(m, &calls), db, core.Options{CacheSize: 500, Window: 100})
	var hot []*graph.Graph
	for _, wq := range wl.Generate(db, wl.Spec{NumQueries: 3000, GraphDist: wl.Uniform, NodeDist: wl.Uniform, Seed: 1}) {
		if ig.CacheLen() == 500 && ig.WindowLen() == 0 {
			break
		}
		ig.Query(wq.G)
	}
	for _, wq := range wl.Generate(db, wl.Spec{NumQueries: 3000, GraphDist: wl.Uniform, NodeDist: wl.Uniform, Seed: 1}) {
		if _, ok := ig.LogCostOf(wq.G); ok && len(hot) < 100 {
			hot = append(hot, wq.G)
		}
	}
	if ig.CacheLen() != 500 || len(hot) != 100 {
		b.Fatalf("%d cached queries, %d of them hot; want 500 and 100", ig.CacheLen(), len(hot))
	}
	ctx := context.Background()
	calls.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := len(db)
		grown, grownDB, err := m.AppendGraphs(extra[4*i%(len(extra)-3):][:4])
		if err != nil {
			b.Fatal(err)
		}
		if err := ig.DatasetAppended(ctx, countFilters(grown, &calls), grownDB, n); err != nil {
			b.Fatal(err)
		}
		var mapping []int32
		if m, db, mapping, err = grown.RemoveGraphs([]int{n, n + 1, n + 2, n + 3}); err != nil {
			b.Fatal(err)
		}
		if err := ig.DatasetRemoved(ctx, countFilters(m, &calls), db, mapping); err != nil {
			b.Fatal(err)
		}
		for _, g := range hot {
			if out, err := ig.QueryNoAdmit(ctx, g); err != nil || out.Short != core.IdenticalHit {
				b.Fatalf("hot query: err %v, short %v, want an identical hit", err, out.Short)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(calls.Load())/float64(b.N), "filters/op")
}
