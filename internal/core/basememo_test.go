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
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/contain"
	"repro/internal/index/ggsx"
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
	extra  []*graph.Graph // graphs to append: one related to q, one not
	remove []int          // positions to remove afterwards
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
		f.extra = []*graph.Graph{piece, randomGraph(rng, 3, 0.6, 2)}
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
	f.extra = []*graph.Graph{f.db[2].Clone(), randomGraph(rng, 8, 0.3, memoLabels)}
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(f.db)
	f.m = m
	return f
}

// TestBaseMemoLifeCycle follows one cached query through admission, dataset
// append, dataset removal, a Save/Load round trip and an index rebuild, then
// through a mutation that finds it still in the window. An identical hit must
// run the dataset filter only when the entry holds no memo for the current
// dataset generation — once after each of those events, never otherwise —
// and must report and credit exactly what filtering would have.
func TestBaseMemoLifeCycle(t *testing.T) {
	for _, mode := range []core.Mode{core.SubgraphQueries, core.SupergraphQueries} {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("mode=%d/async=%v", mode, async), func(t *testing.T) {
				f := newMemoFixture(mode, 41)
				var calls atomic.Int64
				opt := core.Options{CacheSize: 8, Window: 1, Mode: mode, AsyncMaintenance: async, Labels: memoLabels}
				ig := core.New(countFilters(f.m, &calls), f.db, opt)

				// hit re-issues q and checks the identical hit against a
				// filter run on the current generation, outside the counter.
				hit := func(when string, wantFilters int64) {
					t.Helper()
					cs := f.m.Filter(f.q)
					_, removed0, cost0, ok := ig.CreditsOf(f.q)
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
					_, removed1, cost1, _ := ig.CreditsOf(f.q)
					if removed1-removed0 != int64(len(cs)) || cost1 != core.LogSumExp(cost0, wantCost) {
						t.Errorf("%s: credited removed %d logCost %v, want %d and %v",
							when, removed1-removed0, cost1, len(cs), core.LogSumExp(cost0, wantCost))
					}
				}

				ig.Query(f.q)
				if err := ig.Save(io.Discard); err != nil { // waits out an async shadow build
					t.Fatal(err)
				}
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
				hit("first hit after append", 1)
				hit("second hit after append", 0)

				m3, db3, mapping, err := f.m.RemoveGraphs(f.remove)
				if err != nil {
					t.Fatal(err)
				}
				if err := ig.DatasetRemoved(context.Background(), countFilters(m3, &calls), db3, mapping); err != nil {
					t.Fatal(err)
				}
				f.m, f.db = m3, db3
				hit("first hit after removal", 1)
				hit("second hit after removal", 0)

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

				// A window entry is patched in place and keeps its memo object:
				// only the generation stamp tells that it is stale.
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
				hit("first hit on an entry mutated in the window", 1)
				hit("second hit on that entry", 0)
			})
		}
	}
}

// TestBaseMemoConcurrentRefresh lets two goroutines meet the same stale
// memo at once (run under -race): both may filter, both must report the
// current generation's base set, and the memo they leave must be good.
func TestBaseMemoConcurrentRefresh(t *testing.T) {
	f := newMemoFixture(core.SubgraphQueries, 43)
	var calls atomic.Int64
	ig := core.New(countFilters(f.m, &calls), f.db, core.Options{CacheSize: 8, Window: 1, Labels: memoLabels})
	ig.Query(f.q)
	for round := 0; round < 20; round++ {
		m2, db2, err := f.m.AppendGraphs([]*graph.Graph{f.extra[0].Clone()})
		if err != nil {
			t.Fatal(err)
		}
		if err := ig.DatasetAppended(context.Background(), countFilters(m2, &calls), db2, len(f.db)); err != nil {
			t.Fatal(err)
		}
		f.m, f.db = m2, db2
		want := len(f.m.Filter(f.q))
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
