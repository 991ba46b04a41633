package igq

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// pathOf is the path graph over labels, in order.
func pathOf(labels ...Label) *Graph {
	g := NewGraph(len(labels))
	for i, l := range labels {
		g.AddVertex(l)
		if i > 0 {
			g.AddEdge(i-1, i)
		}
	}
	return g
}

// directionWorkload is a dataset of short and long labelled paths and a
// query stream of mid-length paths (with repeats), so that a query's
// subgraph answer (the graphs containing it) and its supergraph answer (the
// graphs it contains) differ: a cache serving the wrong direction shows.
func directionWorkload(seed int64) (db, qs []*Graph) {
	rng := rand.New(rand.NewSource(seed))
	path := func(n int) *Graph {
		ls := make([]Label, n)
		for i := range ls {
			ls[i] = Label(rng.Intn(2))
		}
		return pathOf(ls...)
	}
	for i := 0; i < 40; i++ {
		g := path(2 + i%2*4) // 2 or 6 vertices
		g.ID = i
		db = append(db, g)
	}
	for i := 0; i < 24; i++ {
		if i >= 8 && i%2 == 0 {
			qs = append(qs, qs[i-8].Clone())
			continue
		}
		qs = append(qs, path(3+rng.Intn(2)))
	}
	return db, qs
}

// checkBothDirections answers every query in both directions, cached and
// cache-free, and fails on any difference.
func checkBothDirections(t *testing.T, eng *Engine, qs []*Graph) {
	t.Helper()
	ctx := context.Background()
	for _, mode := range []Mode{SubgraphQueries, SupergraphQueries} {
		for i, q := range qs {
			got, err := eng.Query(ctx, q.Clone(), InMode(mode))
			if err != nil {
				t.Fatalf("%v query %d: %v", mode, i, err)
			}
			want, err := eng.Query(ctx, q, InMode(mode), WithoutCache())
			if err != nil {
				t.Fatalf("%v query %d (no cache): %v", mode, i, err)
			}
			if !reflect.DeepEqual(got.IDs, want.IDs) {
				t.Fatalf("%v query %d: cached answer %v != true answer %v", mode, i, got.IDs, want.IDs)
			}
		}
	}
}

// A combined snapshot records which direction its cache answers, and a
// load restores the cache into that direction whatever the loader's
// default: a cache earned by supergraph queries must never answer subgraph
// queries, nor the reverse.
func TestEngineSnapshotKeepsCacheDirection(t *testing.T) {
	db, qs := directionWorkload(3)
	ctx := context.Background()
	for _, saver := range []Mode{SubgraphQueries, SupergraphQueries} {
		for _, loader := range []Mode{SubgraphQueries, SupergraphQueries} {
			t.Run(fmt.Sprintf("save=%v/load=%v", saver, loader), func(t *testing.T) {
				opt := EngineOptions{Method: GGSX, CacheSize: 50, Window: 2, Supergraph: saver == SupergraphQueries}
				eng, err := NewEngine(db, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range qs {
					if _, err := eng.Query(ctx, q); err != nil {
						t.Fatal(err)
					}
				}
				var snap bytes.Buffer
				if err := eng.Save(&snap); err != nil {
					t.Fatal(err)
				}
				opt.Supergraph = loader == SupergraphQueries
				loaded, _, err := LoadEngineReport(bytes.NewReader(snap.Bytes()), db, opt)
				if err != nil {
					t.Fatal(err)
				}
				other := SupergraphQueries - saver
				if got, want := loaded.StatsOf(saver).CachedQueries, eng.StatsOf(saver).CachedQueries; got != want || got == 0 {
					t.Fatalf("restored %v cache holds %d entries, want %d", saver, got, want)
				}
				if n := loaded.StatsOf(other).CachedQueries; n != 0 {
					t.Fatalf("%v cache holds %d entries after the load, want 0", other, n)
				}
				res, err := loaded.Query(ctx, qs[0].Clone(), InMode(saver), WithoutAdmission())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Stats.AnsweredByCache {
					t.Errorf("restored %v cache did not answer a query it holds", saver)
				}
				checkBothDirections(t, loaded, qs)
			})
		}
	}
}

// The non-default direction's cache is made on that direction's first
// query, not at construction, and a mutation racing that first query still
// patches it: afterwards every cached answer equals the cache-free one.
func TestSecondDirectionCacheMadeOnFirstQuery(t *testing.T) {
	db, qs := directionWorkload(5)
	extra, _ := directionWorkload(6)
	ctx := context.Background()
	eng, err := NewEngine(db, EngineOptions{Method: GGSX, CacheSize: 50, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if eng.modes[SupergraphQueries].ig.Load() != nil {
		t.Fatal("supergraph cache made before any supergraph query")
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range qs {
				if _, err := eng.Query(ctx, q.Clone(), InMode(SupergraphQueries)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		if err := eng.AddGraphs(ctx, extra[4*i:4*i+4]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if eng.modes[SupergraphQueries].ig.Load() == nil {
		t.Fatal("no supergraph cache after supergraph queries")
	}
	if st := eng.StatsOf(SupergraphQueries); st.Queries != int64(3*len(qs)) {
		t.Errorf("supergraph queries counted %d, want %d", st.Queries, 3*len(qs))
	}
	checkBothDirections(t, eng, qs)
}

// Engines over an index without a supergraph read refuse supergraph
// queries, and a cache-disabled engine never makes a cache in either
// direction.
func TestAnswersDirection(t *testing.T) {
	db, qs := directionWorkload(7)
	ct, err := NewEngine(db, EngineOptions{Method: CTIndex})
	if err != nil {
		t.Fatal(err)
	}
	if !ct.Answers(SubgraphQueries) || ct.Answers(SupergraphQueries) {
		t.Errorf("CT-Index answers sub=%v super=%v, want true/false",
			ct.Answers(SubgraphQueries), ct.Answers(SupergraphQueries))
	}
	if _, err := ct.Query(context.Background(), qs[0], InMode(SupergraphQueries)); err == nil {
		t.Error("CT-Index answered a supergraph query")
	}
	if _, err := NewEngine(db, EngineOptions{Method: CTIndex, Supergraph: true}); err == nil {
		t.Error("supergraph engine over CT-Index constructed")
	}
	off, err := NewEngine(db, EngineOptions{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	checkBothDirections(t, off, qs)
	for mode := range off.modes {
		if off.modes[mode].ig.Load() != nil {
			t.Errorf("cache-disabled engine made a %v cache", Mode(mode))
		}
	}
}
