package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/iso"
	wl "repro/internal/workload"
)

// Pins on what a flush and a lookup cost, none of which reads a clock.

// flushFixture is a cache of C committed entries with a window one short of
// full, filled by a uniform query stream over AIDS-like molecules, plus
// queries of the same stream the cache has not seen.
type flushFixture struct {
	q      *IGQ
	unseen []*graph.Graph
}

func newFlushFixture(tb testing.TB, graphs, cache, window int) flushFixture {
	tb.Helper()
	db := dataset.Generate(dataset.AIDS().Scaled(float64(graphs)/40000, 1))
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	q := New(m, db, Options{CacheSize: cache, Window: window})
	qs := wl.Generate(db, wl.Spec{NumQueries: 3 * (cache + window), GraphDist: wl.Uniform, NodeDist: wl.Uniform, Seed: 1})
	for i, wq := range qs {
		if q.CacheLen() == cache && q.WindowLen() == window-1 {
			f := flushFixture{q: q}
			for _, rest := range qs[i:] {
				f.unseen = append(f.unseen, rest.G)
			}
			return f
		}
		q.Query(wq.G)
	}
	tb.Fatalf("stream ended at %d cached, %d pending", q.CacheLen(), q.WindowLen())
	return flushFixture{}
}

// TestFlushEnumeratesNothingItKnows: entries that own their features and
// programs are flushed with their graphs taken away. A flush that looked at
// a graph again — to enumerate or to compile — would dereference nil.
func TestFlushEnumeratesNothingItKnows(t *testing.T) {
	f := newFlushFixture(t, 120, 40, 10)
	q := f.q
	q.mu.Lock()
	want := map[int32]int{}
	for _, e := range slices.Concat(q.snap.Load().entries, q.window) {
		if e.feats == nil || e.prog == nil {
			t.Fatalf("entry %d reached the flush without its features or program (shared dictionary: every query feature is known)", e.id)
		}
		e.g = nil
		want[e.id] = len(e.feats)
	}
	q.window = append(q.window, q.window[0].withAnswer(nil, nil)) // fill the window
	q.window[len(q.window)-1].id = q.nextID
	flushes := q.flushes
	q.flushLocked()
	snap := q.snap.Load()
	q.mu.Unlock()
	if q.Flushes() != flushes+1 || len(snap.entries) != 40 {
		t.Fatalf("%d flushes, %d entries after the flush, want %d and 40", q.Flushes(), len(snap.entries), flushes+1)
	}
	for pos, e := range snap.entries {
		if nf, known := want[e.id]; known && int(snap.index.nf[pos]) != nf {
			t.Fatalf("position %d indexed with NF %d, the entry owns %d features", pos, snap.index.nf[pos], nf)
		}
	}
}

// lookupProbes enumerates unseen queries that give cacheLookup real work:
// candidates on both sides, tests on both sides.
func lookupProbes(tb testing.TB, f flushFixture, n int) (gs []*graph.Graph, qfs []features.IDSet) {
	tb.Helper()
	snap := f.q.snap.Load()
	sc := f.q.getScratch()
	defer f.q.putScratch(sc)
	sub, super := 0, 0
	for _, g := range f.unseen {
		if len(gs) == n {
			break
		}
		qf := features.PathsID(g, features.PathOptions{MaxLen: f.q.opt.MaxPathLen}, f.q.dict, sc.feat, false)
		qf.Counts = slices.Clone(qf.Counts)
		var out Outcome
		subHits, superHits := f.q.cacheLookup(snap, g, qf, sc, &out)
		if out.CacheIsoTests == 0 {
			continue
		}
		sub, super = sub+len(subHits), super+len(superHits)
		gs, qfs = append(gs, g), append(qfs, qf)
	}
	if len(gs) == 0 || sub == 0 || super == 0 {
		tb.Fatalf("%d probes with %d sub and %d super hits — fixture too thin", len(gs), sub, super)
	}
	return gs, qfs
}

// TestCacheLookupDoesNotAllocate: counters, candidate lists, hit lists and
// the query's compiled program all live in the scratch.
func TestCacheLookupDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race, so Program.Match allocates")
	}
	f := newFlushFixture(t, 120, 40, 10)
	gs, qfs := lookupProbes(t, f, 16)
	snap := f.q.snap.Load()
	sc := f.q.getScratch()
	defer f.q.putScratch(sc)
	var out Outcome
	lookups := func() {
		for i, g := range gs {
			f.q.cacheLookup(snap, g, qfs[i], sc, &out)
		}
	}
	lookups() // warm the scratch
	if avg := testing.AllocsPerRun(50, lookups); avg != 0 {
		t.Fatalf("%v allocations per %d lookups on a warm scratch, want 0", avg, len(gs))
	}
}

// BenchmarkFlush is one window flush at the paper's defaults: C = 500 cached
// queries, W = 100 admitted, 100 evicted.
func BenchmarkFlush(b *testing.B) {
	f := newFlushFixture(b, 400, 500, 100)
	q := f.q
	q.Query(f.unseen[0]) // the 100th admission flushes: every entry now owns its features
	if q.WindowLen() != 0 {
		b.Fatal("the fixture's last admission did not flush")
	}
	base := q.snap.Load()
	window := make([]*entry, 0, q.opt.Window)
	for _, g := range f.unseen[1:] {
		if len(window) == cap(window) {
			break
		}
		if hasCommitted(q, g) {
			continue
		}
		e := newEntry(q.nextID+int32(len(window)), g, nil, 0)
		e.feats = slices.Clone(features.PathsID(g, features.PathOptions{MaxLen: q.opt.MaxPathLen}, q.dict, features.NewScratch(), false).Counts)
		window = append(window, e)
	}
	if len(window) != cap(window) {
		b.Fatalf("only %d unseen queries left for the window", len(window))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.mu.Lock()
		q.snap.Store(base)
		q.window = slices.Clone(window)
		q.flushLocked()
		q.mu.Unlock()
	}
	b.StopTimer()
	if got := q.CacheLen(); got != q.opt.CacheSize {
		b.Fatalf("%d entries after the flush, want %d", got, q.opt.CacheSize)
	}
	b.ReportMetric(float64(len(q.snap.Load().index.posts)), "postings")
}

// BenchmarkCacheLookup is the Isub/Isuper lookup of a query the cache has
// not seen, over 500 cached queries, cache-side tests included.
func BenchmarkCacheLookup(b *testing.B) {
	f := newFlushFixture(b, 400, 500, 100)
	gs, qfs := lookupProbes(b, f, 64)
	snap := f.q.snap.Load()
	sc := f.q.getScratch()
	var out Outcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.q.cacheLookup(snap, gs[i%len(gs)], qfs[i%len(gs)], sc, &out)
	}
}

// TestQueriesRaceRebuildAndAppend (meant for -race): queries, some of them
// flushing, run against a goroutine that keeps re-deriving every entry's
// features (RebuildIndexes) and appending to the dataset (DatasetAppended),
// and one that sizes the cache. Every answer must be right for the dataset
// generation it was computed on.
func TestQueriesRaceRebuildAndAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	db := buildDB(rng, 20)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	q := New(m, db, Options{CacheSize: 12, Window: 3})
	streams := [][]*graph.Graph{oracleStream(rng, db, 80), oracleStream(rng, db, 80), oracleStream(rng, db, 80)}
	extra := buildDB(rng, 12)

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		var cur index.Mutable = m
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q.RebuildIndexes()
			if i < len(extra) {
				next, newDB, err := cur.AppendGraphs(extra[i : i+1])
				if err != nil {
					t.Error(err)
					return
				}
				if err := q.DatasetAppended(context.Background(), next, newDB, len(newDB)-1); err != nil {
					t.Error(err)
					return
				}
				cur = next
			}
		}
	}()
	go func() {
		defer writers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				q.SizeBytes()
			}
		}
	}()
	for _, qs := range streams {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i, g := range qs {
				out := q.Query(g)
				var want []int32
				for id, d := range out.Dataset {
					if iso.Subgraph(g, d) {
						want = append(want, int32(id))
					}
				}
				if !slices.Equal(out.Answer, want) {
					t.Errorf("query %d: answer %v, brute force over its generation %v", i, out.Answer, want)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	checkCacheIndex(t, q, oracleProbes(rng, q, q.snap.Load().db), "after the race")
}
