package igq

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/index"
)

// Engine-level concurrency tests (run with -race): one cache-enabled Engine
// serving many goroutines must produce exactly the answers of a sequential
// run, with aggregate counters that account for every query.

// mixedQueries builds a stream with both repeated and novel queries.
func mixedQueries(db []*Graph, n int, seed int64) []*Graph {
	rng := rand.New(rand.NewSource(seed))
	base := make([]*Graph, 6)
	for i := range base {
		base[i] = ExtractQuery(db[i%len(db)], 0, 4+2*(i%3))
	}
	out := make([]*Graph, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			out = append(out, ExtractQuery(db[rng.Intn(len(db))], rng.Intn(4), 3+rng.Intn(6)))
		} else {
			out = append(out, base[rng.Intn(len(base))].Clone())
		}
	}
	return out
}

func TestEngineConcurrentQueriesMatchSequential(t *testing.T) {
	db := smallDB(t)
	queries := mixedQueries(db, 96, 61)

	// Sequential reference run on an identically configured engine.
	seqEng, err := NewEngine(db, EngineOptions{Method: GGSX, CacheSize: 24, Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int32, len(queries))
	for i, q := range queries {
		res, err := seqEng.Query(context.Background(), q.Clone())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.IDs
	}

	const workers = 8
	eng, err := NewEngine(db, EngineOptions{Method: GGSX, CacheSize: 24, Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]Result, len(queries))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := eng.Query(context.Background(), queries[i])
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				results[i] = res
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()

	// Answers are snapshot-independent (paper Theorems 1 and 2): the
	// concurrent run must agree with the sequential reference exactly.
	for i := range queries {
		if !reflect.DeepEqual(results[i].IDs, want[i]) {
			t.Fatalf("query %d: concurrent %v != sequential %v", i, results[i].IDs, want[i])
		}
	}

	// Counter consistency: the aggregate snapshot must account for every
	// query — nothing lost to races.
	st := eng.Stats()
	if st.Queries != int64(len(queries)) {
		t.Errorf("Stats().Queries = %d, want %d", st.Queries, len(queries))
	}
	var short, dIso, cIso, sub, super int64
	for _, r := range results {
		if r.Stats.AnsweredByCache {
			short++
		}
		dIso += int64(r.Stats.DatasetIsoTests)
		cIso += int64(r.Stats.CacheIsoTests)
		sub += int64(r.Stats.SubHits)
		super += int64(r.Stats.SuperHits)
	}
	if st.AnsweredByCache != short {
		t.Errorf("Stats().AnsweredByCache = %d, want %d", st.AnsweredByCache, short)
	}
	if st.DatasetIsoTests != dIso {
		t.Errorf("Stats().DatasetIsoTests = %d, want %d", st.DatasetIsoTests, dIso)
	}
	if st.CacheIsoTests != cIso {
		t.Errorf("Stats().CacheIsoTests = %d, want %d", st.CacheIsoTests, cIso)
	}
	if st.SubHits != sub || st.SuperHits != super {
		t.Errorf("Stats() hits = %d/%d, want %d/%d", st.SubHits, st.SuperHits, sub, super)
	}
	if st.CachedQueries == 0 && st.WindowPending == 0 {
		t.Error("nothing admitted under concurrency")
	}
}

func TestQueryBatchParallelWithCache(t *testing.T) {
	db := smallDB(t)
	queries := mixedQueries(db, 48, 62)
	ref, _ := NewEngine(db, EngineOptions{Method: GGSX, DisableCache: true})
	eng, _ := NewEngine(db, EngineOptions{Method: GGSX, CacheSize: 20, Window: 4})

	res := eng.QueryBatchCtx(context.Background(), queries, 8)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
		if r.Index != i {
			t.Fatalf("result order broken at %d", i)
		}
		wantRes, err := ref.Query(context.Background(), queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Result.IDs, wantRes.IDs) {
			t.Fatalf("query %d: batch %v != reference %v", i, r.Result.IDs, wantRes.IDs)
		}
	}
	if st := eng.Stats(); st.Queries != int64(len(queries)) {
		t.Errorf("Stats().Queries = %d, want %d", st.Queries, len(queries))
	}
}

// TestEngineSaveCacheConcurrentSnapshot verifies the consistency contract of
// Engine.Save under load: a snapshot, cache section included, taken while 6
// goroutines are querying must load cleanly into a fresh engine and answer
// correctly.
func TestEngineSaveCacheConcurrentSnapshot(t *testing.T) {
	db := smallDB(t)
	queries := mixedQueries(db, 60, 63)
	eng, err := NewEngine(db, EngineOptions{Method: GGSX, CacheSize: 12, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewEngine(db, EngineOptions{Method: GGSX, DisableCache: true})

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 6 {
				if _, err := eng.Query(context.Background(), queries[i]); err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	var snaps []*bytes.Buffer
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			var buf bytes.Buffer
			if err := eng.Save(&buf); err != nil {
				t.Errorf("save %d: %v", i, err)
				return
			}
			snaps = append(snaps, &buf)
		}
	}()
	wg.Wait()

	probe := queries[1]
	wantRes, err := ref.Query(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range snaps {
		fresh, _, err := LoadEngineReport(buf, db, EngineOptions{Method: GGSX, CacheSize: 12, Window: 3})
		if err != nil {
			t.Fatalf("snapshot %d does not load: %v", i, err)
		}
		if fresh.CacheLen() > 12 {
			t.Errorf("snapshot %d over capacity: %d entries", i, fresh.CacheLen())
		}
		res, err := fresh.Query(context.Background(), probe.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.IDs, wantRes.IDs) {
			t.Errorf("snapshot %d: restored engine answers %v, want %v", i, res.IDs, wantRes.IDs)
		}
	}
}

// cancelAtTest cancels a context from inside the k-th isomorphism test.
// Embedding only the interface sends every test through Verify.
type cancelAtTest struct {
	index.Method
	cancel func()
	k, n   int
}

func (c *cancelAtTest) Verify(q *Graph, id int32) bool {
	if c.n++; c.n == c.k {
		c.cancel()
	}
	return c.Method.Verify(q, id)
}

// TestEngineQueryCancellation: a context cancelled before a query starts or
// in the middle of its verification returns ctx's error on the cached and on
// the WithoutCache path alike (one shared loop), and the query leaves no
// trace in the statistics or the cache.
func TestEngineQueryCancellation(t *testing.T) {
	db := smallDB(t)
	c := &cancelAtTest{cancel: func() {}}
	eng, err := NewEngine(db, EngineOptions{Method: GGSX, CacheSize: 10, Window: 5,
		WrapMethod: func(m any) any { c.Method = m.(index.Method); return c }})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := ExtractQuery(db[0], 0, 3)
	if _, err := eng.Query(ctx, q); err == nil {
		t.Fatal("cancelled context not honoured (cached path)")
	}
	if _, err := eng.Query(ctx, q, WithoutCache()); err == nil {
		t.Fatal("cancelled context not honoured (plain path)")
	}

	if n := len(c.Filter(q)); n < 2 {
		t.Fatalf("query has %d candidates; nothing to cancel in the middle of", n)
	}
	before := eng.Stats()
	for name, opts := range map[string][]QueryOption{"cached": nil, "plain": {WithoutCache()}} {
		ctx, cancel := context.WithCancel(context.Background())
		c.cancel, c.k, c.n = cancel, 2, 0
		if _, err := eng.Query(ctx, q, opts...); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s path: err = %v after %d tests, want context.Canceled", name, err, c.n)
		}
		if c.n != 2 {
			t.Errorf("%s path: %d tests ran, cancellation came during the 2nd", name, c.n)
		}
		if after := eng.Stats(); after != before {
			t.Errorf("%s path: cancelled query left a trace:\n before %+v\n after  %+v", name, before, after)
		}
	}
	c.k = 0

	// The engine still serves fresh contexts afterwards.
	if _, err := eng.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
}

func TestQueryOptions(t *testing.T) {
	db := smallDB(t)
	eng, err := NewEngine(db, EngineOptions{Method: GGSX, CacheSize: 10, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := ExtractQuery(db[0], 0, 4)

	// WithoutAdmission: served, credited, but never admitted.
	res, err := eng.Query(context.Background(), q, WithoutAdmission())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 {
		t.Fatal("extracted query matched nothing")
	}
	if st := eng.Stats(); st.CachedQueries != 0 || st.WindowPending != 0 {
		t.Errorf("WithoutAdmission admitted: cached=%d pending=%d", st.CachedQueries, st.WindowPending)
	}

	// WithoutCache: bypasses iGQ entirely (W=1 would otherwise admit).
	res2, err := eng.Query(context.Background(), q, WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.IDs, res.IDs) {
		t.Errorf("WithoutCache answer %v != %v", res2.IDs, res.IDs)
	}
	if st := eng.Stats(); st.CachedQueries != 0 || st.WindowPending != 0 {
		t.Errorf("WithoutCache admitted: cached=%d pending=%d", st.CachedQueries, st.WindowPending)
	}

	// A normal query with W=1 flushes immediately and is cached.
	if _, err := eng.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if eng.CacheLen() != 1 {
		t.Errorf("CacheLen = %d after admitting query", eng.CacheLen())
	}
	st := eng.Stats()
	if st.Queries != 3 || st.Flushes != 1 {
		t.Errorf("Stats = %+v, want 3 queries / 1 flush", st)
	}
}

func TestEngineNilQuery(t *testing.T) {
	db := smallDB(t)
	eng, _ := NewEngine(db, EngineOptions{Method: GGSX})
	if _, err := eng.Query(context.Background(), nil); err == nil {
		t.Error("nil query accepted")
	}
}
