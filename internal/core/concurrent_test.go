package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ggsx"
)

// Concurrency tests for the snapshot-isolated query path: many goroutines
// against one IGQ must produce exactly the answers of a sequential run
// (Theorems 1–2 make answers independent of cache state), with no lost
// metadata updates and no data races (run with -race).

// concurrentWorkload builds a mixed repeated/novel query stream: a pool of
// base patterns, each issued several times, interleaved with one-off
// queries.
func concurrentWorkload(rng *rand.Rand, db []*graph.Graph, n int) []*graph.Graph {
	base := workload(rng, db, 8)
	out := make([]*graph.Graph, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			out = append(out, connectedQuery(rng, db[rng.Intn(len(db))], 2+rng.Intn(4)))
		} else {
			out = append(out, base[rng.Intn(len(base))].Clone())
		}
	}
	return out
}

func TestConcurrentQueriesMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	db := buildDB(rng, 25)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	queries := concurrentWorkload(rng, db, 96)

	// Sequential reference run (also the ground truth via the method).
	want := make([][]int32, len(queries))
	seqIG := New(m, db, Options{CacheSize: 15, Window: 4})
	for i, q := range queries {
		want[i] = seqIG.Query(q.Clone()).Answer
	}

	const workers = 8
	ig := New(m, db, Options{CacheSize: 15, Window: 4})
	got := make([][]int32, len(queries))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o, err := ig.QueryCtx(context.Background(), queries[i])
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				got[i] = o.Answer
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()

	for i := range queries {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d: concurrent answer %v != sequential %v", i, got[i], want[i])
		}
		if !reflect.DeepEqual(got[i], index.Answer(m, queries[i])) {
			t.Fatalf("query %d: concurrent answer %v != method ground truth", i, got[i])
		}
	}
	// No lost updates on the shared counters: every query was counted.
	if n := ig.seq.Load(); n != int64(len(queries)) {
		t.Errorf("seq = %d, want %d", n, len(queries))
	}
	if ig.CacheLen()+ig.WindowLen() == 0 {
		t.Error("nothing admitted under concurrency")
	}
}

func TestConcurrentNoAdmitNeverFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	db := buildDB(rng, 15)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 10, Window: 2})
	queries := concurrentWorkload(rng, db, 40)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 4 {
				o, err := ig.QueryNoAdmit(context.Background(), queries[i])
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				if !reflect.DeepEqual(o.Answer, index.Answer(m, queries[i])) {
					t.Errorf("query %d: no-admit answer diverges from method", i)
				}
			}
		}(w)
	}
	wg.Wait()
	if ig.CacheLen() != 0 || ig.WindowLen() != 0 || ig.Flushes() != 0 {
		t.Errorf("QueryNoAdmit mutated the cache: len=%d window=%d flushes=%d",
			ig.CacheLen(), ig.WindowLen(), ig.Flushes())
	}
	if n := ig.seq.Load(); n != int64(len(queries)) {
		t.Errorf("seq = %d, want %d", n, len(queries))
	}
}

// TestSaveUnderConcurrentLoad takes snapshots while queries are in flight:
// every snapshot must be internally consistent — it loads cleanly, respects
// the capacity bound, and the restored cache answers correctly.
func TestSaveUnderConcurrentLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	db := buildDB(rng, 20)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 8, Window: 2})
	queries := concurrentWorkload(rng, db, 60)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 4 {
				if _, err := ig.QueryCtx(context.Background(), queries[i]); err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	// Snapshot repeatedly mid-stream.
	var snaps []*bytes.Buffer
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := ig.Save(&buf); err != nil {
				t.Errorf("save %d: %v", i, err)
				return
			}
			snaps = append(snaps, &buf)
		}
	}()
	wg.Wait()
	close(stop)

	probe := queries[1]
	want := index.Answer(m, probe)
	for i, buf := range snaps {
		restored, err := Load(bytes.NewReader(buf.Bytes()), m, db, Options{CacheSize: 8, Window: 2})
		if err != nil {
			t.Fatalf("snapshot %d does not load: %v", i, err)
		}
		if restored.CacheLen() > 8 {
			t.Errorf("snapshot %d over capacity: %d", i, restored.CacheLen())
		}
		if got := restored.Query(probe.Clone()).Answer; !reflect.DeepEqual(got, want) {
			t.Errorf("snapshot %d: restored cache answers %v, want %v", i, got, want)
		}
	}
}

// cancelOnTest wraps a method so that the k-th isomorphism test of a query
// cancels a context from inside the verification loop. Embedding only the
// interface drops Prepare, so tests go through Verify one by one;
// cancelOnPreparedTest offers the capability and counts on the handle.
type cancelOnTest struct {
	index.Method
	cancel func()
	k, n   int
}

func (c *cancelOnTest) tested() {
	if c.n++; c.n == c.k {
		c.cancel()
	}
}

func (c *cancelOnTest) Verify(q *graph.Graph, id int32) bool {
	c.tested()
	return c.Method.Verify(q, id)
}

type cancelOnPreparedTest struct{ *cancelOnTest }

func (c cancelOnPreparedTest) Prepare(q *graph.Graph) index.Verifier {
	return cancellingVerifier{c.cancelOnTest, c.Method.(index.Preparer).Prepare(q)}
}

type cancellingVerifier struct {
	c     *cancelOnTest
	inner index.Verifier
}

func (v cancellingVerifier) Verify(id int32) bool {
	v.c.tested()
	return v.inner.Verify(id)
}

// TestQueryCtxCancellation: a context cancelled before the query starts, or
// while its candidates are being tested — on either route of the shared
// verification loop — returns ctx's error, tests nothing further, and leaves
// no trace: no admission, and no credit to the cached entry that pruned for
// the query.
func TestQueryCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(175))
	db := buildDB(rng, 30)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 10, Window: 5})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := connectedQuery(rng, db[0], 4)
	if _, err := ig.QueryCtx(ctx, q); err == nil {
		t.Fatal("cancelled context not honoured")
	}
	// A cancelled query leaves no trace: not counted as admitted work.
	if ig.WindowLen() != 0 {
		t.Errorf("cancelled query admitted: window=%d", ig.WindowLen())
	}
	// And the engine still works afterwards.
	o, err := ig.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.Answer, index.Answer(m, q)) {
		t.Error("post-cancellation query wrong")
	}

	// Mid-verification: the second isomorphism test cancels the context.
	order := db[0].BFSOrder(0)
	// big is cached first: an Isub hit of q, whose answer — db[0] at least —
	// it credits as pruned.
	big, _ := db[0].InducedSubgraph(order[:4])
	q, _ = db[0].InducedSubgraph(order[:3])

	for name, prepared := range map[string]bool{"verify": false, "prepare": true} {
		c := &cancelOnTest{Method: m, cancel: func() {}}
		var wrapped index.Method = c
		if prepared {
			wrapped = cancelOnPreparedTest{c}
		}
		ig := New(wrapped, db, Options{CacheSize: 10, Window: 1})
		ig.Query(big)
		if ig.CacheLen() != 1 {
			t.Fatalf("%s: setup query not cached", name)
		}
		e := ig.snap.Load().entries[0]
		cost := e.loadLogCost()

		ctx, cancel := context.WithCancel(context.Background())
		c.cancel, c.k, c.n = cancel, 2, 0
		o, err := ig.QueryCtx(ctx, q)
		if !errors.Is(err, context.Canceled) || o != nil {
			t.Fatalf("%s: outcome %v, err %v; want context.Canceled (tests run: %d)", name, o, err, c.n)
		}
		if c.n != 2 {
			t.Errorf("%s: %d tests ran, cancellation came during the 2nd", name, c.n)
		}
		if ig.WindowLen() != 0 || ig.CacheLen() != 1 {
			t.Errorf("%s: cancelled query admitted: window=%d cache=%d", name, ig.WindowLen(), ig.CacheLen())
		}
		if got := e.loadLogCost(); got != cost {
			t.Errorf("%s: cancelled query credited its hit: ln C=%v, was %v", name, got, cost)
		}

		c.k, c.n = 0, 0
		o, err = ig.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o.Answer, index.Answer(m, q)) {
			t.Errorf("%s: post-cancellation query wrong", name)
		}
		if o.DatasetIsoTests != c.n || o.DatasetIsoTests != o.FinalCandidates {
			t.Errorf("%s: %d tests counted, %d run, %d candidates", name, o.DatasetIsoTests, c.n, o.FinalCandidates)
		}
		if e.loadLogCost() == cost {
			t.Errorf("%s: the completed query did not credit the entry the cancelled one skipped", name)
		}
	}
}
