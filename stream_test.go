package igq

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// streamWorkload builds a repetitive query stream that exercises cache hits
// alongside fresh queries.
func streamWorkload(db []*Graph, n int) []*Graph {
	base := GenerateWorkload(db, WorkloadSpec{
		NumQueries: max(n/3, 1), GraphDist: Zipf, NodeDist: Uniform, Alpha: 1.4, Seed: 11,
	})
	out := make([]*Graph, 0, n)
	for len(out) < n {
		out = append(out, base[len(out)%len(base)])
	}
	return out
}

func TestQueryStreamCompletesAll(t *testing.T) {
	db := smallDB(t)
	eng, err := NewEngine(db, EngineOptions{Method: Grapes, CacheSize: 30, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	queries := streamWorkload(db, 40)
	in := make(chan *Graph)
	go func() {
		defer close(in)
		for _, q := range queries {
			in <- q
		}
	}()
	got := make([]*BatchResult, len(queries))
	n := 0
	for br := range eng.QueryStream(context.Background(), in, 4) {
		if br.Index < 0 || br.Index >= len(queries) {
			t.Fatalf("result index %d out of range", br.Index)
		}
		if got[br.Index] != nil {
			t.Fatalf("duplicate result for index %d", br.Index)
		}
		r := br
		got[br.Index] = &r
		n++
	}
	if n != len(queries) {
		t.Fatalf("stream emitted %d results for %d queries", n, len(queries))
	}
	for i, br := range got {
		if br.Err != nil {
			t.Fatalf("query %d: %v", i, br.Err)
		}
		for _, id := range br.Result.IDs {
			if !IsSubgraph(queries[i], db[id]) {
				t.Errorf("query %d: answer %d does not contain it", i, id)
			}
		}
	}
}

// The delegate contract: QueryBatchCtx (a thin wrapper over QueryStream)
// and a hand-rolled QueryStream consumption must produce
// identical answers for the same query set, on both query directions.
func TestBatchAndStreamAnswersIdentical(t *testing.T) {
	db := smallDB(t)
	for _, mode := range []struct {
		name string
		opt  EngineOptions
	}{
		{"sub", EngineOptions{Method: Grapes, CacheSize: 25, Window: 5}},
		{"super", EngineOptions{Supergraph: true, CacheSize: 25, Window: 5}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			queries := streamWorkload(db, 30)
			engBatch, err := NewEngine(db, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			engStream, err := NewEngine(db, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			batch := engBatch.QueryBatchCtx(context.Background(), queries, 4)

			in := make(chan *Graph)
			go func() {
				defer close(in)
				for _, q := range queries {
					in <- q
				}
			}()
			stream := make([]BatchResult, len(queries))
			for br := range engStream.QueryStream(context.Background(), in, 4) {
				stream[br.Index] = br
			}

			for i := range queries {
				if batch[i].Err != nil || stream[i].Err != nil {
					t.Fatalf("query %d errors: batch=%v stream=%v", i, batch[i].Err, stream[i].Err)
				}
				if !reflect.DeepEqual(batch[i].Result.IDs, stream[i].Result.IDs) {
					t.Errorf("query %d: batch answers %v, stream answers %v",
						i, batch[i].Result.IDs, stream[i].Result.IDs)
				}
			}
		})
	}
}

func TestQueryStreamCancellationClosesPromptly(t *testing.T) {
	db := smallDB(t)
	eng, err := NewEngine(db, EngineOptions{Method: GGSX})
	if err != nil {
		t.Fatal(err)
	}
	queries := streamWorkload(db, 50)
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan *Graph)
	var fed atomic.Int32
	go func() {
		defer close(in)
		for _, q := range queries {
			select {
			case in <- q:
				fed.Add(1)
			case <-ctx.Done():
				return
			}
		}
	}()
	out := eng.QueryStream(ctx, in, 2)
	// Take a few results, then cancel mid-stream.
	for i := 0; i < 3; i++ {
		if _, ok := <-out; !ok {
			t.Fatal("stream closed before cancellation")
		}
	}
	cancel()
	deadline := time.After(10 * time.Second)
	n := 3
	for {
		select {
		case _, ok := <-out:
			if !ok {
				if n > int(fed.Load()) {
					t.Fatalf("emitted %d results for %d accepted queries", n, fed.Load())
				}
				return // closed promptly, no leaked results required
			}
			n++
		case <-deadline:
			t.Fatal("stream did not close after cancellation")
		}
	}
}

func TestQueryBatchCancelledReportsCtxError(t *testing.T) {
	db := smallDB(t)
	eng, err := NewEngine(db, EngineOptions{Method: GGSX, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := streamWorkload(db, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := eng.QueryBatchCtx(ctx, queries, 4)
	if len(out) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(out), len(queries))
	}
	for i, br := range out {
		if br.Err == nil {
			t.Errorf("query %d: no error from a pre-cancelled batch", i)
		}
	}
}

func TestQueryStreamNilQuery(t *testing.T) {
	db := smallDB(t)
	eng, err := NewEngine(db, EngineOptions{Method: GGSX})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *Graph, 2)
	in <- nil
	in <- ExtractQuery(db[0], 0, 4)
	close(in)
	var nilErr, okCount int
	for br := range eng.QueryStream(context.Background(), in, 0) {
		if br.Index == 0 {
			if br.Err == nil {
				t.Error("nil query did not error")
			}
			nilErr++
		} else if br.Err == nil {
			okCount++
		}
	}
	if nilErr != 1 || okCount != 1 {
		t.Errorf("nilErr=%d okCount=%d", nilErr, okCount)
	}
}
