package ggsx

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/trie"
)

// fuzzDB decodes a small dataset: a graph count, then per graph a vertex
// count, its labels and edges (two endpoints and a label each, 0 for an
// unlabeled edge) up to a zero terminator.
func fuzzDB(data []byte) []*graph.Graph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	db := make([]*graph.Graph, next()%12+1)
	for i := range db {
		n := next() % 10
		g := graph.New(n)
		for v := 0; v < n; v++ {
			g.AddVertex(graph.Label(next() % 6))
		}
		for e := next() % 16; e > 0 && n > 0; e-- {
			g.AddEdgeLabeled(next()%n, next()%n, graph.Label(next()%3))
		}
		db[i] = g
	}
	return db
}

// saved builds db with opt and returns the snapshot bytes and the path
// table's size.
func saved(t *testing.T, db []*graph.Graph, opt Options) ([]byte, int) {
	t.Helper()
	x := New(opt)
	x.Build(db)
	var buf bytes.Buffer
	if err := x.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), x.FeatureDict().TableLen()
}

// FuzzBuildWidths: on random small datasets — edge-labeled ones, and ones
// with fewer graphs than workers — a build at width k saves the bytes of a
// width-1 build and leaves a path table of the same size, with and without
// a Grapes Threads split.
func FuzzBuildWidths(f *testing.F) {
	f.Add([]byte{3, 4, 1, 2, 3, 1, 3, 0, 1, 0, 1, 2, 1, 2, 3, 2, 5, 0, 1, 2, 3, 4, 4, 0, 1, 1}, uint8(2), uint8(0))
	f.Add([]byte{1, 9, 1, 1, 2, 2, 3, 3, 4, 4, 5, 8, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 0, 7, 8, 0}, uint8(8), uint8(4))
	f.Add([]byte{11, 2, 0, 1, 1, 0, 1, 2, 2, 1, 2, 1, 0, 1, 3, 5, 5, 5, 2, 0, 1, 1, 1, 2, 2}, uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, width, threads uint8) {
		db := fuzzDB(data)
		opt := Options{MaxPathLen: 4, Threads: int(threads % 5), Shards: 2, BuildWorkers: 1}
		want, wantTable := saved(t, db, opt)
		opt.BuildWorkers = int(width%8) + 1
		if got, table := saved(t, db, opt); !bytes.Equal(got, want) || table != wantTable {
			t.Fatalf("%d graphs, threads %d, width %d: snapshot %d bytes, table %d; width 1: %d bytes, table %d",
				len(db), opt.Threads, opt.BuildWorkers, len(got), table, len(want), wantTable)
		}
	})
}

// TestConcurrentBuildsWhileQuerying runs builds of two separate indexes,
// each on several workers, while queries filter on a third; every build
// must save the bytes of a sequential one and every query keep its answer.
// Meant for -race (-count=10 makes it a soak).
func TestConcurrentBuildsWhileQuerying(t *testing.T) {
	db := randomDB(60, 5)
	qs := randomQueries(db, 20, 6)
	want, _ := saved(t, db, Options{MaxPathLen: 4, Shards: 2, BuildWorkers: 1})
	served := New(Options{MaxPathLen: 4, BuildWorkers: 3})
	served.Build(db)
	answers := make([]string, len(qs))
	for i, q := range qs {
		answers[i] = fmt.Sprint(served.Filter(q))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got, _ := saved(t, db, Options{MaxPathLen: 4, Shards: 2, BuildWorkers: workers}); !bytes.Equal(got, want) {
					errs <- fmt.Errorf("width %d build saved different bytes", workers)
					return
				}
			}
		}(2 + 2*b)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5*len(qs); i++ {
				if got := fmt.Sprint(served.Filter(qs[i%len(qs)])); got != answers[i%len(qs)] {
					errs <- fmt.Errorf("query %d: %s, want %s", i%len(qs), got, answers[i%len(qs)])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBuildWorkerPanicReachesCaller poisons one chunk of a Threads-split
// build: the panic must reach the caller as *trie.WorkerPanic, and the
// dictionary must not stay locked.
func TestBuildWorkerPanicReachesCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := []*graph.Graph{randomGraph(rng, 20, 0.2, 3), randomGraph(rng, 16, 0.2, 3)}
	tr := trie.New()
	chunks := append(chunkPieces(db, 4, 4), []piece{{g: int32(len(db)), hi: 1}}) // no such graph
	func() {
		defer func() {
			var wp *trie.WorkerPanic
			if err, _ := recover().(error); !errors.As(err, &wp) {
				t.Fatalf("recovered %v, want a *trie.WorkerPanic", err)
			}
		}()
		buildPaths(tr, db, features.PathOptions{MaxLen: 3}, chunks, 4, make([]int32, len(db)))
	}()
	done := make(chan struct{})
	go func() {
		tr.Dict().Intern("p:1")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the dictionary stayed locked after the panic")
	}
}
