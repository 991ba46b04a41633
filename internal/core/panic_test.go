package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/index/ggsx"
	"repro/internal/trie"
)

// TestShadowBuildPanicContained pins the §5.2 async-build containment
// documented in README.md: a panic inside the background shadow-index
// build must not kill the process, must clear the in-flight latch (so
// later flushes don't block forever), must leave the committed snapshot
// serving, and must surface through Options.PanicHandler. The poison is a
// window entry with a nil query graph — a stand-in for a latent bug that
// only detonates during the rebuild's feature enumeration. BuildWorkers is
// forced to 2 so the detonation happens on a trie.ParallelFor worker
// goroutine at any GOMAXPROCS: the panic has to be carried back to the
// builder goroutine, whose recover is the only one there is.
func TestShadowBuildPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := buildDB(rng, 15)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)

	panics := make(chan any, 1)
	ig := New(m, db, Options{
		CacheSize: 10, Window: 3, AsyncMaintenance: true, BuildWorkers: 2,
		PanicHandler: func(r any, stack []byte) {
			if len(stack) == 0 {
				t.Error("PanicHandler got an empty stack")
			}
			if wp, ok := r.(*trie.WorkerPanic); !ok || !bytes.Contains(wp.Stack, []byte("features.PathsID")) {
				t.Errorf("PanicHandler got %T, want *trie.WorkerPanic carrying the worker's stack", r)
			}
			panics <- r
		},
	})
	qs := workload(rng, db, 6)
	for _, q := range qs {
		ig.Query(q.Clone())
	}
	probe := qs[0].Clone()
	before := ig.Query(probe.Clone()).Answer
	flushesBefore := ig.Flushes()

	// Plant the poisoned entry and force a flush; the sync part (plan +
	// window reset) succeeds, the async build detonates.
	ig.mu.Lock()
	ig.window = append(ig.window, &entry{id: 9999})
	ig.flushLocked()
	ig.mu.Unlock()

	select {
	case r := <-panics:
		if r == nil {
			t.Fatal("PanicHandler invoked with nil value")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PanicHandler never invoked — the panic escaped or the build hung")
	}

	// The latch was cleared before the handler ran, so nothing can block
	// on the dead build.
	ig.mu.Lock()
	latch := ig.shadowDone
	ig.mu.Unlock()
	if latch != nil {
		t.Fatal("shadowDone latch still set after a panicked build")
	}

	// The committed snapshot keeps serving identical answers, and the
	// poisoned entry died with the failed build (it was only ever in the
	// aborted shadow's entry set).
	if after := ig.Query(probe.Clone()).Answer; !reflect.DeepEqual(after, before) {
		t.Fatalf("answers changed across a contained panic: %v -> %v", before, after)
	}

	// Later flushes proceed normally — the cache keeps earning.
	for _, q := range workload(rng, db, 12) {
		ig.Query(q.Clone())
	}
	ig.mu.Lock()
	ig.waitShadowLocked()
	ig.mu.Unlock()
	if ig.Flushes() <= flushesBefore {
		t.Fatalf("no flush completed after the contained panic (%d)", ig.Flushes())
	}
	if ig.CacheLen() == 0 {
		t.Fatal("cache empty after post-panic flushes")
	}
}

// TestSyncFlushPanicContained is the same poison on the synchronous flush
// path at build width 2: the panic must arrive on the flushing goroutine —
// in production the query's, under Engine.Query's recover — as a
// *trie.WorkerPanic, not kill the process from a worker goroutine; the
// committed snapshot keeps serving and later flushes proceed.
func TestSyncFlushPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := buildDB(rng, 15)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 10, Window: 3, BuildWorkers: 2})
	qs := workload(rng, db, 6)
	for _, q := range qs {
		ig.Query(q.Clone())
	}
	probe := qs[0].Clone()
	before := ig.Query(probe.Clone()).Answer
	flushesBefore := ig.Flushes()

	recovered := func() (r any) {
		ig.mu.Lock()
		defer ig.mu.Unlock()
		defer func() { r = recover() }()
		ig.window = append(ig.window, &entry{id: 9999}, &entry{id: 9998})
		ig.flushLocked()
		return nil
	}()
	wp, ok := recovered.(*trie.WorkerPanic)
	if !ok {
		t.Fatalf("flushLocked recovered %T (%v), want *trie.WorkerPanic", recovered, recovered)
	}
	if !bytes.Contains(wp.Stack, []byte("features.PathsID")) {
		t.Errorf("WorkerPanic stack does not show the panic site:\n%s", wp.Stack)
	}

	if after := ig.Query(probe.Clone()).Answer; !reflect.DeepEqual(after, before) {
		t.Fatalf("answers changed across a contained panic: %v -> %v", before, after)
	}
	for _, q := range workload(rng, db, 12) {
		ig.Query(q.Clone())
	}
	if ig.Flushes() <= flushesBefore+1 {
		t.Fatalf("no flush completed after the contained panic (%d)", ig.Flushes())
	}
	if ig.CacheLen() == 0 {
		t.Fatal("cache empty after post-panic flushes")
	}
}
