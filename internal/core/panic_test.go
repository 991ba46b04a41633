package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/index/ggsx"
)

// TestShadowBuildPanicContained pins the §5.2 async-build containment
// documented in README.md: a panic inside the background shadow-index
// build must not kill the process, must clear the in-flight latch (so
// later flushes don't block forever), must leave the committed snapshot
// serving, and must surface through Options.PanicHandler. The poison is a
// window entry with a nil query graph and no features of its own — a
// stand-in for a latent bug that only detonates when the build enumerates
// the entry. The build runs on the builder goroutine alone, so the panic
// arrives there directly, with the stack of the panic site.
func TestShadowBuildPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := buildDB(rng, 15)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)

	panics := make(chan any, 1)
	ig := New(m, db, Options{
		CacheSize: 10, Window: 3, AsyncMaintenance: true,
		PanicHandler: func(r any, stack []byte) {
			if !bytes.Contains(stack, []byte("features.PathsID")) {
				t.Errorf("PanicHandler's stack does not show the panic site:\n%s", stack)
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
// path: the panic must arrive on the flushing goroutine — in production the
// query's, under Engine.Query's recover; the committed snapshot keeps
// serving and later flushes proceed.
func TestSyncFlushPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := buildDB(rng, 15)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 10, Window: 3})
	qs := workload(rng, db, 6)
	for _, q := range qs {
		ig.Query(q.Clone())
	}
	probe := qs[0].Clone()
	before := ig.Query(probe.Clone()).Answer
	flushesBefore := ig.Flushes()

	var stack []byte
	recovered := func() (r any) {
		ig.mu.Lock()
		defer ig.mu.Unlock()
		defer func() {
			if r = recover(); r != nil {
				stack = debug.Stack()
			}
		}()
		ig.window = append(ig.window, &entry{id: 9999}, &entry{id: 9998})
		ig.flushLocked()
		return nil
	}()
	if recovered == nil {
		t.Fatal("flushLocked over a poisoned entry did not panic on the flushing goroutine")
	}
	if !bytes.Contains(stack, []byte("features.PathsID")) {
		t.Errorf("the recovered stack does not show the panic site:\n%s", stack)
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
