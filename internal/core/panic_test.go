package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/index/ggsx"
)

// TestSyncFlushPanicContained: a panic inside a flush's index build must
// arrive on the flushing goroutine — in production the query's, under
// Engine.Query's recover — with the stack of the panic site; the committed
// snapshot keeps serving and later flushes proceed. The poison is a window
// entry with a nil query graph and no features of its own — a stand-in for
// a latent bug that only detonates when the build enumerates the entry.
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
