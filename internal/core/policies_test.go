package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/index/ggsx"
)

func TestUtilityEvictionPreservesCorrectness(t *testing.T) {
	// whatever the §5.1 policy keeps or evicts, answers must equal the method's
	rng := rand.New(rand.NewSource(151))
	db := buildDB(rng, 18)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 6, Window: 2})
	for i, q := range workload(rng, db, 50) {
		want := index.Answer(m, q)
		got := ig.Query(q)
		if !reflect.DeepEqual(got.Answer, want) {
			t.Fatalf("query %d: %v want %v", i, got.Answer, want)
		}
	}
	if ig.CacheLen() > 6 {
		t.Fatalf("cache overflow (%d)", ig.CacheLen())
	}
}

func TestSizeBytesIncludesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	db := buildDB(rng, 8)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 10, Window: 5})
	empty := ig.SizeBytes()
	ig.Query(connectedQuery(rng, db[0], 4)) // stays in window (W=5)
	if ig.WindowLen() != 1 {
		t.Fatal("premise: entry should sit in the window")
	}
	if ig.SizeBytes() <= empty {
		t.Error("SizeBytes ignores pending window entries")
	}
}
