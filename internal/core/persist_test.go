package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/index/contain"
	"repro/internal/index/ggsx"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	db := buildDB(rng, 20)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 15, Window: 3})
	for _, q := range workload(rng, db, 40) {
		ig.Query(q)
	}
	if ig.CacheLen() == 0 {
		t.Fatal("nothing cached — test premise broken")
	}

	var buf bytes.Buffer
	if err := ig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, m, db, Options{CacheSize: 15, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	if restored.CacheLen() != ig.CacheLen() {
		t.Fatalf("cache length %d != %d after restore", restored.CacheLen(), ig.CacheLen())
	}
	if restored.seq.Load() != ig.seq.Load() || restored.Flushes() != ig.Flushes() {
		t.Error("counters not restored")
	}

	// behavioural equivalence: identical hits fire identically
	for _, e := range ig.snap.Load().entries[:3] {
		a := ig.Query(e.g.Clone())
		b := restored.Query(e.g.Clone())
		if a.Short != IdenticalHit || b.Short != IdenticalHit {
			t.Fatalf("cached query not identical-hit after restore: %v vs %v", a.Short, b.Short)
		}
		if !reflect.DeepEqual(a.Answer, b.Answer) {
			t.Fatal("restored cache returns different answers")
		}
	}
}

func TestDictionaryRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	db := buildDB(rng, 15)
	// BruteForce shares no dictionary, so the IGQ owns a private one and a
	// restore must reproduce the exact key → FeatureID assignment.
	m := index.NewBruteForce()
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 10, Window: 2})
	for _, q := range workload(rng, db, 20) {
		ig.Query(q)
	}
	if ig.dict.Len() == 0 {
		t.Fatal("dictionary empty — test premise broken")
	}

	var buf bytes.Buffer
	if err := ig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := index.NewBruteForce()
	m2.Build(db)
	restored, err := Load(&buf, m2, db, Options{CacheSize: 10, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.dict.Keys(), ig.dict.Keys()) {
		t.Fatalf("dictionary did not round-trip: %d keys vs %d",
			restored.dict.Len(), ig.dict.Len())
	}
	for _, k := range ig.dict.Keys() {
		a, _ := ig.dict.Lookup(k)
		b, ok := restored.dict.Lookup(k)
		if !ok || a != b {
			t.Fatalf("key %q: id %d vs %d (ok=%v)", k, a, b, ok)
		}
	}
}

func TestLoadRejectsWrongDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	db := buildDB(rng, 10)
	other := buildDB(rng, 10)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 5, Window: 1})
	ig.Query(connectedQuery(rng, db[0], 3))

	var buf bytes.Buffer
	if err := ig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := ggsx.New(ggsx.DefaultOptions())
	m2.Build(other)
	if _, err := Load(&buf, m2, other, Options{}); err == nil {
		t.Error("snapshot accepted for a different dataset")
	} else if !strings.Contains(err.Error(), "different dataset") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	db := buildDB(rng, 5)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	if _, err := Load(bytes.NewBufferString("not a snapshot"), m, db, Options{}); err == nil {
		t.Error("garbage decoded successfully")
	}
}

func TestLoadShrinksToCacheSize(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	db := buildDB(rng, 15)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 12, Window: 2})
	for _, q := range workload(rng, db, 30) {
		ig.Query(q)
	}
	var buf bytes.Buffer
	if err := ig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	small, err := Load(&buf, m, db, Options{CacheSize: 4, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if small.CacheLen() > 4 {
		t.Errorf("restored cache %d exceeds configured size 4", small.CacheLen())
	}
	// restored engine still answers correctly
	q := connectedQuery(rng, db[3], 4)
	want := small.Query(q).Answer
	got := ig.Query(q.Clone()).Answer
	if !reflect.DeepEqual(want, got) {
		t.Error("answers diverge after shrinking restore")
	}
}

// A snapshot of one direction's cache is refused by a load into the other
// direction: a cache earned by supergraph queries must never answer
// subgraph queries, nor the reverse.
func TestLoadRefusesOtherDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	db := buildDB(rng, 15)
	store := ggsx.New(ggsx.DefaultOptions())
	store.Build(db)
	methods := map[Mode]index.Method{SubgraphQueries: store, SupergraphQueries: contain.Over(store)}
	qs := workload(rng, db, 12)
	for saved, m := range methods {
		ig := New(m, db, Options{CacheSize: 10, Window: 2, Mode: saved})
		for _, q := range qs {
			ig.Query(q.Clone())
		}
		var buf bytes.Buffer
		if err := ig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		other := SupergraphQueries - saved
		if _, err := Load(bytes.NewReader(buf.Bytes()), methods[other], db, Options{Mode: other}); err == nil || !strings.Contains(err.Error(), "answers, not") {
			t.Errorf("%v snapshot loaded as %v: err = %v", saved, other, err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes()), m, db, Options{Mode: saved}); err != nil {
			t.Errorf("%v snapshot refused by its own direction: %v", saved, err)
		}
	}
}

func TestSaveFlushesWindow(t *testing.T) {
	// Regression: Save used to snapshot committed entries only, silently
	// dropping queries still pending in the credit window — knowledge paid
	// for before shutdown evaporated on restart. Save now flushes the
	// partial window first.
	rng := rand.New(rand.NewSource(95))
	db := buildDB(rng, 10)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 10, Window: 5})
	q := connectedQuery(rng, db[0], 3)
	ig.Query(q.Clone()) // stays in window (W=5)
	if ig.WindowLen() != 1 || ig.CacheLen() != 0 {
		t.Fatalf("premise: window=%d cache=%d", ig.WindowLen(), ig.CacheLen())
	}
	var buf bytes.Buffer
	if err := ig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if ig.WindowLen() != 0 || ig.CacheLen() != 1 {
		t.Errorf("after Save: window=%d cache=%d, want flushed 0/1",
			ig.WindowLen(), ig.CacheLen())
	}
	restored, err := Load(&buf, m, db, Options{CacheSize: 10, Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	if restored.CacheLen() != 1 || restored.WindowLen() != 0 {
		t.Fatalf("restored: cache=%d window=%d, want the flushed entry committed",
			restored.CacheLen(), restored.WindowLen())
	}
	// The pre-shutdown query must be a §4.3 identical hit after restart.
	out := restored.Query(q.Clone())
	if out.Short != IdenticalHit {
		t.Errorf("restored cache missed the pre-shutdown query (short=%v)", out.Short)
	}
}

func TestGraphCorruptionRejected(t *testing.T) {
	// hand-craft a snapshot with an out-of-range answer id
	rng := rand.New(rand.NewSource(96))
	db := buildDB(rng, 5)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 5, Window: 1})
	ig.Query(connectedQuery(rng, db[0], 3))
	// corrupt the in-memory answer then save
	ig.snap.Load().entries[0].answer = []int32{999}
	var buf bytes.Buffer
	if err := ig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, m, db, Options{}); err == nil {
		t.Error("out-of-range answer id accepted")
	}
}

// TestLoadAcceptsV2Snapshot: version 2 snapshots (written before the Shards
// field existed; it is ignored now) still load, with answers
// intact.
func TestLoadAcceptsV2Snapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	db := buildDB(rng, 20)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	ig := New(m, db, Options{CacheSize: 15, Window: 3})
	queries := workload(rng, db, 30)
	for _, q := range queries {
		ig.Query(q)
	}
	if ig.CacheLen() == 0 {
		t.Fatal("nothing cached — test premise broken")
	}

	// Re-encode the current state as a version-2 snapshot: decode the v3
	// wire form and strip the fields v2 lacked.
	var buf bytes.Buffer
	if err := ig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap wireSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	snap.Version = 2
	snap.Shards = 0
	var v2 bytes.Buffer
	if err := gob.NewEncoder(&v2).Encode(snap); err != nil {
		t.Fatal(err)
	}

	restored, err := Load(&v2, m, db, Options{CacheSize: 15, Window: 3})
	if err != nil {
		t.Fatalf("v2 snapshot rejected: %v", err)
	}
	if restored.CacheLen() != ig.CacheLen() {
		t.Fatalf("cache length %d != %d after v2 restore", restored.CacheLen(), ig.CacheLen())
	}
	for _, q := range queries[:5] {
		a, b := ig.Query(q.Clone()), restored.Query(q.Clone())
		if !reflect.DeepEqual(a.Answer, b.Answer) {
			t.Fatal("v2-restored cache returns different answers")
		}
	}
}
