package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/contain"
)

// TestDatasetAppendedSupergraphMode pins the §4.4 direction of the cache
// patch: in supergraph mode a cached entry's answer lists dataset graphs
// *contained in* the cached query, so an append must test newGraph ⊆
// cachedQuery — the inverse of subgraph mode. The wrapped method is
// rebuilt by hand: core's patch is method-agnostic.
func TestDatasetAppendedSupergraphMode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := make([]*graph.Graph, 12)
	for i := range db {
		db[i] = randomGraph(rng, 2+rng.Intn(3), 0.6, 2)
	}
	m := contain.New(contain.DefaultOptions())
	m.Build(db)
	ig := core.New(m, db, core.Options{CacheSize: 8, Window: 1, Mode: core.SupergraphQueries})

	// Cache one large query (window 1: admitted and flushed immediately).
	q := randomGraph(rng, 7, 0.5, 2)
	first := ig.Query(q)
	if ig.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d, want 1", ig.CacheLen())
	}

	// Append a graph guaranteed to be contained in q (an induced piece of
	// it) plus one with a label outside q's alphabet (never contained).
	sub, _ := q.InducedSubgraph(q.BFSOrder(0)[:2])
	alien := graph.New(2)
	alien.AddVertex(9)
	alien.AddVertex(9)
	alien.AddEdge(0, 1)
	newDB := append(append([]*graph.Graph(nil), db...), sub, alien)
	m2 := contain.New(contain.DefaultOptions())
	m2.Build(newDB)
	if err := ig.DatasetAppended(context.Background(), m2, newDB, len(db)); err != nil {
		t.Fatal(err)
	}

	// The identical query now answers from the cache — and must include the
	// appended contained graph but not the alien one.
	res := ig.Query(q)
	if res.Short != core.IdenticalHit {
		t.Fatalf("expected identical-hit short circuit, got %v", res.Short)
	}
	want := index.Answer(m2, q)
	if !reflect.DeepEqual(res.Answer, want) {
		t.Fatalf("patched cached answer %v != method answer %v (was %v before append)",
			res.Answer, want, first.Answer)
	}
	subID, alienID := int32(len(db)), int32(len(db)+1)
	if !containsID(res.Answer, subID) {
		t.Errorf("answer %v missing appended contained graph %d", res.Answer, subID)
	}
	if containsID(res.Answer, alienID) {
		t.Errorf("answer %v wrongly includes alien graph %d", res.Answer, alienID)
	}
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestDatasetAppendedPatchesWindow: entries still pending in the admission
// window (not yet flushed into a snapshot) must be patched too — their
// answers become cache knowledge at the next flush.
func TestDatasetAppendedPatchesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := make([]*graph.Graph, 10)
	for i := range db {
		db[i] = randomGraph(rng, 5+rng.Intn(3), 0.5, 2)
	}
	// Subgraph mode needs a subgraph method; use brute force (any Method).
	bf := index.NewBruteForce()
	bf.Build(db)
	ig := core.New(bf, db, core.Options{CacheSize: 8, Window: 3})

	q := randomGraph(rng, 3, 0.8, 2)
	ig.Query(q) // admitted, window not yet full → pending
	if ig.WindowLen() != 1 {
		t.Fatalf("WindowLen = %d, want 1", ig.WindowLen())
	}

	// Append a supergraph of q: must join the pending entry's answer.
	host := q.Clone()
	host.AddVertex(1)
	host.AddEdge(host.NumVertices()-1, 0)
	newDB := append(append([]*graph.Graph(nil), db...), host)
	bf2 := index.NewBruteForce()
	bf2.Build(newDB)
	if err := ig.DatasetAppended(context.Background(), bf2, newDB, len(db)); err != nil {
		t.Fatal(err)
	}

	// Flush the window (two more admissions), then re-ask q: the identical
	// hit must carry the patched answer including the appended host.
	for i := 0; i < 2; i++ {
		ig.Query(randomGraph(rng, 4, 0.5, 2))
	}
	res := ig.Query(q)
	if res.Short != core.IdenticalHit {
		t.Fatalf("expected identical hit, got %v (cache len %d)", res.Short, ig.CacheLen())
	}
	if !containsID(res.Answer, int32(len(db))) {
		t.Fatalf("window entry answer %v missing appended host %d", res.Answer, len(db))
	}
	if want := index.Answer(bf2, q); !reflect.DeepEqual(res.Answer, want) {
		t.Fatalf("patched answer %v != method answer %v", res.Answer, want)
	}
}
