package igq

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/iso"
)

func smallDB(t *testing.T) []*Graph {
	t.Helper()
	return GenerateDataset(AIDSSpec().Scaled(0.001, 1))
}

func TestEngineSubgraphLifecycle(t *testing.T) {
	db := smallDB(t)
	eng, err := NewEngine(db, EngineOptions{Method: Grapes, CacheSize: 20, Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := ExtractQuery(db[0], 0, 4)
	ctx := context.Background()
	res, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("extracted query matched nothing")
	}
	for i, m := range res.Matches {
		if !IsSubgraph(q, m) {
			t.Errorf("match %d does not contain the query", i)
		}
		if m != db[res.IDs[i]] {
			t.Errorf("IDs and Matches disagree at %d", i)
		}
	}
	// a repeated query must hit the cache after the window flushes
	for i := 0; i < 6; i++ {
		eng.Query(ctx, ExtractQuery(db[1+i], 0, 8))
	}
	res2, _ := eng.Query(ctx, q.Clone())
	if !res2.Stats.AnsweredByCache {
		t.Error("repeat query not answered by cache")
	}
	if !reflect.DeepEqual(res2.IDs, res.IDs) {
		t.Error("cached answer differs")
	}
	if eng.CacheLen() == 0 {
		t.Error("cache empty after flushes")
	}
	if m, c := eng.IndexSizeBytes(); m <= 0 || c <= 0 {
		t.Errorf("index sizes: method=%d cache=%d", m, c)
	}
}

func TestEngineMethodsAgree(t *testing.T) {
	db := smallDB(t)
	q := ExtractQuery(db[2], 0, 8)
	var ref []int32
	for i, kind := range []MethodKind{Grapes, GGSX, CTIndex} {
		eng, err := NewEngine(db, EngineOptions{Method: kind})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.IDs
			continue
		}
		if !reflect.DeepEqual(res.IDs, ref) {
			t.Errorf("%v answers %v, want %v", kind, res.IDs, ref)
		}
	}
}

func TestEngineDisableCache(t *testing.T) {
	db := smallDB(t)
	eng, err := NewEngine(db, EngineOptions{Method: GGSX, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	q := ExtractQuery(db[0], 0, 4)
	a, _ := eng.Query(context.Background(), q)
	b, _ := eng.Query(context.Background(), q.Clone())
	if b.Stats.AnsweredByCache {
		t.Error("cache disabled but hit recorded")
	}
	if !reflect.DeepEqual(a.IDs, b.IDs) {
		t.Error("uncached answers differ")
	}
	if eng.CacheLen() != 0 {
		t.Error("cache reported entries while disabled")
	}
}

func TestEngineSupergraph(t *testing.T) {
	// dataset of small graphs; supergraph queries retrieve contained ones
	rng := rand.New(rand.NewSource(5))
	var db []*Graph
	for i := 0; i < 15; i++ {
		g := NewGraph(3)
		g.AddVertex(Label(rng.Intn(3)))
		g.AddVertex(Label(rng.Intn(3)))
		g.AddVertex(Label(rng.Intn(3)))
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		g.ID = i
		db = append(db, g)
	}
	eng, err := NewEngine(db, EngineOptions{Supergraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng.MethodName() != "Contain" {
		t.Errorf("method = %q", eng.MethodName())
	}
	// big query containing some of them
	q := NewGraph(6)
	for i := 0; i < 6; i++ {
		q.AddVertex(Label(i % 3))
	}
	for i := 0; i+1 < 6; i++ {
		q.AddEdge(i, i+1)
	}
	res, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if !IsSubgraph(m, q) {
			t.Errorf("match %d not contained in the query", m.ID)
		}
	}
}

func TestEngineEmptyDataset(t *testing.T) {
	if _, err := NewEngine(nil, EngineOptions{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestEngineUnknownMethod(t *testing.T) {
	db := smallDB(t)
	if _, err := NewEngine(db, EngineOptions{Method: MethodKind(99)}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestMethodKindString(t *testing.T) {
	names := map[MethodKind]string{
		Grapes: "Grapes", GGSX: "GGSX", CTIndex: "CT-Index",
		MethodKind(42): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestGraphCodecRoundTripViaAPI(t *testing.T) {
	db := smallDB(t)[:5]
	path := filepath.Join(t.TempDir(), "graphs.db")
	if err := SaveGraphs(path, db); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGraphs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 5 {
		t.Fatalf("round trip lost graphs: %d", len(back))
	}
	for i := range back {
		if !iso.Isomorphic(db[i], back[i]) {
			t.Errorf("graph %d changed in round trip", i)
		}
	}
}

func TestGenerateWorkloadViaAPI(t *testing.T) {
	db := smallDB(t)
	qs := GenerateWorkload(db, WorkloadSpec{
		NumQueries: 20, GraphDist: Zipf, NodeDist: Uniform, Alpha: 1.4, Seed: 3,
	})
	if len(qs) != 20 {
		t.Fatalf("got %d queries", len(qs))
	}
	for i, q := range qs {
		if q.NumEdges() == 0 {
			t.Errorf("query %d empty", i)
		}
	}
}
