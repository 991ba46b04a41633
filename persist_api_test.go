package igq

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
)

// TestEngineSaveLoadCache: the cache half of an engine snapshot file
// restores the warm cache into a new engine.
func TestEngineSaveLoadCache(t *testing.T) {
	db := smallDB(t)
	opt := EngineOptions{Method: GGSX, CacheSize: 20, Window: 2}
	eng, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := ExtractQuery(db[0], 0, 6)
	ctx := context.Background()
	first, _ := eng.Query(ctx, q)
	eng.Query(ctx, ExtractQuery(db[1], 0, 4)) // flush (W=2)
	if eng.CacheLen() == 0 {
		t.Fatal("nothing cached")
	}

	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := SaveEngineFile(path, eng); err != nil {
		t.Fatal(err)
	}
	eng2, _, err := LoadEngineFile(path, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng2.Query(ctx, q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.AnsweredByCache {
		t.Error("restored engine did not recognise the cached query")
	}
	if !reflect.DeepEqual(res.IDs, first.IDs) {
		t.Errorf("restored answer %v != original %v", res.IDs, first.IDs)
	}
}

func TestQueryBatchOrderAndCorrectness(t *testing.T) {
	db := smallDB(t)
	cached, _ := NewEngine(db, EngineOptions{Method: GGSX, CacheSize: 20, Window: 4})
	plain, _ := NewEngine(db, EngineOptions{Method: GGSX, DisableCache: true})

	var queries []*Graph
	for i := 0; i < 12; i++ {
		queries = append(queries, ExtractQuery(db[i%len(db)], 0, 4+4*(i%3)))
	}
	seqRes := cached.QueryBatchCtx(context.Background(), queries, 1)
	parRes := plain.QueryBatchCtx(context.Background(), queries, 6)
	for i := range queries {
		if seqRes[i].Err != nil || parRes[i].Err != nil {
			t.Fatalf("query %d errored: %v / %v", i, seqRes[i].Err, parRes[i].Err)
		}
		if seqRes[i].Index != i || parRes[i].Index != i {
			t.Fatalf("result order broken at %d", i)
		}
		if !reflect.DeepEqual(seqRes[i].Result.IDs, parRes[i].Result.IDs) {
			t.Fatalf("query %d: cached %v vs parallel-plain %v",
				i, seqRes[i].Result.IDs, parRes[i].Result.IDs)
		}
	}
}

func TestQueryBatchSupergraphDirection(t *testing.T) {
	var db []*Graph
	for i := 0; i < 8; i++ {
		g := NewGraph(2)
		g.AddVertex(Label(i % 2))
		g.AddVertex(Label((i + 1) % 2))
		g.AddEdge(0, 1)
		db = append(db, g)
	}
	eng, err := NewEngine(db, EngineOptions{Supergraph: true})
	if err != nil {
		t.Fatal(err)
	}
	q := NewGraph(3)
	q.AddVertex(0)
	q.AddVertex(1)
	q.AddVertex(0)
	q.AddEdge(0, 1)
	q.AddEdge(1, 2)
	res := eng.QueryBatchCtx(context.Background(), []*Graph{q, q.Clone()}, 0)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
		if len(r.Result.IDs) == 0 {
			t.Errorf("batch item %d found no contained fragments", i)
		}
	}
}
