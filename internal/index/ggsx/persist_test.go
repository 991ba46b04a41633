package ggsx

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
)

// randomDB builds n random labeled graphs, deterministically from seed.
func randomDB(n int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	db := make([]*graph.Graph, n)
	for i := range db {
		nv := 4 + rng.Intn(6)
		g := graph.New(nv)
		for v := 0; v < nv; v++ {
			g.AddVertex(graph.Label(rng.Intn(5)))
		}
		for v := 1; v < nv; v++ {
			g.AddEdge(v, rng.Intn(v)) // spanning tree keeps it connected
		}
		for e := 0; e < nv/2; e++ {
			g.AddEdge(rng.Intn(nv), rng.Intn(nv))
		}
		db[i] = g
	}
	return db
}

// randomQueries extracts query-like subgraphs plus a few misses.
func randomQueries(db []*graph.Graph, n int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*graph.Graph, 0, n)
	for i := 0; i < n; i++ {
		src := db[rng.Intn(len(db))]
		vs := []int{rng.Intn(src.NumVertices())}
		for _, w := range src.Neighbors(vs[0]) {
			vs = append(vs, int(w))
			if len(vs) == 3 {
				break
			}
		}
		q, _ := src.InducedSubgraph(vs)
		if rng.Intn(4) == 0 {
			q = q.Clone()
			q.AddVertex(graph.Label(90 + rng.Intn(3))) // out-of-vocabulary miss
			q.AddEdge(0, q.NumVertices()-1)
		}
		qs = append(qs, q)
	}
	return qs
}

// TestSaveLoadRoundTripIdentity pins the acceptance criterion: a loaded
// index answers byte-identically to a freshly built one, at several
// (shards, workers) combinations on both the save and load side.
func TestSaveLoadRoundTripIdentity(t *testing.T) {
	db := randomDB(40, 1)
	qs := randomQueries(db, 25, 2)
	for _, saveCfg := range []Options{
		{MaxPathLen: 3, Shards: 1, BuildWorkers: 1},
		{MaxPathLen: 3, Shards: 4, BuildWorkers: 4},
		{MaxPathLen: 3, Shards: 16, BuildWorkers: 2},
	} {
		for _, loadCfg := range []Options{
			{MaxPathLen: 3}, // adopt the saved segment count
			{MaxPathLen: 3, Shards: 2, BuildWorkers: 4}, // explicit segment count
		} {
			name := fmt.Sprintf("save[s=%d,w=%d]/load[s=%d,w=%d]",
				saveCfg.Shards, saveCfg.BuildWorkers, loadCfg.Shards, loadCfg.BuildWorkers)
			t.Run(name, func(t *testing.T) {
				built := New(saveCfg)
				built.Build(db)
				var buf bytes.Buffer
				if err := built.SaveIndex(&buf); err != nil {
					t.Fatal(err)
				}
				loaded := New(loadCfg)
				if _, err := loaded.LoadIndex(bytes.NewReader(buf.Bytes()), db); err != nil {
					t.Fatal(err)
				}
				if bs, ls := built.SizeBytes(), loaded.SizeBytes(); bs != ls {
					t.Errorf("SizeBytes %d != %d after load", ls, bs)
				}
				for i, q := range qs {
					bf, lf := built.Filter(q), loaded.Filter(q)
					if !reflect.DeepEqual(bf, lf) {
						t.Fatalf("query %d: filter %v != %v", i, lf, bf)
					}
					if !reflect.DeepEqual(index.Answer(built, q), index.Answer(loaded, q)) {
						t.Fatalf("query %d: answers diverge", i)
					}
				}
			})
		}
	}
}

func TestLoadIndexRejectsWrongDataset(t *testing.T) {
	db := randomDB(20, 3)
	other := randomDB(20, 99)
	x := New(Options{MaxPathLen: 3})
	x.Build(db)
	var buf bytes.Buffer
	if err := x.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	y := New(Options{MaxPathLen: 3})
	_, err := y.LoadIndex(bytes.NewReader(buf.Bytes()), other)
	if !errors.Is(err, index.ErrDatasetMismatch) {
		t.Errorf("load against different dataset: got %v, want ErrDatasetMismatch", err)
	}
	// Same graphs, different order: positions shift, so this is a
	// different dataset too.
	reordered := append([]*graph.Graph(nil), db[1:]...)
	reordered = append(reordered, db[0])
	_, err = y.LoadIndex(bytes.NewReader(buf.Bytes()), reordered)
	if !errors.Is(err, index.ErrDatasetMismatch) {
		t.Errorf("load against reordered dataset: got %v, want ErrDatasetMismatch", err)
	}
}

func TestLoadIndexRejectsWrongMethod(t *testing.T) {
	db := randomDB(10, 5)
	x := New(Options{MaxPathLen: 3})
	x.Build(db)
	var buf bytes.Buffer
	if err := x.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	data := bytes.Replace(buf.Bytes(), []byte("GGSX"), []byte("XSGG"), 1)
	if _, err := x.LoadIndex(bytes.NewReader(data), db); err == nil {
		t.Error("foreign-method snapshot loaded without error")
	}
}

// A failed load (envelope valid, trie section corrupt) must leave the
// index exactly as it was: same vocabulary, same IDs, same answers — not a
// half-reset dictionary probing stale postings.
func TestLoadIndexFailureLeavesIndexIntact(t *testing.T) {
	db := randomDB(20, 8)
	qs := randomQueries(db, 15, 9)
	x := New(Options{MaxPathLen: 3})
	x.Build(db)
	want := make([][]int32, len(qs))
	for i, q := range qs {
		want[i] = append([]int32(nil), x.Filter(q)...)
	}
	var buf bytes.Buffer
	if err := x.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-10] // valid envelope, torn trie
	if _, err := x.LoadIndex(bytes.NewReader(truncated), db); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
	if got := x.FeatureDict().Len(); got == 0 {
		t.Fatal("failed load wiped the dictionary")
	}
	for i, q := range qs {
		if !reflect.DeepEqual(x.Filter(q), want[i]) {
			t.Fatalf("query %d answers changed after failed load", i)
		}
	}
}

func TestSaveIndexBeforeBuild(t *testing.T) {
	x := New(Options{})
	if err := x.SaveIndex(&bytes.Buffer{}); err == nil {
		t.Error("SaveIndex before Build did not error")
	}
}

// TestBuildSnapshotDeterministic: a sequential build numbers features in
// DFS first-visit order, so two BuildWorkers: 1 builds of one dataset save
// byte-identical snapshots.
func TestBuildSnapshotDeterministic(t *testing.T) {
	db := randomDB(80, 9)
	for _, threads := range []int{0, 1} {
		var snaps [2][]byte
		for i := range snaps {
			x := New(Options{MaxPathLen: 4, Threads: threads, Shards: 4, BuildWorkers: 1})
			x.Build(db)
			var buf bytes.Buffer
			if err := x.SaveIndex(&buf); err != nil {
				t.Fatal(err)
			}
			snaps[i] = buf.Bytes()
		}
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Errorf("threads %d: two sequential builds saved different snapshots (%d vs %d bytes)", threads, len(snaps[0]), len(snaps[1]))
		}
	}
}
