package grapes

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
			g.AddEdge(v, rng.Intn(v))
		}
		for e := 0; e < nv/2; e++ {
			g.AddEdge(rng.Intn(nv), rng.Intn(nv))
		}
		db[i] = g
	}
	return db
}

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
		qs = append(qs, q)
	}
	return qs
}

// A loaded Grapes index answers byte-identically to a freshly built one,
// across (shards, workers) combos.
func TestSaveLoadRoundTripIdentity(t *testing.T) {
	db := randomDB(35, 21)
	qs := randomQueries(db, 25, 22)
	for _, saveCfg := range []Options{
		{MaxPathLen: 3, Threads: 1, Shards: 1},
		{MaxPathLen: 3, Threads: 2, Shards: 8, BuildWorkers: 4},
	} {
		for _, loadCfg := range []Options{
			{MaxPathLen: 3, Threads: 1},
			{MaxPathLen: 3, Threads: 2, Shards: 2, BuildWorkers: 3},
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
					if !reflect.DeepEqual(built.Filter(q), loaded.Filter(q)) {
						t.Fatalf("query %d: filters diverge", i)
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
	db := randomDB(15, 31)
	x := New(Options{MaxPathLen: 3})
	x.Build(db)
	var buf bytes.Buffer
	if err := x.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	y := New(Options{MaxPathLen: 3})
	_, err := y.LoadIndex(bytes.NewReader(buf.Bytes()), randomDB(15, 32))
	if !errors.Is(err, index.ErrDatasetMismatch) {
		t.Errorf("got %v, want ErrDatasetMismatch", err)
	}
}

// A GGSX snapshot must not load into a Grapes index: the envelope's method
// tag keeps the two apart, although their trie bytes are identical.
func TestLoadIndexRejectsForeignSnapshot(t *testing.T) {
	db := randomDB(10, 41)
	x := New(Options{MaxPathLen: 3})
	x.Build(db)
	var buf bytes.Buffer
	if err := x.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	data := bytes.Replace(buf.Bytes(), []byte("Grapes"), []byte("GGSX\x00\x00"), 1)
	if _, err := x.LoadIndex(bytes.NewReader(data), db); err == nil {
		t.Error("foreign snapshot loaded without error")
	}
}
