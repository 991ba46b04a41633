package igq

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// bruteAnswer is the index-free oracle: every dataset graph is tested.
func bruteAnswer(q *Graph, db []*Graph) []int32 {
	var out []int32
	for i, g := range db {
		if IsSubgraph(q, g) {
			out = append(out, int32(i))
		}
	}
	return out
}

func soakGraph(rng *rand.Rand, n int, labels int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddVertex(Label(rng.Intn(labels)))
	}
	for u := 1; u < n; u++ { // spanning tree + extras: connected-ish
		g.AddEdge(u, rng.Intn(u))
	}
	for i := 0; i < n/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestMutationSoakDifferential is the property-based soak of the issue:
// randomized interleavings of AddGraphs / RemoveGraphs / Query / engine
// Save→LoadEngineReport / O(delta) journal appends, run across seeds × shard
// layouts × methods, asserting at every step that answers match the
// brute-force oracle over a mirrored reference dataset, and periodically
// that the engine is equivalent (answers + no-cache stats) to a
// from-scratch rebuild and that the journaled on-disk snapshot loads back
// to the same index.
func TestMutationSoakDifferential(t *testing.T) {
	type layout struct {
		method  MethodKind
		shards  int
		workers int
	}
	layouts := []layout{{GGSX, 1, 1}, {GGSX, 4, 2}, {Grapes, 2, 2}}
	for _, lo := range layouts {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/shards=%d/seed=%d", lo.method, lo.shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*100 + int64(lo.shards)))
				ctx := context.Background()
				db := make([]*Graph, 12)
				for i := range db {
					db[i] = soakGraph(rng, 5+rng.Intn(5), 3)
				}
				opt := EngineOptions{
					Method: lo.method, MaxPathLen: 3, CacheSize: 15, Window: 3,
					Shards: lo.shards, BuildWorkers: lo.workers,
				}
				eng, err := NewEngine(db, opt)
				if err != nil {
					t.Fatal(err)
				}
				refDB := append([]*Graph(nil), db...)

				snapPath := filepath.Join(t.TempDir(), "soak.idx")
				sf, err := os.Create(snapPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.SaveIndex(sf); err != nil {
					t.Fatal(err)
				}
				sf.Close()
				appendDelta := func() {
					f, err := os.OpenFile(snapPath, os.O_RDWR, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := eng.AppendIndexDelta(f); err != nil {
						t.Fatalf("AppendIndexDelta: %v", err)
					}
					f.Close()
				}

				probe := func(step int) {
					q := soakGraph(rng, 3+rng.Intn(3), 3)
					res, err := eng.Query(ctx, q)
					if err != nil {
						t.Fatalf("step %d: query: %v", step, err)
					}
					if want := bruteAnswer(q, refDB); !reflect.DeepEqual(res.IDs, want) {
						t.Fatalf("step %d: cached answer %v != oracle %v", step, res.IDs, want)
					}
				}

				for step := 0; step < 30; step++ {
					switch r := rng.Intn(10); {
					case r < 4: // query (cache on, admissions and flushes included)
						probe(step)
					case r < 7: // append
						gs := make([]*Graph, 1+rng.Intn(2))
						for i := range gs {
							gs[i] = soakGraph(rng, 5+rng.Intn(4), 3)
						}
						if err := eng.AddGraphs(ctx, gs); err != nil {
							t.Fatalf("step %d: AddGraphs: %v", step, err)
						}
						refDB = append(append([]*Graph(nil), refDB...), gs...)
						appendDelta()
					case r < 9: // swap-remove (mirror the documented semantics)
						if len(refDB) < 5 {
							probe(step)
							continue
						}
						p := rng.Intn(len(refDB))
						if err := eng.RemoveGraphs(ctx, []int{p}); err != nil {
							t.Fatalf("step %d: RemoveGraphs: %v", step, err)
						}
						last := len(refDB) - 1
						nd := append([]*Graph(nil), refDB...)
						if p != last {
							nd[p] = nd[last]
						}
						refDB = nd[:last]
						appendDelta()
					default: // mid-sequence save→load swap of the whole engine
						var err error
						dir := t.TempDir()
						p := filepath.Join(dir, "eng.igq")
						f, err := os.Create(p)
						if err != nil {
							t.Fatal(err)
						}
						if err := eng.Save(f); err != nil {
							t.Fatalf("step %d: Save: %v", step, err)
						}
						f.Close()
						lf, err := os.Open(p)
						if err != nil {
							t.Fatal(err)
						}
						eng, _, err = LoadEngineReport(lf, refDB, opt)
						lf.Close()
						if err != nil {
							t.Fatalf("step %d: LoadEngineReport: %v", step, err)
						}
					}

					if !reflect.DeepEqual(eng.Dataset(), refDB) {
						t.Fatalf("step %d: engine dataset diverges from reference", step)
					}

					if step%6 == 5 {
						// Rebuild equivalence: answers + no-cache stats.
						fresh, err := NewEngine(refDB, opt)
						if err != nil {
							t.Fatal(err)
						}
						for i := 0; i < 4; i++ {
							q := soakGraph(rng, 3+rng.Intn(3), 3)
							got, err := eng.Query(ctx, q, WithoutCache())
							if err != nil {
								t.Fatal(err)
							}
							want, err := fresh.Query(ctx, q, WithoutCache())
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got.IDs, want.IDs) || got.Stats != want.Stats {
								t.Fatalf("step %d: no-cache divergence from rebuild:\ngot  %v %+v\nwant %v %+v",
									step, got.IDs, got.Stats, want.IDs, want.Stats)
							}
						}

						// Journaled snapshot equivalence: load the delta file
						// into a fresh engine over the current dataset.
						loaded, err := NewEngine(refDB, opt)
						if err != nil {
							t.Fatal(err)
						}
						lf, err := os.Open(snapPath)
						if err != nil {
							t.Fatal(err)
						}
						_, err = loaded.LoadIndex(lf)
						lf.Close()
						if err != nil {
							t.Fatalf("step %d: loading journaled index: %v", step, err)
						}
						for i := 0; i < 4; i++ {
							q := soakGraph(rng, 3+rng.Intn(3), 3)
							got, err := loaded.Query(ctx, q, WithoutCache())
							if err != nil {
								t.Fatal(err)
							}
							want := bruteAnswer(q, refDB)
							if !reflect.DeepEqual(got.IDs, want) {
								t.Fatalf("step %d: journal-loaded index answers %v != oracle %v", step, got.IDs, want)
							}
						}
					}
				}
			})
		}
	}
}
