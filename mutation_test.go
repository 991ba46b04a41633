package igq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
)

// mutationRef mirrors the engine's dataset through the canonical op
// semantics, so tests can rebuild a reference engine on the final dataset.
type mutationRef struct {
	db []*Graph
}

func (r *mutationRef) add(gs []*Graph) {
	r.db = append(append([]*Graph(nil), r.db...), gs...)
}

func (r *mutationRef) remove(t *testing.T, positions []int) {
	t.Helper()
	out, _, _, err := index.SwapRemove(r.db, positions)
	if err != nil {
		t.Fatal(err)
	}
	r.db = out
}

func randPattern(rng *rand.Rand, db []*Graph) *Graph {
	g := db[rng.Intn(len(db))]
	return ExtractQuery(g, rng.Intn(max(1, g.NumVertices())), 2+rng.Intn(4))
}

// assertEquivalent pins the mutated engine to a from-scratch engine on the
// final dataset: the datasets themselves, method SizeBytes, and — per
// probe query — answers and full no-cache stats must be identical.
func assertEquivalent(t *testing.T, step string, mutated, fresh *Engine, probes []*Graph) {
	t.Helper()
	if !reflect.DeepEqual(mutated.Dataset(), fresh.Dataset()) {
		t.Fatalf("%s: dataset generations diverge", step)
	}
	gotM, _ := mutated.IndexSizeBytes()
	wantM, _ := fresh.IndexSizeBytes()
	if gotM != wantM {
		t.Fatalf("%s: method SizeBytes %d != rebuilt %d", step, gotM, wantM)
	}
	ctx := context.Background()
	for qi, q := range probes {
		got, err := mutated.Query(ctx, q, WithoutCache())
		if err != nil {
			t.Fatalf("%s probe %d: %v", step, qi, err)
		}
		want, err := fresh.Query(ctx, q, WithoutCache())
		if err != nil {
			t.Fatalf("%s probe %d (fresh): %v", step, qi, err)
		}
		if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("%s probe %d: no-cache result diverges\ngot  IDs=%v stats=%+v\nwant IDs=%v stats=%+v",
				step, qi, got.IDs, got.Stats, want.IDs, want.Stats)
		}
		// With the cache on, answers (not stats — the cache histories
		// differ) must still be exact: Theorems 1 and 2 over the mutated
		// dataset.
		cached, err := mutated.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s probe %d (cached): %v", step, qi, err)
		}
		if !reflect.DeepEqual(cached.IDs, want.IDs) {
			t.Fatalf("%s probe %d: cached answer %v != true answer %v", step, qi, cached.IDs, want.IDs)
		}
	}
}

// TestEngineMutationDifferential drives an add/remove/query history through
// a cache-enabled engine across (method, shards, workers) and pins it after
// every mutation to an engine rebuilt from scratch on the final dataset —
// including across a save→load cycle mid-sequence.
func TestEngineMutationDifferential(t *testing.T) {
	cases := []struct {
		method  MethodKind
		shards  int
		workers int
	}{
		{GGSX, 1, 1},
		{GGSX, 8, 4},
		{Grapes, 1, 2},
		{Grapes, 4, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v/shards=%d/workers=%d", tc.method, tc.shards, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + tc.shards)))
			base := GenerateDataset(AIDSSpec().Scaled(0.002, 1))
			extra := GenerateDataset(dataset.PDBS().Scaled(0.02, 0.3))
			if len(extra) < 8 {
				t.Fatalf("need at least 8 extra graphs, got %d", len(extra))
			}
			opt := EngineOptions{
				Method: tc.method, CacheSize: 30, Window: 4,
				Shards: tc.shards, BuildWorkers: tc.workers,
			}
			eng, err := NewEngine(base, opt)
			if err != nil {
				t.Fatal(err)
			}
			ref := &mutationRef{db: base}
			ctx := context.Background()

			// Warm the cache so mutation has committed entries and a pending
			// window to patch.
			for i := 0; i < 10; i++ {
				if _, err := eng.Query(ctx, randPattern(rng, ref.db)); err != nil {
					t.Fatal(err)
				}
			}

			step := 0
			mutate := func() {
				step++
				if step%3 == 2 && len(ref.db) > 6 {
					ps := []int{rng.Intn(len(ref.db)), 0}
					if ps[0] == 0 {
						ps = ps[:1]
					}
					if err := eng.RemoveGraphs(ctx, ps); err != nil {
						t.Fatal(err)
					}
					ref.remove(t, ps)
				} else {
					gs := extra[:2+rng.Intn(3)]
					extra = extra[len(gs):]
					if err := eng.AddGraphs(ctx, gs); err != nil {
						t.Fatal(err)
					}
					ref.add(gs)
				}
			}

			for round := 0; round < 3 && len(extra) >= 5; round++ {
				mutate()
				fresh, err := NewEngine(ref.db, opt)
				if err != nil {
					t.Fatal(err)
				}
				probes := make([]*Graph, 6)
				for i := range probes {
					probes[i] = randPattern(rng, ref.db)
				}
				assertEquivalent(t, fmt.Sprintf("round %d", round), eng, fresh, probes)

				// Interleave queries so the cache keeps evolving between
				// mutations (flushes included).
				for i := 0; i < 5; i++ {
					if _, err := eng.Query(ctx, randPattern(rng, ref.db)); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Mid-sequence save→load: the restored engine must be equivalent
			// to the live one and keep accepting mutations.
			dir := t.TempDir()
			snap := filepath.Join(dir, "engine.igq")
			f, err := os.Create(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Save(f); err != nil {
				t.Fatal(err)
			}
			f.Close()
			lf, err := os.Open(snap)
			if err != nil {
				t.Fatal(err)
			}
			restored, _, err := LoadEngineReport(lf, ref.db, opt)
			lf.Close()
			if err != nil {
				t.Fatal(err)
			}
			eng = restored

			mutate()
			fresh, err := NewEngine(ref.db, opt)
			if err != nil {
				t.Fatal(err)
			}
			probes := make([]*Graph, 6)
			for i := range probes {
				probes[i] = randPattern(rng, ref.db)
			}
			assertEquivalent(t, "post-restore", eng, fresh, probes)
		})
	}
}

// TestEngineMutationCachePatch: a cached answer must be extended by an
// append (the new graph is served from the cache without re-running the
// query against it) and shrunk by a removal.
func TestEngineMutationCachePatch(t *testing.T) {
	db := GenerateDataset(AIDSSpec().Scaled(0.002, 1))
	eng, err := NewEngine(db, EngineOptions{Method: GGSX, CacheSize: 10, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := ExtractQuery(db[0], 0, 3)
	first, err := eng.Query(ctx, q) // admitted; Window=1 flushes immediately
	if err != nil {
		t.Fatal(err)
	}
	if eng.CacheLen() == 0 {
		t.Fatal("query was not cached")
	}

	// Append a clone of a matching graph: it must join the cached answer.
	host := db[first.IDs[0]]
	if err := eng.AddGraphs(ctx, []*Graph{host.Clone()}); err != nil {
		t.Fatal(err)
	}
	newID := int32(len(db)) // appended position
	res, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.AnsweredByCache {
		t.Fatalf("repeated query not answered by cache (stats %+v)", res.Stats)
	}
	found := false
	for _, id := range res.IDs {
		if id == newID {
			found = true
		}
	}
	if !found {
		t.Fatalf("cached answer %v does not include appended matching graph %d", res.IDs, newID)
	}

	// Remove the appended graph again: the cached answer must shrink and
	// renumber, matching a no-cache run exactly.
	if err := eng.RemoveGraphs(ctx, []int{int(newID)}); err != nil {
		t.Fatal(err)
	}
	res2, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Query(ctx, q, WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.IDs, plain.IDs) {
		t.Fatalf("post-removal cached answer %v != plain answer %v", res2.IDs, plain.IDs)
	}
}

// TestRejectedRemovalLeavesNoDeltaTrace: a RemoveGraphs the engine
// rejects (here: it would empty the dataset) must leave nothing behind —
// in particular no ops in the method's delta log, or a later
// AppendIndexDelta would persist a removal that was never applied and the
// journaled snapshot would reload as a drained index.
func TestRejectedRemovalLeavesNoDeltaTrace(t *testing.T) {
	db := GenerateDataset(AIDSSpec().Scaled(0.001, 1))
	eng, err := NewEngine(db, EngineOptions{Method: GGSX, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	snap := filepath.Join(t.TempDir(), "idx")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveIndex(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(snap)

	all := make([]int, len(db))
	for i := range all {
		all[i] = i
	}
	if err := eng.RemoveGraphs(ctx, all); err == nil {
		t.Fatal("removing every graph unexpectedly succeeded")
	}
	f, err = os.OpenFile(snap, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AppendIndexDelta(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	after, _ := os.Stat(snap)
	if after.Size() != before.Size() {
		t.Fatalf("rejected removal grew the snapshot %d -> %d bytes (phantom journal)", before.Size(), after.Size())
	}
	// The snapshot must still load to a fully answering index.
	fresh, err := NewEngine(db, EngineOptions{Method: GGSX, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	lf, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fresh.LoadIndex(lf)
	lf.Close()
	if err != nil {
		t.Fatal(err)
	}
	q := ExtractQuery(db[0], 0, 3)
	res, err := fresh.Query(ctx, q, WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(ctx, q, WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.IDs, want.IDs) || len(res.IDs) == 0 {
		t.Fatalf("reloaded snapshot answers %v, live engine %v", res.IDs, want.IDs)
	}
}

// TestEngineMutationUnsupported: non-mutable methods refuse cleanly.
func TestEngineMutationUnsupported(t *testing.T) {
	db := GenerateDataset(AIDSSpec().Scaled(0.001, 1))
	eng, err := NewEngine(db, EngineOptions{Method: CTIndex, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	err = eng.AddGraphs(context.Background(), []*Graph{db[0].Clone()})
	if !errors.Is(err, index.ErrNotMutable) {
		t.Fatalf("AddGraphs on CT-Index: err = %v, want ErrNotMutable", err)
	}
}
