package igq

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// TestMutationUnderLoadRace hammers one engine with 8 query goroutines
// while the main goroutine appends graphs, removes graphs and takes a
// mid-stream Save — the torn-snapshot hunt of the issue, meant to run
// under -race (the CI race job runs every test with it). Each query must
// come back internally consistent (sorted ids, ids↔matches agreeing, every
// match a real graph of *some* generation), and the engine's aggregate
// counters must be monotonic throughout.
func TestMutationUnderLoadRace(t *testing.T) {
	base := GenerateDataset(AIDSSpec().Scaled(0.002, 1))
	extra := GenerateDataset(dataset.PDBS().Scaled(0.02, 0.3))
	if len(extra) < 12 {
		t.Fatalf("need 12 extra graphs, got %d", len(extra))
	}
	eng, err := NewEngine(base, EngineOptions{Method: Grapes, CacheSize: 25, Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var (
		stop    atomic.Bool
		queries atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for !stop.Load() {
				src := base[rng.Intn(len(base))] // base graphs are never removed below
				q := ExtractQuery(src, rng.Intn(src.NumVertices()), 2+rng.Intn(4))
				res, err := eng.Query(ctx, q)
				if err != nil {
					t.Errorf("worker %d: query error: %v", w, err)
					return
				}
				queries.Add(1)
				if len(res.IDs) != len(res.Matches) {
					t.Errorf("worker %d: %d ids but %d matches (torn result)", w, len(res.IDs), len(res.Matches))
					return
				}
				for i, id := range res.IDs {
					if i > 0 && res.IDs[i-1] >= id {
						t.Errorf("worker %d: unsorted answer %v", w, res.IDs)
						return
					}
					if res.Matches[i] == nil {
						t.Errorf("worker %d: nil match at %d", w, i)
						return
					}
					if !IsSubgraph(q, res.Matches[i]) {
						t.Errorf("worker %d: match %d does not contain the query (generation mix-up)", w, i)
						return
					}
				}
			}
		}(w)
	}

	// Monotonic counter sampler.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last EngineStats
		for !stop.Load() {
			st := eng.Stats()
			if st.Queries < last.Queries || st.DatasetIsoTests < last.DatasetIsoTests ||
				st.CacheIsoTests < last.CacheIsoTests || st.AnsweredByCache < last.AnsweredByCache {
				t.Errorf("stats went backwards: %+v -> %+v", last, st)
				return
			}
			last = st
		}
	}()

	// Mutator: appends, one removal wave, one mid-stream Save.
	for i := 0; i < 4; i++ {
		if err := eng.AddGraphs(ctx, extra[i*3:i*3+3]); err != nil {
			t.Errorf("AddGraphs: %v", err)
		}
		if i == 1 {
			if err := eng.Save(io.Discard); err != nil {
				t.Errorf("Save under load: %v", err)
			}
		}
		if i == 2 {
			// Remove two of the appended graphs (positions past the base —
			// query workers only extract from base graphs, which survive).
			n := len(eng.Dataset())
			if err := eng.RemoveGraphs(ctx, []int{n - 1, n - 2}); err != nil {
				t.Errorf("RemoveGraphs: %v", err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	if got := eng.Stats().Queries; got < queries.Load() {
		t.Errorf("engine counted %d queries, workers issued at least %d", got, queries.Load())
	}
}
