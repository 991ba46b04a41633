package igq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
)

// engineQueries builds a deterministic workload with repeats (so the cache
// fills) from db.
func engineQueries(db []*Graph, n int, seed int64) []*Graph {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*Graph, 0, n)
	for i := 0; i < n; i++ {
		qs = append(qs, ExtractQuery(db[rng.Intn(len(db))], rng.Intn(3), 3+rng.Intn(6)))
	}
	// sprinkle exact repeats to exercise cache hits after restore
	for i := 4; i < len(qs); i += 4 {
		qs[i] = qs[i-4].Clone()
	}
	return qs
}

// runAll serves a workload sequentially, returning answers and stats.
func runAll(t *testing.T, eng *Engine, qs []*Graph) ([][]int32, []QueryStats) {
	t.Helper()
	ids := make([][]int32, len(qs))
	sts := make([]QueryStats, len(qs))
	for i, q := range qs {
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], sts[i] = res.IDs, res.Stats
	}
	return ids, sts
}

// The acceptance criterion: an engine restored by LoadEngineReport answers a
// whole workload byte-identically (answers, stats, order) to a freshly
// built engine, for both persistable methods and at several (shards,
// workers) combinations.
func TestEngineSnapshotRoundTripIdentity(t *testing.T) {
	db := smallDB(t)
	qs := engineQueries(db, 30, 7)
	for _, method := range []MethodKind{GGSX, Grapes} {
		for _, cfg := range []struct{ shards, workers int }{
			{0, 0}, {1, 1}, {4, 3},
		} {
			t.Run(fmt.Sprintf("%v/shards=%d,workers=%d", method, cfg.shards, cfg.workers), func(t *testing.T) {
				opt := EngineOptions{
					Method: method, CacheSize: 10, Window: 4,
					Shards: cfg.shards, BuildWorkers: cfg.workers,
				}
				built, err := NewEngine(db, opt)
				if err != nil {
					t.Fatal(err)
				}
				// Warm the cache, then snapshot index+cache together.
				runAll(t, built, qs[:10])
				var snap bytes.Buffer
				if err := built.Save(&snap); err != nil {
					t.Fatal(err)
				}

				loaded, _, err := LoadEngineReport(bytes.NewReader(snap.Bytes()), db, opt)
				if err != nil {
					t.Fatal(err)
				}
				if loaded.CacheLen() != built.CacheLen() {
					t.Errorf("restored cache holds %d entries, want %d", loaded.CacheLen(), built.CacheLen())
				}
				bIDs, bStats := runAll(t, built, qs[10:])
				lIDs, lStats := runAll(t, loaded, qs[10:])
				if !reflect.DeepEqual(bIDs, lIDs) {
					t.Error("answers diverge between built and loaded engine")
				}
				if !reflect.DeepEqual(bStats, lStats) {
					t.Error("per-query stats diverge between built and loaded engine")
				}
			})
		}
	}
}

// Regression: queries still pending in the credit window at shutdown used
// to be dropped by Save — a server that answered fewer than Window distinct
// queries since its last flush restarted with an empty cache. Save now
// flushes the partial window, so pre-shutdown knowledge survives a
// save/load cycle as cache hits.
func TestEngineSaveCommitsPendingWindow(t *testing.T) {
	db := smallDB(t)
	opt := EngineOptions{Method: GGSX, CacheSize: 16, Window: 8}
	eng, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Fewer distinct queries than the window size: nothing has flushed.
	qs := []*Graph{
		ExtractQuery(db[0], 0, 5),
		ExtractQuery(db[1], 1, 4),
		ExtractQuery(db[2], 0, 6),
	}
	first := make([][]int32, len(qs))
	for i, q := range qs {
		res, err := eng.Query(context.Background(), q.Clone())
		if err != nil {
			t.Fatal(err)
		}
		first[i] = res.IDs
	}
	if eng.CacheLen() != 0 {
		t.Fatalf("premise: %d entries flushed before Save", eng.CacheLen())
	}
	var snap bytes.Buffer
	if err := eng.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadEngineReport(bytes.NewReader(snap.Bytes()), db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.CacheLen() != len(qs) {
		t.Fatalf("restored cache holds %d entries, want %d", loaded.CacheLen(), len(qs))
	}
	for i, q := range qs {
		res, err := loaded.Query(context.Background(), q.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.AnsweredByCache {
			t.Errorf("query %d not answered from the restored cache", i)
		}
		if !reflect.DeepEqual(res.IDs, first[i]) {
			t.Errorf("query %d answer %v != pre-shutdown %v", i, res.IDs, first[i])
		}
	}
}

// Loading a snapshot against a different dataset must fail with the
// checksum error, for both the index-only and the combined path.
func TestEngineSnapshotRejectsWrongDataset(t *testing.T) {
	db := smallDB(t)
	other := GenerateDataset(dataset.PDBS().Scaled(0.02, 0.2))
	eng, err := NewEngine(db, EngineOptions{Method: GGSX})
	if err != nil {
		t.Fatal(err)
	}
	var idxSnap, engSnap bytes.Buffer
	if err := eng.SaveIndex(&idxSnap); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(&engSnap); err != nil {
		t.Fatal(err)
	}

	eng2, err := NewEngine(other, EngineOptions{Method: GGSX})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.LoadIndex(bytes.NewReader(idxSnap.Bytes())); !errors.Is(err, index.ErrDatasetMismatch) {
		t.Errorf("LoadIndex on wrong dataset: got %v, want ErrDatasetMismatch", err)
	}
	if _, _, err := LoadEngineReport(bytes.NewReader(engSnap.Bytes()), other, EngineOptions{Method: GGSX}); !errors.Is(err, index.ErrDatasetMismatch) {
		t.Errorf("LoadEngineReport on wrong dataset: got %v, want ErrDatasetMismatch", err)
	}
}

// LoadIndex into a live engine re-syncs the cache-side indexes against the
// reset dictionary: cached knowledge must still be found afterwards.
func TestEngineLoadIndexRebuildsCacheIndexes(t *testing.T) {
	db := smallDB(t)
	opt := EngineOptions{Method: Grapes, CacheSize: 10, Window: 2}
	eng, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := ExtractQuery(db[0], 0, 5)
	first, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	eng.Query(context.Background(), ExtractQuery(db[1], 0, 4)) // flush (W=2)
	if eng.CacheLen() == 0 {
		t.Fatal("nothing cached")
	}
	var snap bytes.Buffer
	if err := eng.SaveIndex(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.LoadIndex(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.AnsweredByCache {
		t.Error("cached query not recognised after LoadIndex")
	}
	if !reflect.DeepEqual(res.IDs, first.IDs) {
		t.Errorf("answer after LoadIndex %v != original %v", res.IDs, first.IDs)
	}
}

// Methods without persistence support fail loudly, not silently.
func TestEngineSaveIndexUnsupportedMethod(t *testing.T) {
	db := smallDB(t)
	eng, err := NewEngine(db, EngineOptions{Method: CTIndex})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveIndex(&buf); err == nil {
		t.Error("SaveIndex on CT-Index did not error")
	}
	if err := eng.Save(&buf); err == nil {
		t.Error("Save on CT-Index did not error")
	}
}

// A cache-disabled engine still round-trips its index through Save/
// LoadEngineReport, and the restored engine honours the caller's cache options.
func TestEngineSnapshotWithoutCache(t *testing.T) {
	db := smallDB(t)
	eng, err := NewEngine(db, EngineOptions{Method: GGSX, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := eng.Save(&snap); err != nil {
		t.Fatal(err)
	}
	// Restore with the cache enabled: snapshot has no cache section, so the
	// engine starts with a fresh empty cache.
	loaded, _, err := LoadEngineReport(bytes.NewReader(snap.Bytes()), db, EngineOptions{Method: GGSX, CacheSize: 5, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := ExtractQuery(db[0], 0, 5)
	want, _ := eng.Query(context.Background(), q)
	got, err := loaded.Query(context.Background(), q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Errorf("restored engine answers %v, want %v", got.IDs, want.IDs)
	}
}

func TestLoadEngineRejectsGarbage(t *testing.T) {
	db := smallDB(t)
	if _, _, err := LoadEngineReport(bytes.NewReader([]byte("not a snapshot")), db, EngineOptions{Method: GGSX}); err == nil {
		t.Error("garbage snapshot loaded without error")
	}
}
