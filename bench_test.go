package igq_test

// One benchmark per table and figure of the paper's evaluation, wrapping
// the experiment regenerators at a reduced scale (benchScale) so the whole
// suite completes in minutes. Run a single figure with e.g.
//
//	go test -bench BenchmarkFig7IsoSpeedupAIDS -benchmem
//
// and the full paper sweep with
//
//	go test -bench 'BenchmarkFig|BenchmarkTable' -benchmem
//
// For publication-shaped output (larger scale, readable tables) use
// cmd/igqbench instead; these benches exist to regenerate every experiment
// under `go test -bench` as required by the reproduction contract.

import (
	"context"
	"io"
	"testing"

	igq "repro"
	"repro/internal/experiments"
)

const benchScale = 0.2

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := experiments.Config{Scale: benchScale, Seed: 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1: dataset characteristics.
func BenchmarkTable1Datasets(b *testing.B) { runExperiment(b, "table1") }

// Fig 1: filtering vs verification time share (3 methods × AIDS, PDBS).
func BenchmarkFig1TimeBreakdown(b *testing.B) { runExperiment(b, "fig1") }

// Fig 2: candidates / answers / false positives, AIDS.
func BenchmarkFig2FilteringAIDS(b *testing.B) { runExperiment(b, "fig2") }

// Fig 3: candidates / answers / false positives, PDBS.
func BenchmarkFig3FilteringPDBS(b *testing.B) { runExperiment(b, "fig3") }

// Fig 7: iso-test speedup, AIDS, 4 workloads × 4 methods.
func BenchmarkFig7IsoSpeedupAIDS(b *testing.B) { runExperiment(b, "fig7") }

// Fig 8: iso-test speedup, PDBS.
func BenchmarkFig8IsoSpeedupPDBS(b *testing.B) { runExperiment(b, "fig8") }

// Fig 9: iso-test speedup vs Zipf α, PDBS/Grapes(6).
func BenchmarkFig9ZipfIsoTests(b *testing.B) { runExperiment(b, "fig9") }

// Fig 10: iso-test speedup per query group vs cache size, PPI/Grapes(6).
func BenchmarkFig10PPIGroups(b *testing.B) { runExperiment(b, "fig10") }

// Fig 11: iso-test speedup per query group, Synthetic/Grapes(6)/α=2.4.
func BenchmarkFig11SyntheticGroups(b *testing.B) { runExperiment(b, "fig11") }

// Fig 12: query-time speedup, AIDS.
func BenchmarkFig12TimeSpeedupAIDS(b *testing.B) { runExperiment(b, "fig12") }

// Fig 13: query-time speedup, PDBS.
func BenchmarkFig13TimeSpeedupPDBS(b *testing.B) { runExperiment(b, "fig13") }

// Fig 14: query-time speedup vs cache size, PDBS/Grapes(6).
func BenchmarkFig14CacheSize(b *testing.B) { runExperiment(b, "fig14") }

// Fig 15: query-time speedup vs Zipf α, PDBS/Grapes(6).
func BenchmarkFig15ZipfTime(b *testing.B) { runExperiment(b, "fig15") }

// Fig 16: query-time speedup per query group, PPI/Grapes(6).
func BenchmarkFig16PPIGroupsTime(b *testing.B) { runExperiment(b, "fig16") }

// Fig 17: query-time speedup per query group, Synthetic/Grapes(6).
func BenchmarkFig17SyntheticGroupsTime(b *testing.B) { runExperiment(b, "fig17") }

// Fig 18: absolute index sizes, AIDS.
func BenchmarkFig18IndexSizes(b *testing.B) { runExperiment(b, "fig18") }

// Extensions beyond the paper's figures.
func BenchmarkSupergraphSpeedup(b *testing.B) { runExperiment(b, "supergraph-speedup") }
func BenchmarkServing(b *testing.B)           { runExperiment(b, "serving") }

// End-to-end micro benchmark of the public API on a hierarchical stream:
// the per-query cost a downstream user actually pays.
func BenchmarkEngineQueryStream(b *testing.B) {
	db := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.005, 1))
	eng, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.Grapes, CacheSize: 50, Window: 10})
	if err != nil {
		b.Fatal(err)
	}
	queries := igq.GenerateWorkload(db, igq.WorkloadSpec{
		NumQueries: 64, GraphDist: igq.Zipf, NodeDist: igq.Zipf, Alpha: 1.4, Seed: 21,
	})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(ctx, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// Aggregate throughput of one cache-enabled Engine under concurrent load:
// the concurrent-serving counterpart of BenchmarkEngineQueryStream. Run
// with -cpu 1,2,4,8 to observe scaling (the snapshot-isolated query path
// serializes only at window flushes).
func BenchmarkEngineQueryParallel(b *testing.B) {
	db := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.005, 1))
	eng, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.Grapes, CacheSize: 50, Window: 10})
	if err != nil {
		b.Fatal(err)
	}
	queries := igq.GenerateWorkload(db, igq.WorkloadSpec{
		NumQueries: 64, GraphDist: igq.Zipf, NodeDist: igq.Zipf, Alpha: 1.4, Seed: 21,
	})
	ctx := context.Background()
	// Warm the cache once so every parallel worker exercises the steady
	// state: snapshot probes, short-circuit hits and occasional flushes.
	for _, q := range queries {
		if _, err := eng.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := eng.Query(ctx, queries[i%len(queries)]); err != nil {
				b.Error(err) // Fatal is not allowed on RunParallel goroutines
				return
			}
			i++
		}
	})
}
