package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/index/grapes"
	"repro/internal/stats"
)

// Extension experiment (beyond the paper's figures): parallel index builds
// over the sharded postings store. For each build-worker count the two path
// methods rebuild the same dataset index; the table reports wall-clock and
// speedup versus the sequential build, and checks that every width produces
// a byte-for-byte identical index (the deterministic per-shard merge
// guarantee — same SizeBytes is a strong proxy, since it folds the page
// table and every posting container).
func init() {
	register(Experiment{
		ID:    "buildscale",
		Title: "Index build wall-clock vs build workers (sharded store, extension)",
		Run: func(cfg Config, w io.Writer) error {
			cfg = cfg.withDefaults()
			// PDBS character (few, larger graphs) gives each worker
			// meaningful per-graph work; scale the count up a little so
			// there is enough to distribute.
			spec := scaledPDBS(cfg)
			spec.NumGraphs *= 2
			db := dataset.Generate(spec)

			maxW := cfg.BuildWorkers
			if maxW <= 0 {
				maxW = runtime.GOMAXPROCS(0)
			}
			var widths []int
			for k := 1; k <= maxW; k *= 2 {
				widths = append(widths, k)
			}
			if last := widths[len(widths)-1]; last != maxW {
				widths = append(widths, maxW)
			}

			build := func(kind string, workers int) (index.Method, time.Duration) {
				var m index.Method
				switch kind {
				case "GGSX":
					m = ggsx.New(ggsx.Options{MaxPathLen: 4, Shards: cfg.Shards, BuildWorkers: workers})
				default:
					m = grapes.New(grapes.Options{MaxPathLen: 4, Shards: cfg.Shards, BuildWorkers: workers})
				}
				t0 := time.Now()
				m.Build(db)
				return m, time.Since(t0)
			}

			tb := stats.NewTable("workers", "GGSX build", "speedup", "Grapes build", "speedup", "index")
			var ggsxBase, grapesBase time.Duration
			var ggsxSize, grapesSize int
			for _, k := range widths {
				mg, dg := build("GGSX", k)
				mp, dp := build("Grapes", k)
				if k == 1 {
					ggsxBase, grapesBase = dg, dp
					ggsxSize, grapesSize = mg.SizeBytes(), mp.SizeBytes()
				}
				identical := "identical"
				if mg.SizeBytes() != ggsxSize || mp.SizeBytes() != grapesSize {
					identical = "DIVERGED"
				}
				tb.AddRowf(k, dg, float64(ggsxBase)/float64(dg), dp, float64(grapesBase)/float64(dp), identical)
				if cfg.Verbose {
					fmt.Fprintf(w, "  %d workers: ggsx=%v grapes=%v\n", k, dg, dp)
				}
			}
			fmt.Fprintf(w, "Parallel index construction, %s ×2 (%d graphs), shards=%d:\n%s",
				spec.Name, len(db), cfg.Shards, tb)
			fmt.Fprintf(w, "\nExpected shape: build wall-clock decreases as workers grow (toward the core count,\nGOMAXPROCS=%d here); the index column must stay 'identical' at every width —\nthe parallel build is bit-identical to the sequential one by construction.\n", runtime.GOMAXPROCS(0))
			return nil
		},
	})
}
