package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Extension: unified vs size-partitioned cache. Fig 10's discussion notes
// that iGQ keeps ONE cache shared by all query-size groups ("the various
// query groups compete for the same space"). The alternative — a dedicated
// cache slice per group — is the obvious design variant; this runner
// measures both under the same total budget.
func init() {
	register(Experiment{
		ID:    "ablation-partition",
		Title: "Extension: unified vs per-size-partitioned query cache (PPI/Grapes(6))",
		Run: func(cfg Config, w io.Writer) error {
			cfg = cfg.withDefaults()
			spec := scaledPPI(cfg)
			db := dataset.Generate(spec)
			m := newGrapes6()
			m.Build(db)
			n := denseWorkloadLen(cfg)
			totalC, cacheW := denseCache(cfg)
			totalC *= 2
			qs := workload.Generate(db, workload.Spec{
				NumQueries: n, GraphDist: workload.Zipf, NodeDist: workload.Zipf,
				Alpha: 1.4, Seed: cfg.Seed + 12000,
			})
			warm := cacheW

			// unified: one iGQ with budget totalC
			unified := runPair(m, db, qs, warm, core.Options{CacheSize: totalC, Window: cacheW})

			// partitioned: one iGQ per size class, each with totalC/5
			sizes := workload.DefaultSizes
			part := map[int]*core.IGQ{}
			for _, s := range sizes {
				part[s] = core.New(m, db, core.Options{
					CacheSize: max(totalC/len(sizes), 2),
					Window:    max(cacheW/len(sizes), 1),
				})
			}
			for _, q := range qs[:warm] {
				part[q.Target].Query(q.G)
			}
			partMetrics := make([]queryMetrics, 0, len(qs)-warm)
			for _, q := range qs[warm:] {
				o := part[q.Target].Query(q.G)
				partMetrics = append(partMetrics, queryMetrics{
					SizeClass: q.Target,
					IsoTests:  o.DatasetIsoTests,
					TotalNs:   (o.FilterDur + o.CacheDur + o.VerifyDur).Nanoseconds(),
				})
			}
			partitioned := pairResult{Base: unified.Base, IGQ: partMetrics}

			tb := stats.NewTable("variant", "isotest.speedup")
			tb.AddRowf("unified cache (paper)", unified.isoTestSpeedup())
			tb.AddRowf("per-size partition", partitioned.isoTestSpeedup())
			fmt.Fprintf(w, "total budget C=%d over %d queries:\n%s", totalC, n, tb)

			// per-group detail
			groups := stats.NewTable("group", "unified", "partitioned")
			uniBy, partBy := unified.bySize(), partitioned.bySize()
			var keys []int
			for k := range uniBy {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				groups.AddRowf(fmt.Sprintf("Q%d", k),
					uniBy[k].isoTestSpeedup(), partBy[k].isoTestSpeedup())
			}
			fmt.Fprintf(w, "\nper group:\n%s", groups)
			fmt.Fprintln(w, "\nExpectation: the unified cache wins overall — utility eviction")
			fmt.Fprintln(w, "allocates space to the groups that profit, while fixed partitions")
			fmt.Fprintln(w, "strand budget on groups with little reuse.")
			return nil
		},
	})
}
