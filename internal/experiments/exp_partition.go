package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	igq "repro"
	"repro/internal/partition"
	"repro/internal/stats"
)

// Extension experiment (serving): partitioned scatter-gather. Two claims
// about the partition layer are gated:
//
//   - Merged-answer identity: a partition.Group over N hash-routed
//     partitions must answer every query of a mixed workload with exactly
//     the global-ID set a single engine over the undivided dataset
//     produces — for every N, both query modes, with and without the iGQ
//     cache. Partitioning is a layout decision, never a semantics one.
//   - O(delta) supergraph mutation: the path index the containment
//     method reads mutates in place, so maintaining a supergraph engine
//     across a mutation stream must beat the old rebuild-per-mutation path
//     by ≥ 5× while landing on answer-identical state.
func init() {
	register(Experiment{
		ID:    "partition",
		Title: "Partitioned scatter-gather: merged-answer identity + O(delta) supergraph mutation (extension)",
		Run:   runPartition,
	})
}

const partMutSpeedupMin = 5.0 // incremental super maintenance vs rebuild-per-mutation

type partitionReport struct {
	Seed           int64   `json:"seed"`
	Scale          float64 `json:"scale"`
	NumGraphs      int     `json:"num_graphs"`
	Queries        int     `json:"queries"`
	PartitionGrid  []int   `json:"partition_grid"`
	IdentityChecks int     `json:"identity_checks"`
	MutDataset     int     `json:"mut_dataset_graphs"`
	Mutations      int     `json:"mutations"`
	IncrementalNs  float64 `json:"incremental_ns"`
	RebuildNs      float64 `json:"rebuild_ns"`
	MutSpeedup     float64 `json:"mut_speedup"`
	Gates          struct {
		MutSpeedupMin float64 `json:"mut_speedup_min"`
		Pass          bool    `json:"pass"`
	} `json:"gates"`
}

// globalIDs maps a result to the answering graphs' global IDs, sorted —
// the identity a partitioned group and a single engine share (positions
// don't survive partitioning, IDs do).
func globalIDs(r igq.Result) []int32 {
	if len(r.Matches) == 0 {
		return nil
	}
	ids := make([]int32, len(r.Matches))
	for i, m := range r.Matches {
		ids[i] = int32(m.ID)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

func runPartition(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	ctx := context.Background()
	db := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.004*cfg.Scale, 1))
	queries := igq.GenerateWorkload(db, igq.WorkloadSpec{
		NumQueries: cfg.scaled(48, 24),
		GraphDist:  igq.Zipf, NodeDist: igq.Zipf,
		Alpha: 1.4, Seed: cfg.Seed + 17000,
	})
	opt := igq.EngineOptions{Method: igq.Grapes, CacheSize: 60, Window: 15}

	// Cache-free single-engine oracles over the undivided dataset.
	subOracle, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.Grapes, DisableCache: true})
	if err != nil {
		return err
	}
	superOracle, err := igq.NewEngine(db, igq.EngineOptions{Supergraph: true, DisableCache: true})
	if err != nil {
		return err
	}
	type modeLeg struct {
		mode   partition.Mode
		oracle *igq.Engine
	}
	legs := []modeLeg{{partition.Sub, subOracle}, {partition.Super, superOracle}}
	want := make([][][]int32, len(legs))
	for li, leg := range legs {
		want[li] = make([][]int32, len(queries))
		for qi, q := range queries {
			r, err := leg.oracle.Query(ctx, q)
			if err != nil {
				return err
			}
			want[li][qi] = globalIDs(r)
		}
	}

	grid := []int{1, 2, 4, 8}
	checks := 0
	tb := stats.NewTable("partitions", "graphs/part (min-max)", "identity", "avg.query.ms")
	for _, n := range grid {
		// Hash routing with a small dataset can leave a partition empty, which
		// the group rejects by design; report instead of silently skipping.
		counts := make([]int, n)
		for _, g := range db {
			counts[partition.PartitionOf(g.ID, n)]++
		}
		minC, maxC := counts[0], counts[0]
		for _, c := range counts[1:] {
			minC, maxC = min(minC, c), max(maxC, c)
		}
		if minC == 0 {
			fmt.Fprintf(w, "partitions=%d skipped: hash routing left a partition empty (%d graphs)\n", n, len(db))
			continue
		}
		grp, err := partition.New(db, partition.Options{Partitions: n, Engine: opt, Super: true})
		if err != nil {
			return err
		}
		var elapsed time.Duration
		for li, leg := range legs {
			for qi, q := range queries {
				// Cache-free pass: pure scatter-gather identity.
				r, err := grp.QueryMode(ctx, leg.mode, q, igq.WithoutCache())
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(r.IDs, want[li][qi]) {
					return fmt.Errorf("partitions=%d mode=%v query %d: merged IDs %v, oracle %v",
						n, leg.mode, qi, r.IDs, want[li][qi])
				}
				// Cached pass: per-partition iGQ caches must not bend answers.
				t0 := time.Now()
				r, err = grp.QueryMode(ctx, leg.mode, q)
				elapsed += time.Since(t0)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(r.IDs, want[li][qi]) {
					return fmt.Errorf("partitions=%d mode=%v query %d (cached): merged IDs %v, oracle %v",
						n, leg.mode, qi, r.IDs, want[li][qi])
				}
				checks += 2
			}
		}
		tb.AddRowf(fmt.Sprintf("%d", n), fmt.Sprintf("%d-%d", minC, maxC), "ok",
			float64(elapsed.Milliseconds())/float64(2*len(queries)))
	}
	fmt.Fprintf(w, "Merged-answer identity vs a single engine (%d graphs, %d queries x 2 modes x cached/uncached):\n%s",
		len(db), len(queries), tb)

	// Mutation-latency leg: one supergraph engine maintained incrementally
	// across an add/remove stream vs rebuilding from scratch after every
	// mutation (what serving had to do before the containment index became
	// mutable). Both legs must land on the same answers.
	// The mutation stream draws from the same size distribution as the
	// dataset: a mutation's unavoidable cost is enumerating the delta
	// graphs' own features, so the incremental-vs-rebuild gap measures the
	// per-mutation O(dataset) overhead, not a few oversized delta graphs.
	mutDB := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.01*cfg.Scale, 1))
	extra := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.002*cfg.Scale, 0.5))
	for i, g := range extra {
		g.ID = 1_000_000 + i
	}
	superOpt := igq.EngineOptions{Supergraph: true, CacheSize: 60, Window: 15}
	inc, err := igq.NewEngine(mutDB, superOpt)
	if err != nil {
		return err
	}
	mirror := append([]*igq.Graph(nil), mutDB...)
	var rebuilt *igq.Engine
	steps := min(len(extra), cfg.scaled(8, 6))
	var incNs, rebNs time.Duration
	for s := 0; s < steps; s++ {
		add := extra[s : s+1]
		rm := -1
		if s%3 == 2 {
			rm = (s * 7) % len(mirror)
		}
		t0 := time.Now()
		if err := inc.AddGraphs(ctx, add); err != nil {
			return fmt.Errorf("incremental super add %d: %w", s, err)
		}
		if rm >= 0 {
			if err := inc.RemoveGraphs(ctx, []int{rm}); err != nil {
				return fmt.Errorf("incremental super remove %d: %w", s, err)
			}
		}
		incNs += time.Since(t0)

		// Rebuild leg: apply the same dataset ops to a mirror, rebuild whole.
		t0 = time.Now()
		mirror = append(mirror, add...)
		if rm >= 0 {
			mirror[rm] = mirror[len(mirror)-1]
			mirror = mirror[:len(mirror)-1]
		}
		if rebuilt, err = igq.NewEngine(mirror, superOpt); err != nil {
			return err
		}
		rebNs += time.Since(t0)
	}
	for qi, q := range queries {
		ri, err := inc.Query(ctx, q, igq.WithoutCache())
		if err != nil {
			return err
		}
		rr, err := rebuilt.Query(ctx, q, igq.WithoutCache())
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(globalIDs(ri), globalIDs(rr)) {
			return fmt.Errorf("post-mutation query %d: incremental super %v, rebuilt %v", qi, globalIDs(ri), globalIDs(rr))
		}
	}
	speedup := float64(rebNs) / float64(incNs)

	rep := partitionReport{
		Seed: cfg.Seed, Scale: cfg.Scale, NumGraphs: len(db), Queries: len(queries),
		PartitionGrid: grid, IdentityChecks: checks,
		MutDataset: len(mutDB), Mutations: steps,
		IncrementalNs: float64(incNs.Nanoseconds()), RebuildNs: float64(rebNs.Nanoseconds()),
		MutSpeedup: speedup,
	}
	rep.Gates.MutSpeedupMin = partMutSpeedupMin
	rep.Gates.Pass = true
	var gateErr error
	if checks == 0 {
		gateErr = fmt.Errorf("identity leg ran zero checks (every partition count skipped)")
	} else if speedup < partMutSpeedupMin {
		gateErr = fmt.Errorf("incremental super maintenance only %.2fx faster than rebuild-per-mutation (%v vs %v over %d mutations), below the %.1fx gate",
			speedup, incNs, rebNs, steps, partMutSpeedupMin)
	}
	if gateErr != nil {
		rep.Gates.Pass = false
	}

	mt := stats.NewTable("leg", "value")
	mt.AddRowf("mutation stream", fmt.Sprintf("%d steps over %d graphs (adds + swap-removals)", steps, len(mutDB)))
	mt.AddRowf("incremental", incNs)
	mt.AddRowf("rebuild-per-mutation", rebNs)
	mt.AddRowf("speedup", fmt.Sprintf("%.1fx (gate ≥ %.1fx)", speedup, partMutSpeedupMin))
	fmt.Fprintf(w, "\nSupergraph maintenance across mutations (in-place vs rebuild):\n%s", mt)
	fmt.Fprintf(w, "\nExpected shape: merged scatter-gather answers are byte-identical to the single\nengine at every partition count (identity), and in-place containment mutation\nkeeps per-mutation cost O(delta) while the rebuild leg pays O(dataset) — the\ngap widens with dataset size.\n")

	if cfg.BenchJSONPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.BenchJSONPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", cfg.BenchJSONPath)
	}
	return gateErr
}
