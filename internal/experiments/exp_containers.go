package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/features"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/trie"
)

// Extension experiment (perf): cardinality-adaptive posting containers.
// Reproduces the container redesign's two wins from the CLI and gates them
// the way coldstart/incremental gate persistence: on the dense regime the
// adaptive snapshot must be ≥2× smaller and the intersection ≥3× faster
// than the flat forced-array baseline (interleaved medians on the same
// box), while the sparse regime is reported for parity tracking. With
// -bench-json the measured rows are also written as a JSON artifact so CI
// can archive the perf trajectory.
func init() {
	register(Experiment{
		ID:    "containers",
		Title: "Adaptive posting containers: snapshot shrink + intersection speedup vs flat arrays (perf, extension)",
		Run:   runContainers,
	})
}

const (
	denseSnapshotShrinkMin   = 2.0
	denseIntersectSpeedupMin = 3.0
)

type containersRow struct {
	Regime                string  `json:"regime"`
	Density               float64 `json:"density"`
	MembersPerFeature     int     `json:"members_per_feature"`
	SnapshotAdaptiveBytes int     `json:"snapshot_adaptive_bytes"`
	SnapshotArrayBytes    int     `json:"snapshot_array_bytes"`
	SnapshotShrink        float64 `json:"snapshot_shrink"`
	MemAdaptiveBytes      int     `json:"mem_adaptive_bytes"`
	MemArrayBytes         int     `json:"mem_array_bytes"`
	IntersectAdaptiveNs   float64 `json:"intersect_adaptive_ns"`
	IntersectArrayNs      float64 `json:"intersect_array_ns"`
	IntersectSpeedup      float64 `json:"intersect_speedup"`
}

type containersReport struct {
	Seed      int64           `json:"seed"`
	Scale     float64         `json:"scale"`
	NumGraphs int             `json:"num_graphs"`
	NumFeats  int             `json:"num_feats"`
	Rows      []containersRow `json:"rows"`
	Gates     struct {
		SnapshotShrinkMin   float64 `json:"dense_snapshot_shrink_min"`
		IntersectSpeedupMin float64 `json:"dense_intersect_speedup_min"`
		Pass                bool    `json:"pass"`
	} `json:"gates"`
}

func runContainers(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	const nFeats = 4
	nGraphs := cfg.scaled(1<<14, 1<<12)

	type regime struct {
		name string
		p    float64
	}
	regimes := []regime{{"sparse", 0.01}, {"moderate", 0.20}, {"dense", 0.90}}

	rep := containersReport{Seed: cfg.Seed, Scale: cfg.Scale, NumGraphs: nGraphs, NumFeats: nFeats}
	rep.Gates.SnapshotShrinkMin = denseSnapshotShrinkMin
	rep.Gates.IntersectSpeedupMin = denseIntersectSpeedupMin
	rep.Gates.Pass = true

	tb := stats.NewTable("regime", "density", "members", "snap.adaptive", "snap.flat",
		"shrink", "isect.adaptive", "isect.flat", "speedup")
	var gateErr error
	for _, reg := range regimes {
		// One membership table per regime, inserted identically under both
		// policies, so the measurement isolates the container
		// intersection itself.
		rng := rand.New(rand.NewSource(cfg.Seed*100 + int64(reg.p*1000)))
		members := make([][]int32, nFeats)
		for f := range members {
			for g := 0; g < nGraphs; g++ {
				if rng.Float64() < reg.p {
					members[f] = append(members[f], int32(g))
				}
			}
		}
		build := func(policy trie.ContainerPolicy) *trie.Trie {
			tr := trie.New()
			tr.SetContainerPolicy(policy)
			for f, ids := range members {
				key := fmt.Sprintf("c:%d", f)
				for _, g := range ids {
					tr.Insert(key, trie.Posting{Graph: g, Count: 1})
				}
			}
			return tr
		}
		adaptive := build(trie.AdaptiveContainers)
		flat := build(trie.ArrayOnlyContainers)

		var ab, fb bytes.Buffer
		if _, err := adaptive.WriteTo(&ab); err != nil {
			return err
		}
		if _, err := flat.WriteTo(&fb); err != nil {
			return err
		}

		qf := func(tr *trie.Trie) features.IDSet {
			var q features.IDSet
			for f := 0; f < nFeats; f++ {
				id, ok := tr.Dict().Lookup(fmt.Sprintf("c:%d", f))
				if !ok {
					q.Unknown++
					continue
				}
				q.Counts = append(q.Counts, features.IDCount{ID: id, Count: 1})
			}
			return q
		}
		qa, qm := qf(adaptive), qf(flat)
		runA := func() int {
			s := index.GetCountFilterScratch()
			n := len(index.FilterCountGE(adaptive, qa, s))
			index.PutCountFilterScratch(s)
			return n
		}
		runF := func() int {
			s := index.GetCountFilterScratch()
			n := len(index.FilterCountGE(flat, qm, s))
			index.PutCountFilterScratch(s)
			return n
		}
		if runA() != runF() {
			return fmt.Errorf("%s: adaptive and flat candidate counts diverge", reg.name)
		}
		nsA, nsF := interleavedMedians(runA, runF)

		avgMembers := 0
		for _, ids := range members {
			avgMembers += len(ids)
		}
		avgMembers /= nFeats
		row := containersRow{
			Regime: reg.name, Density: reg.p, MembersPerFeature: avgMembers,
			SnapshotAdaptiveBytes: ab.Len(), SnapshotArrayBytes: fb.Len(),
			SnapshotShrink:   float64(fb.Len()) / float64(ab.Len()),
			MemAdaptiveBytes: int(adaptive.SizeBytes()), MemArrayBytes: int(flat.SizeBytes()),
			IntersectAdaptiveNs: nsA, IntersectArrayNs: nsF,
			IntersectSpeedup: nsF / nsA,
		}
		rep.Rows = append(rep.Rows, row)
		tb.AddRowf(row.Regime, fmt.Sprintf("%.3f", row.Density), row.MembersPerFeature,
			fmt.Sprintf("%d B", row.SnapshotAdaptiveBytes), fmt.Sprintf("%d B", row.SnapshotArrayBytes),
			fmt.Sprintf("%.2fx", row.SnapshotShrink),
			time.Duration(nsA), time.Duration(nsF), fmt.Sprintf("%.2fx", row.IntersectSpeedup))

		if reg.name == "dense" {
			if row.SnapshotShrink < denseSnapshotShrinkMin {
				gateErr = fmt.Errorf("dense snapshot shrink %.2fx below the %.1fx gate",
					row.SnapshotShrink, denseSnapshotShrinkMin)
			} else if row.IntersectSpeedup < denseIntersectSpeedupMin {
				gateErr = fmt.Errorf("dense intersection speedup %.2fx below the %.1fx gate",
					row.IntersectSpeedup, denseIntersectSpeedupMin)
			}
		}
	}
	if gateErr != nil {
		rep.Gates.Pass = false
	}

	fmt.Fprintf(w, "Adaptive containers vs flat arrays over %d graphs × %d features (interleaved medians):\n%s",
		nGraphs, nFeats, tb)
	fmt.Fprintf(w, "\nGates (dense regime): snapshot shrink ≥ %.1fx, intersection speedup ≥ %.1fx.\n",
		denseSnapshotShrinkMin, denseIntersectSpeedupMin)
	fmt.Fprintf(w, "Expected shape: dense scatter persists as bitmap words and intersects by word-AND,\nso both snapshot bytes and intersection time drop by an order of magnitude; sparse\nlists stay flat arrays on both sides and must sit at parity.\n")

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

// interleavedMedians times a and b in alternating bursts on the same box
// and returns each side's median per-op nanoseconds — alternation spreads
// thermal and scheduler drift evenly across both sides.
func interleavedMedians(a, b func() int) (float64, float64) {
	reps := func(f func() int) int {
		t0 := time.Now()
		f()
		per := time.Since(t0)
		if per <= 0 {
			per = time.Nanosecond
		}
		r := int(2 * time.Millisecond / per)
		return max(1, min(r, 4096))
	}
	ra, rb := reps(a), reps(b)
	const trials = 9
	burst := func(f func() int, reps int) float64 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(reps)
	}
	var ta, tb []float64
	for t := 0; t < trials; t++ {
		ta = append(ta, burst(a, ra))
		tb = append(tb, burst(b, rb))
	}
	sort.Float64s(ta)
	sort.Float64s(tb)
	return ta[trials/2], tb[trials/2]
}
