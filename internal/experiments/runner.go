package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/workload"
)

// queryMetrics captures one query's execution under either pipeline.
type queryMetrics struct {
	SizeClass  int // workload target size (Q4..Q20)
	Candidates int // candidate-set size presented for verification
	Answers    int
	FalsePos   int
	IsoTests   int   // dataset subgraph isomorphism tests performed
	FilterNs   int64 // filtering (index probe) time
	VerifyNs   int64 // verification time
	TotalNs    int64 // end-to-end query time
}

// runBaseline executes the plain filter-then-verify pipeline of m over the
// queries, collecting per-query metrics.
func runBaseline(m index.Method, qs []workload.Query) []queryMetrics {
	out := make([]queryMetrics, 0, len(qs))
	for _, q := range qs {
		var qm queryMetrics
		qm.SizeClass = q.Target
		t0 := time.Now()
		cs := m.Filter(q.G)
		tFilter := time.Now()
		// The loop iGQ verifies with, so the two sides differ in candidates only.
		ans, _ := index.VerifyCandidates(context.Background(), m, q.G, cs)
		qm.Answers = len(ans)
		tEnd := time.Now()
		qm.Candidates = len(cs)
		qm.IsoTests = len(cs)
		qm.FalsePos = len(cs) - qm.Answers
		qm.FilterNs = tFilter.Sub(t0).Nanoseconds()
		qm.VerifyNs = tEnd.Sub(tFilter).Nanoseconds()
		qm.TotalNs = tEnd.Sub(t0).Nanoseconds()
		out = append(out, qm)
	}
	return out
}

// runIGQ executes the iGQ pipeline over the queries, collecting metrics.
func runIGQ(ig *core.IGQ, qs []workload.Query) []queryMetrics {
	out := make([]queryMetrics, 0, len(qs))
	for _, q := range qs {
		t0 := time.Now()
		o := ig.Query(q.G)
		total := time.Since(t0)
		out = append(out, queryMetrics{
			SizeClass:  q.Target,
			Candidates: o.FinalCandidates,
			Answers:    len(o.Answer),
			FalsePos:   o.FinalCandidates - o.Verified,
			IsoTests:   o.DatasetIsoTests,
			FilterNs:   o.FilterDur.Nanoseconds(),
			VerifyNs:   o.VerifyDur.Nanoseconds(),
			TotalNs:    total.Nanoseconds(),
		})
	}
	return out
}

// pairResult holds the measured (post-warm-up) portions of a baseline run
// and an iGQ run over the same workload.
type pairResult struct {
	Base []queryMetrics
	IGQ  []queryMetrics
}

// runPair runs the workload through M alone and through iGQ(M), measuring
// only the queries after the warm-up prefix (the paper uses the first W
// queries to warm the query index).
func runPair(m index.Method, db []*graph.Graph, qs []workload.Query, warmup int, copt core.Options) pairResult {
	if warmup > len(qs) {
		warmup = len(qs)
	}
	ig := core.New(m, db, copt)
	for _, q := range qs[:warmup] {
		ig.Query(q.G)
	}
	igqMetrics := runIGQ(ig, qs[warmup:])
	baseMetrics := runBaseline(m, qs[warmup:])
	return pairResult{Base: baseMetrics, IGQ: igqMetrics}
}

// speedup metrics over a pairResult, following the paper's definition:
// ratio of the average performance of M over the average performance of
// iGQ M.

func avgOf(ms []queryMetrics, f func(queryMetrics) float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	var s float64
	for _, m := range ms {
		s += f(m)
	}
	return s / float64(len(ms))
}

// isoTestSpeedup is the Figs 7–11 metric.
func (p pairResult) isoTestSpeedup() float64 {
	return stats.Ratio(
		avgOf(p.Base, func(m queryMetrics) float64 { return float64(m.IsoTests) }),
		avgOf(p.IGQ, func(m queryMetrics) float64 { return float64(m.IsoTests) }),
	)
}

// timeSpeedup is the Figs 12–17 metric.
func (p pairResult) timeSpeedup() float64 {
	return stats.Ratio(
		avgOf(p.Base, func(m queryMetrics) float64 { return float64(m.TotalNs) }),
		avgOf(p.IGQ, func(m queryMetrics) float64 { return float64(m.TotalNs) }),
	)
}

// bySize partitions a pairResult by query size class.
func (p pairResult) bySize() map[int]pairResult {
	out := map[int]pairResult{}
	for _, m := range p.Base {
		r := out[m.SizeClass]
		r.Base = append(r.Base, m)
		out[m.SizeClass] = r
	}
	for _, m := range p.IGQ {
		r := out[m.SizeClass]
		r.IGQ = append(r.IGQ, m)
		out[m.SizeClass] = r
	}
	return out
}
