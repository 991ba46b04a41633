package main

import (
	"math"
	"sort"

	igq "repro"
	"repro/internal/server"
)

// percentile returns the p-th percentile (0 < p < 1) of an ascending sample
// by the nearest-rank rule: the smallest value with at least p·n samples at
// or below it. Zero for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as supported by the sample (choosing-metrics §1).
const minBeyond = 10

// highestSupported returns the highest percentile of the ladder p50, p90,
// p95, p99, p99.9, p99.99 that still has at least minBeyond samples beyond
// it in a sample of n, or 0 when not even the median qualifies.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.50, 0.90, 0.95, 0.99, 0.999, 0.9999} {
		beyond := n - int(math.Ceil(p*float64(n)))
		if beyond >= minBeyond {
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is
// what the acceptance rule for this benchmark is written in. It needs at
// least two values; with fewer all three equal the single value (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// engineDelta is what the server's engines did between two /stats samples,
// summed over the subgraph and (when hosted) supergraph engines — on a
// partitioned server /stats already aggregates across partitions.
type engineDelta struct {
	Queries         int64
	AnsweredByCache int64
	IsoTests        int64 // dataset + cache isomorphism tests
	Flushes         int64
	ShardFaults     int64
	Rejected429     int64
}

func statsDelta(before, after server.StatsReply) engineDelta {
	sum := func(r server.StatsReply) engineDelta {
		var d engineDelta
		add := func(s igq.EngineStats) {
			d.Queries += s.Queries
			d.AnsweredByCache += s.AnsweredByCache
			d.IsoTests += s.DatasetIsoTests + s.CacheIsoTests
			d.Flushes += int64(s.Flushes)
			d.ShardFaults += s.ShardFaults
		}
		add(r.Sub)
		if r.Super != nil {
			add(*r.Super)
		}
		d.Rejected429 = r.Server.Rejected
		return d
	}
	a, b := sum(before), sum(after)
	return engineDelta{
		Queries:         b.Queries - a.Queries,
		AnsweredByCache: b.AnsweredByCache - a.AnsweredByCache,
		IsoTests:        b.IsoTests - a.IsoTests,
		Flushes:         b.Flushes - a.Flushes,
		ShardFaults:     b.ShardFaults - a.ShardFaults,
		Rejected429:     b.Rejected429 - a.Rejected429,
	}
}
