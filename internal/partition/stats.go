package partition

import igq "repro"

// Stat is one partition's observability snapshot, JSON-ready for the
// serving layer's /stats.
type Stat struct {
	Graphs int              `json:"graphs"`
	Sub    igq.EngineStats  `json:"sub"`
	Super  *igq.EngineStats `json:"super,omitempty"`
}

// PartitionStats samples every partition: dataset size plus the engine
// counters of each served mode, in partition order. Lock-free (atomic
// engine reads), so a stats scrape never blocks queries or mutations.
func (g *Group) PartitionStats() []Stat {
	parts := *g.parts.Load()
	out := make([]Stat, len(parts))
	for i, p := range parts {
		out[i] = Stat{Graphs: len(p.Dataset()), Sub: p.StatsOf(Sub)}
		if g.opt.Super {
			st := p.StatsOf(Super)
			out[i].Super = &st
		}
	}
	return out
}

// Stats aggregates the mode's engine counters across partitions: counter
// fields sum (queries, cache answers, iso tests, hits, panics, cache
// population, flushes, memo renewals, residency, budgets, faults,
// evictions), and LazyLoaded is set when any partition serves lazily. A
// one-partition group reports its engine's StatsOf exactly. Reports false
// when the mode is not served.
func (g *Group) Stats(mode Mode) (igq.EngineStats, bool) {
	if mode == Super && !g.opt.Super {
		return igq.EngineStats{}, false
	}
	var agg igq.EngineStats
	for _, p := range *g.parts.Load() {
		st := p.StatsOf(mode)
		agg.Queries += st.Queries
		agg.AnsweredByCache += st.AnsweredByCache
		agg.DatasetIsoTests += st.DatasetIsoTests
		agg.CacheIsoTests += st.CacheIsoTests
		agg.SubHits += st.SubHits
		agg.SuperHits += st.SuperHits
		agg.Panics += st.Panics
		agg.CachedQueries += st.CachedQueries
		agg.WindowPending += st.WindowPending
		agg.Flushes += st.Flushes
		agg.MemoRenewals += st.MemoRenewals
		agg.TotalShards += st.TotalShards
		agg.ResidentShards += st.ResidentShards
		agg.ResidentBytes += st.ResidentBytes
		agg.LazyLoaded = agg.LazyLoaded || st.LazyLoaded
		agg.LazyBudgetBytes += st.LazyBudgetBytes
		agg.ShardFaults += st.ShardFaults
		agg.ShardEvictions += st.ShardEvictions
	}
	return agg, true
}

// SizeBytes sums the partitions' footprints: the dataset indexes (method)
// and the iGQ caches of both modes, matching Engine.IndexSizeBytes.
func (g *Group) SizeBytes() (method, cache int) {
	for _, p := range *g.parts.Load() {
		m, c := p.IndexSizeBytes()
		method += m
		cache += c
	}
	return method, cache
}
