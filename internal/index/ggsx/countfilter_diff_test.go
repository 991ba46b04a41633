package ggsx

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/features"
	"repro/internal/index"
)

// Differential test pinning the legacy string-keyed count filter
// (FilterByCounts) against the ID-keyed hot path (filterFresh) on
// randomized datasets: both must produce the same candidates for the same
// query multiset, across shard layouts.
func TestFilterByCountsMatchesFilterFresh(t *testing.T) {
	const maxLen = 3
	for seed := int64(0); seed < 6; seed++ {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				db := randomDB(20+rng.Intn(20), seed+100)
				x := New(Options{MaxPathLen: maxLen, Shards: shards})
				x.Build(db)

				for qi, q := range randomQueries(db, 20, seed+200) {
					// Legacy path: string-keyed occurrence map.
					want := features.Paths(q, features.PathOptions{MaxLen: maxLen})
					legacy := FilterByCounts(x.tr, want.Counts, len(db))

					// Hot path: interned IDSet through the pooled scratch.
					s := index.GetCountFilterScratch()
					qf := features.PathsID(q, features.PathOptions{MaxLen: maxLen}, x.dict, s.Feat, false)
					fresh := x.filterFresh(qf, s)
					index.PutCountFilterScratch(s)

					if len(legacy) != len(fresh) {
						t.Fatalf("query %d: legacy %v != fresh %v", qi, legacy, fresh)
					}
					for i := range legacy {
						if legacy[i] != fresh[i] {
							t.Fatalf("query %d: legacy %v != fresh %v", qi, legacy, fresh)
						}
					}
				}
			})
		}
	}
}
