package partition

import (
	"context"
	"math/rand"
	"testing"

	igq "repro"
)

// TestMutationsKeepBaseMemos: routed mutations carry the identical-hit base
// memos of every partition's caches. Replaying hot queries after an append
// must renew none; after removing the appended graphs again — the tail of
// their partitions, so nothing moves — only an entry whose candidate set
// held a removed graph may renew, once.
func TestMutationsKeepBaseMemos(t *testing.T) {
	const parts = 2
	db := testDB(t, 17)
	g, err := New(db, Options{
		Partitions: parts,
		Engine:     igq.EngineOptions{CacheSize: 64, Window: 4},
		Super:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	hot := map[Mode][]*igq.Graph{}
	for _, mode := range []Mode{Sub, Super} {
		edges := 2 // subgraph-query shaped, or larger supergraph-query shaped
		if mode == Super {
			edges = 6
		}
		for len(hot[mode]) < 8 {
			src := db[rng.Intn(len(db))]
			hot[mode] = append(hot[mode], igq.ExtractQuery(src, rng.Intn(max(1, src.NumVertices())), edges+rng.Intn(3)))
		}
	}
	replay := func(when string) map[Mode]int64 {
		t.Helper()
		renewals := map[Mode]int64{}
		for mode, qs := range hot {
			for _, q := range qs {
				if _, err := g.QueryMode(ctx, mode, q); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			st, _ := g.Stats(mode)
			renewals[mode] = st.MemoRenewals
		}
		return renewals
	}
	replay("admission")
	before := replay("first replay")

	added := freshGraphs(t, 4, 1_000_000)
	if err := g.AddGraphs(ctx, added); err != nil {
		t.Fatal(err)
	}
	afterAdd := replay("replay after the append")
	for mode, n := range afterAdd {
		if n != before[mode] {
			t.Errorf("%v: %d memo renewals after an append, want %d (none)", mode, n, before[mode])
		}
	}

	// bound counts, per mode, the (hot query, partition) entries whose
	// candidate set holds one of the removed graphs: a cache-free query over
	// that partition's removed graphs alone filters to exactly those.
	bound := map[Mode]int64{}
	entries := int64(0)
	byPart := make([][]*igq.Graph, parts)
	for _, h := range added {
		p := PartitionOf(h.ID, parts)
		byPart[p] = append(byPart[p], h)
	}
	for _, gs := range byPart {
		if len(gs) == 0 {
			continue
		}
		eng, err := igq.NewEngine(gs, igq.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for mode, qs := range hot {
			for _, q := range qs {
				r, err := eng.Query(ctx, q, igq.InMode(mode), igq.WithoutCache())
				if err != nil {
					t.Fatal(err)
				}
				if r.Stats.BaseCandidates > 0 {
					bound[mode]++
				}
				entries++
			}
		}
	}
	ids := make([]int, len(added))
	for i, h := range added {
		ids[i] = h.ID
	}
	if err := g.RemoveGraphs(ctx, ids); err != nil {
		t.Fatal(err)
	}
	afterRemove := replay("replay after the removal")
	for mode, n := range afterRemove {
		if grown := n - afterAdd[mode]; grown > bound[mode] {
			t.Errorf("%v: %d memo renewals after the removal, but only %d entries held a removed graph", mode, grown, bound[mode])
		}
	}
	if bound[Sub]+bound[Super] == entries {
		t.Fatalf("every entry held a removed graph (%v of %d): the removal test keeps no memo", bound, entries)
	}
	t.Logf("renewals %v → %v → %v; removal bound %v of %d entries", before, afterAdd, afterRemove, bound, entries)
}
