package server

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	igq "repro"
	"repro/internal/iso"
	"repro/internal/partition"
)

// bruteIDs answers q over ref by brute-force isomorphism: the sorted graph
// IDs the wire must return.
func bruteIDs(ref []*igq.Graph, q *igq.Graph, mode string) []int32 {
	ids := []int32{}
	for _, g := range ref {
		if (mode == ModeSub && iso.Reference(q, g)) || (mode == ModeSuper && iso.Reference(g, q)) {
			ids = append(ids, int32(g.ID))
		}
	}
	slices.Sort(ids)
	return ids
}

// TestServingMatrix drives the one serving back-end in every shape igqserve
// starts it in: a group of one or two partitions, built eagerly or restored
// lazily, serving subgraph or supergraph queries. Each cell answers /query
// and /query/stream, takes an add and a remove, saves over /save and
// restores from the saved files; every answer is checked against
// brute-force isomorphism over the reference dataset.
func TestServingMatrix(t *testing.T) {
	db := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.002, 1))
	extra := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.0005, 9))[:2]
	for i, g := range extra {
		g.ID = 50_000 + i
	}
	// Extracted patterns, plus the smallest dataset graphs so that
	// supergraph answers are not all empty.
	queries := testQueries(db, 8, 29)
	bySize := slices.Clone(db)
	slices.SortFunc(bySize, func(a, b *igq.Graph) int { return a.NumVertices() - b.NumVertices() })
	for _, g := range bySize[:4] {
		queries = append(queries, g.Clone())
	}
	for _, parts := range []int{1, 2} {
		for _, lazy := range []bool{false, true} {
			for _, mode := range []string{ModeSub, ModeSuper} {
				t.Run(fmt.Sprintf("parts=%d/lazy=%v/%s", parts, lazy, mode), func(t *testing.T) {
					servingCell(t, db, extra, queries, parts, lazy, mode)
				})
			}
		}
	}
}

func servingCell(t *testing.T, db, extra, queries []*igq.Graph, parts int, lazy bool, mode string) {
	ctx := context.Background()
	dir := t.TempDir()
	popt := partition.Options{
		Partitions: parts,
		Engine:     igq.EngineOptions{CacheSize: 16, Window: 4, Shards: 4},
		Super:      true,
	}
	load := func(base string, ds []*igq.Graph) *partition.Group {
		t.Helper()
		var lopts []igq.EngineLoadOption
		if lazy {
			lopts = append(lopts, igq.WithLazyLoad(4096))
		}
		g, _, err := partition.LoadGroup(base, ds, popt, lopts...)
		if err != nil {
			t.Fatalf("LoadGroup: %v", err)
		}
		if st, _ := g.Stats(partition.Sub); st.LazyLoaded != lazy {
			t.Fatalf("restored group LazyLoaded=%v, want %v", st.LazyLoaded, lazy)
		}
		return g
	}
	ref := slices.Clone(db)
	grp, err := partition.New(ref, popt)
	if err != nil {
		t.Fatal(err)
	}
	if lazy {
		seed := filepath.Join(dir, "seed.snap")
		if err := grp.SaveAll(seed); err != nil {
			t.Fatal(err)
		}
		grp = load(seed, grp.Dataset())
	}
	snap := filepath.Join(dir, "serve.snap")
	_, _, client := newTestServer(t, Config{Group: grp, SnapshotPath: snap})

	check := func(stage string, client *Client) {
		t.Helper()
		want := make([][]int32, len(queries))
		for i, q := range queries {
			want[i] = bruteIDs(ref, q, mode)
			got, err := client.QueryGraph(ctx, q, mode)
			if err != nil {
				t.Fatalf("%s: query %d: %v", stage, i, err)
			}
			if !slices.Equal(got.IDs, want[i]) {
				t.Fatalf("%s: query %d: wire %v, brute force %v", stage, i, got.IDs, want[i])
			}
		}
		in := make(chan QueryRequest)
		go func() {
			defer close(in)
			for _, q := range queries {
				in <- QueryRequest{Graph: EncodeGraph(q)}
			}
		}()
		replies, errc := client.QueryStream(ctx, mode, 0, in)
		answered := 0
		for r := range replies {
			answered++
			if r.Error != "" || !slices.Equal(r.IDs, want[r.Index]) {
				t.Errorf("%s: stream query %d: wire %v (%s), brute force %v", stage, r.Index, r.IDs, r.Error, want[r.Index])
			}
		}
		if err := <-errc; err != nil || answered != len(queries) {
			t.Fatalf("%s: stream answered %d/%d: %v", stage, answered, len(queries), err)
		}
	}
	check("served", client)

	if _, err := client.AddGraphs(ctx, extra); err != nil {
		t.Fatalf("AddGraphs: %v", err)
	}
	ref = append(ref, extra...)
	removed := db[3].ID
	if _, err := client.RemoveGraphs(ctx, []int{removed}); err != nil {
		t.Fatalf("RemoveGraphs(%d): %v", removed, err)
	}
	ref = slices.DeleteFunc(ref, func(g *igq.Graph) bool { return g.ID == removed })
	check("mutated", client)

	if err := client.post(ctx, "/save", struct{}{}, nil); err != nil {
		t.Fatalf("save: %v", err)
	}
	if !partition.HaveAllParts(snap, parts) {
		t.Fatalf("save did not write the %d-partition files under %s", parts, snap)
	}
	_, _, restored := newTestServer(t, Config{Group: load(snap, grp.Dataset())})
	check("restored", restored)
}
