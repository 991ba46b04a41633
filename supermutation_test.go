package igq

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// TestSupergraphEngineMutation pins the supergraph engine's O(delta)
// mutation path to a from-scratch supergraph engine on the final dataset:
// AddGraphs and RemoveGraphs must maintain the path index, its NF table and
// the §5.1 supergraph cache exactly as a rebuild would.
func TestSupergraphEngineMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := GenerateDataset(AIDSSpec().Scaled(0.002, 1))
	extra := GenerateDataset(dataset.PDBS().Scaled(0.02, 0.3))
	if len(extra) < 8 {
		t.Fatalf("need at least 8 extra graphs, got %d", len(extra))
	}
	opt := EngineOptions{Supergraph: true, CacheSize: 30, Window: 4}
	eng, err := NewEngine(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]*Graph(nil), base...)
	ctx := context.Background()

	// Supergraph probes: larger query graphs whose subgraphs we ask for.
	probe := func(db []*Graph) *Graph {
		g := db[rng.Intn(len(db))]
		q := ExtractQuery(g, rng.Intn(max(1, g.NumVertices())), 6+rng.Intn(6))
		return q
	}
	probes := make([]*Graph, 6)
	for i := range probes {
		probes[i] = probe(ref)
	}
	// Warm the cache so mutation has committed entries to patch.
	for _, q := range probes {
		if _, err := eng.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	next := 0
	for step := 0; step < 8; step++ {
		if step%3 == 2 && len(ref) > 6 {
			ps := []int{rng.Intn(len(ref) - 1)}
			if err := eng.RemoveGraphs(ctx, ps); err != nil {
				t.Fatalf("step %d: RemoveGraphs: %v", step, err)
			}
			last := len(ref) - 1
			ref[ps[0]] = ref[last]
			ref = ref[:last]
		} else {
			gs := []*Graph{extra[next%len(extra)], extra[(next+1)%len(extra)]}
			next += 2
			if err := eng.AddGraphs(ctx, gs); err != nil {
				t.Fatalf("step %d: AddGraphs: %v", step, err)
			}
			ref = append(ref, gs...)
		}

		fresh, err := NewEngine(append([]*Graph(nil), ref...), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(eng.Dataset(), fresh.Dataset()) {
			t.Fatalf("step %d: dataset generations diverge", step)
		}
		gotM, _ := eng.IndexSizeBytes()
		wantM, _ := fresh.IndexSizeBytes()
		if gotM != wantM {
			t.Fatalf("step %d: method SizeBytes %d != rebuilt %d", step, gotM, wantM)
		}
		qs := append(append([]*Graph(nil), probes...), probe(ref))
		for qi, q := range qs {
			got, err := eng.Query(ctx, q, WithoutCache())
			if err != nil {
				t.Fatalf("step %d probe %d: %v", step, qi, err)
			}
			want, err := fresh.Query(ctx, q, WithoutCache())
			if err != nil {
				t.Fatalf("step %d probe %d (fresh): %v", step, qi, err)
			}
			if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("step %d probe %d: no-cache result diverges\ngot  IDs=%v stats=%+v\nwant IDs=%v stats=%+v",
					step, qi, got.IDs, got.Stats, want.IDs, want.Stats)
			}
			cached, err := eng.Query(ctx, q)
			if err != nil {
				t.Fatalf("step %d probe %d (cached): %v", step, qi, err)
			}
			if !reflect.DeepEqual(cached.IDs, want.IDs) {
				t.Fatalf("step %d probe %d: cached answer %v != true answer %v", step, qi, cached.IDs, want.IDs)
			}
		}
	}
	if st := eng.Stats(); st.Panics != 0 {
		t.Fatalf("unexpected panics: %d", st.Panics)
	}
}
