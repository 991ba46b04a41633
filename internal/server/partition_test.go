package server

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	igq "repro"
	"repro/internal/partition"
)

// sortedMatchIDs answers q on an oracle engine and returns the matched
// graphs' global IDs sorted ascending — the wire answer contract of a
// partitioned server.
func sortedMatchIDs(t *testing.T, oracle *igq.Engine, q *igq.Graph) []int32 {
	t.Helper()
	r, err := oracle.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, 0, len(r.Matches))
	for _, m := range r.Matches {
		ids = append(ids, int32(m.ID))
	}
	slices.Sort(ids)
	return ids
}

// TestSuperMutationIncremental: supergraph queries read the engine's one
// index, so a mutation maintains them in the same O(delta) step as
// subgraph queries — the supergraph cache keeps its (patched) entries and
// the answers equal a from-scratch engine's.
func TestSuperMutationIncremental(t *testing.T) {
	db := testDB(t)
	eng, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.Grapes, CacheSize: 30, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, client := newTestServer(t, Config{Engine: eng, Super: true})
	ctx := context.Background()

	// Warm the super cache so the mutation has cache state to maintain.
	warm := testQueries(db, 6, 51)
	for _, q := range warm {
		if _, err := client.QueryGraph(ctx, q, ModeSuper); err != nil {
			t.Fatal(err)
		}
	}

	extra := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.0005, 9))
	for i, g := range extra {
		g.ID = 50_000 + i
	}
	if _, err := client.AddGraphs(ctx, extra); err != nil {
		t.Fatalf("AddGraphs: %v", err)
	}
	if _, err := client.RemoveGraphs(ctx, []int{1, 4}); err != nil {
		t.Fatalf("RemoveGraphs: %v", err)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Super == nil || st.Super.CachedQueries == 0 {
		t.Fatalf("supergraph cache lost across the mutations: %+v", st.Super)
	}

	oracle, err := igq.NewEngine(eng.Dataset(), igq.EngineOptions{Supergraph: true, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range testQueries(eng.Dataset(), 10, 53) {
		got, err := client.QueryGraph(ctx, q, ModeSuper)
		if err != nil {
			t.Fatalf("super query %d: %v", i, err)
		}
		if want := sortedMatchIDs(t, oracle, q); !reflect.DeepEqual(got.IDs, nonNil(want)) {
			t.Fatalf("super query %d after incremental mutation: wire %v, oracle %v", i, got.IDs, want)
		}
	}
}

// TestPartitionedServer drives a partition.Group through the whole HTTP
// surface: scatter-gather queries in both modes against a single-engine
// oracle, streaming, routed mutations (removal by global ID), per-partition
// stats and metrics, and a per-partition snapshot save.
func TestPartitionedServer(t *testing.T) {
	db := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.002, 1))
	parts := 3
	for ; parts > 1; parts-- {
		counts := make([]int, parts)
		for _, g := range db {
			counts[partition.PartitionOf(g.ID, parts)]++
		}
		if !slices.Contains(counts, 0) {
			break
		}
	}
	grp, err := partition.New(db, partition.Options{
		Partitions: parts,
		Engine:     igq.EngineOptions{CacheSize: 16, Window: 4},
		Super:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "group.snap")
	s, hs, client := newTestServer(t, Config{Group: grp, SnapshotPath: snapPath})
	ctx := context.Background()

	oracleFor := func(mode string) *igq.Engine {
		opt := igq.EngineOptions{DisableCache: true}
		if mode == ModeSuper {
			opt.Supergraph = true
		}
		oracle, err := igq.NewEngine(grp.Dataset(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return oracle
	}
	checkAnswers := func(stage string, qs []*igq.Graph) {
		for _, mode := range []string{ModeSub, ModeSuper} {
			oracle := oracleFor(mode)
			for i, q := range qs {
				got, err := client.QueryGraph(ctx, q, mode)
				if err != nil {
					t.Fatalf("%s: %s query %d: %v", stage, mode, i, err)
				}
				want := sortedMatchIDs(t, oracle, q)
				if !reflect.DeepEqual(got.IDs, nonNil(want)) {
					t.Fatalf("%s: %s query %d: wire %v, oracle %v", stage, mode, i, got.IDs, want)
				}
			}
		}
	}
	checkAnswers("initial", testQueries(db, 12, 61))

	// Routed mutations over the wire: adds carry fresh IDs, removals are
	// global IDs (not positions).
	extra := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.0005, 9))
	for i, g := range extra {
		g.ID = 50_000 + i
	}
	reply, err := client.AddGraphs(ctx, extra)
	if err != nil {
		t.Fatalf("AddGraphs: %v", err)
	}
	if reply.DatasetSize != len(db)+len(extra) {
		t.Fatalf("dataset size %d after add, want %d", reply.DatasetSize, len(db)+len(extra))
	}
	rng := rand.New(rand.NewSource(63))
	counts := make([]int, parts)
	for _, g := range grp.Dataset() {
		counts[partition.PartitionOf(g.ID, parts)]++
	}
	var removeID int
	for {
		g := db[rng.Intn(len(db))]
		if counts[partition.PartitionOf(g.ID, parts)] >= 2 {
			removeID = g.ID
			break
		}
	}
	if _, err := client.RemoveGraphs(ctx, []int{removeID}); err != nil {
		t.Fatalf("RemoveGraphs(%d): %v", removeID, err)
	}
	if _, err := client.RemoveGraphs(ctx, []int{removeID}); err == nil {
		t.Fatal("removing an already-removed ID succeeded")
	}
	checkAnswers("mutated", testQueries(grp.Dataset(), 12, 67))

	// Streaming scatter-gather.
	in := make(chan QueryRequest)
	go func() {
		for _, q := range testQueries(grp.Dataset(), 8, 71) {
			in <- QueryRequest{Graph: EncodeGraph(q)}
		}
		close(in)
	}()
	replies, errc := client.QueryStream(ctx, ModeSub, 0, in)
	seen := 0
	for range replies {
		seen++
	}
	if err := <-errc; err != nil {
		t.Fatalf("stream: %v", err)
	}
	if seen != 8 {
		t.Fatalf("stream emitted %d replies, want 8", seen)
	}

	// Stats carry the partition breakdown, and the aggregate matches it.
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Partitions != parts || len(st.Partitions) != parts {
		t.Fatalf("stats partitions %d/%d, want %d", st.Server.Partitions, len(st.Partitions), parts)
	}
	var queries int64
	graphs := 0
	for _, ps := range st.Partitions {
		queries += ps.Sub.Queries
		graphs += ps.Graphs
		if ps.Super == nil {
			t.Fatal("partition stats missing super breakdown")
		}
	}
	if queries != st.Sub.Queries {
		t.Fatalf("aggregate queries %d != partition sum %d", st.Sub.Queries, queries)
	}
	if graphs != grp.NumGraphs() {
		t.Fatalf("partition graph counts sum to %d, want %d", graphs, grp.NumGraphs())
	}

	// Metrics expose the per-partition gauges.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"igq_partitions ", `igq_partition_graphs{part="0"}`, `igq_partition_queries_total{part="0",mode="super"}`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	// Save writes one snapshot per partition; the lineage restores into a
	// group that serves the same answers.
	if err := client.post(ctx, "/save", struct{}{}, nil); err != nil {
		t.Fatalf("save: %v", err)
	}
	if !partition.HaveAllParts(snapPath, parts) {
		t.Fatal("save did not write every partition file")
	}
	restored, _, err := partition.LoadGroup(snapPath, grp.Dataset(), partition.Options{
		Partitions: parts,
		Engine:     igq.EngineOptions{CacheSize: 16, Window: 4},
	})
	if err != nil {
		t.Fatalf("LoadGroup: %v", err)
	}
	if restored.NumGraphs() != grp.NumGraphs() {
		t.Fatalf("restored %d graphs, want %d", restored.NumGraphs(), grp.NumGraphs())
	}
	if s.cfg.Group != grp {
		t.Fatal("server group changed identity")
	}

	// Config validation: Group excludes Engine-mode options.
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted neither Engine nor Group")
	}
	if _, err := New(Config{Group: grp, Super: true}); err == nil {
		t.Fatal("New accepted Group+Super")
	}
	ct, err := igq.NewEngine(grp.Dataset(), igq.EngineOptions{Method: igq.CTIndex})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Engine: ct, Super: true}); err == nil {
		t.Fatal("New accepted Super over an index without a supergraph read")
	}
}
