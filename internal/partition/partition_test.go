package partition

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	igq "repro"
	"repro/internal/dataset"
	"repro/internal/trie"
)

// testDB generates a small dataset and re-IDs the graphs onto a sparse,
// shuffled ID space so the tests exercise identity routing rather than
// the dense 0..n-1 IDs dataset generation happens to assign.
func testDB(t *testing.T, seed int64) []*igq.Graph {
	t.Helper()
	db := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.002, 1))
	if len(db) < 20 {
		t.Fatalf("dataset too small for partition tests: %d graphs", len(db))
	}
	rng := rand.New(rand.NewSource(seed))
	for i, g := range db {
		g.ID = i*7 + 3 + rng.Intn(3) // sparse, still unique (stride 7 > jitter 2)
	}
	return db
}

// oracleIDs answers q on a single-engine oracle and returns the matched
// graphs' global IDs sorted ascending — the partition Group's answer
// contract — so group answers compare byte-for-byte at any partition
// count.
func oracleIDs(t *testing.T, eng *igq.Engine, q *igq.Graph) []int32 {
	t.Helper()
	r, err := eng.Query(context.Background(), q, igq.WithoutCache())
	if err != nil {
		t.Fatalf("oracle query: %v", err)
	}
	if len(r.Matches) == 0 {
		return nil
	}
	ids := make([]int32, len(r.Matches))
	for i, m := range r.Matches {
		ids[i] = int32(m.ID)
	}
	slices.Sort(ids)
	return ids
}

// freshGraphs returns graphs from a different generator distribution with
// fresh IDs that collide with nothing in the test.
func freshGraphs(t *testing.T, n int, firstID int) []*igq.Graph {
	t.Helper()
	extra := igq.GenerateDataset(dataset.PDBS().Scaled(0.02, 0.5))
	if len(extra) < n {
		t.Fatalf("need %d extra graphs, got %d", n, len(extra))
	}
	extra = extra[:n]
	for i, g := range extra {
		g.ID = firstID + i
	}
	return extra
}

// removableID picks a ref graph whose owning partition holds at least two
// graphs, so the removal cannot trip the would-empty-partition guard.
func removableID(rng *rand.Rand, ref []*igq.Graph, parts int) int {
	counts := make(map[int]int)
	for _, g := range ref {
		counts[PartitionOf(g.ID, parts)]++
	}
	for {
		g := ref[rng.Intn(len(ref))]
		if counts[PartitionOf(g.ID, parts)] >= 2 {
			return g.ID
		}
	}
}

// TestPartitionOfStable pins the routing function: in range, deterministic,
// and identical across repeated calls (snapshots rely on a stable resplit).
func TestPartitionOfStable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		for id := -5; id < 200; id += 13 {
			p := PartitionOf(id, n)
			if p < 0 || p >= n {
				t.Fatalf("PartitionOf(%d, %d) = %d out of range", id, n, p)
			}
			if q := PartitionOf(id, n); q != p {
				t.Fatalf("PartitionOf(%d, %d) unstable: %d then %d", id, n, p, q)
			}
		}
	}
	if PartitionOf(42, 1) != 0 || PartitionOf(42, 0) != 0 {
		t.Fatal("n<=1 must route to partition 0")
	}
}

// TestGroupDifferential is the scatter-gather identity suite: across
// partition counts and both query modes, merged group answers must be
// byte-identical to a single-engine oracle over the same (mutating)
// dataset, through a mid-sequence save of every partition and a restore
// from the per-partition snapshots.
func TestGroupDifferential(t *testing.T) {
	base := testDB(t, 11)
	opt := Options{
		Engine: igq.EngineOptions{CacheSize: 24, Window: 3},
		Super:  true,
	}
	for _, parts := range []int{1, 2, 3, 4} {
		parts := parts
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(100 + parts)))
			popt := opt
			popt.Partitions = parts
			db := append([]*igq.Graph(nil), base...)
			g, err := New(db, popt)
			if err != nil {
				t.Fatal(err)
			}
			if g.Partitions() != parts {
				t.Fatalf("Partitions() = %d, want %d", g.Partitions(), parts)
			}
			ref := append([]*igq.Graph(nil), db...)
			ctx := context.Background()
			extra := freshGraphs(t, 12, 1_000_000)
			next := 0

			probes := func() []*igq.Graph {
				ps := make([]*igq.Graph, 0, 4)
				for i := 0; i < 2; i++ { // small patterns: subgraph-query shaped
					src := ref[rng.Intn(len(ref))]
					ps = append(ps, igq.ExtractQuery(src, rng.Intn(max(1, src.NumVertices())), 2+rng.Intn(3)))
				}
				for i := 0; i < 2; i++ { // larger patterns: supergraph-query shaped
					src := ref[rng.Intn(len(ref))]
					ps = append(ps, igq.ExtractQuery(src, rng.Intn(max(1, src.NumVertices())), 5+rng.Intn(3)))
				}
				return ps
			}

			check := func(step int) {
				// Fresh single-engine oracles over the reference dataset.
				oracleSub, err := igq.NewEngine(append([]*igq.Graph(nil), ref...), igq.EngineOptions{CacheSize: 24, Window: 3})
				if err != nil {
					t.Fatal(err)
				}
				oracleSuper, err := igq.NewEngine(append([]*igq.Graph(nil), ref...), igq.EngineOptions{Supergraph: true, CacheSize: 24, Window: 3})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := g.NumGraphs(), len(ref); got != want {
					t.Fatalf("step %d: NumGraphs %d != %d", step, got, want)
				}
				for qi, q := range probes() {
					for _, mode := range []Mode{Sub, Super} {
						oracle := oracleSub
						if mode == Super {
							oracle = oracleSuper
						}
						want := oracleIDs(t, oracle, q)
						got, err := g.QueryMode(ctx, mode, q, igq.WithoutCache())
						if err != nil {
							t.Fatalf("step %d probe %d %s: %v", step, qi, mode, err)
						}
						if !reflect.DeepEqual(got.IDs, want) {
							t.Fatalf("step %d probe %d %s: merged IDs %v != oracle %v", step, qi, mode, got.IDs, want)
						}
						if len(got.IDs) != len(got.Matches) {
							t.Fatalf("step %d probe %d %s: %d IDs but %d Matches", step, qi, mode, len(got.IDs), len(got.Matches))
						}
						for i, m := range got.Matches {
							if int32(m.ID) != got.IDs[i] {
								t.Fatalf("step %d probe %d %s: Matches[%d].ID=%d but IDs[%d]=%d", step, qi, mode, i, m.ID, i, got.IDs[i])
							}
						}
						// The cached path must agree with the truth too.
						cached, err := g.QueryMode(ctx, mode, q)
						if err != nil {
							t.Fatalf("step %d probe %d %s (cached): %v", step, qi, mode, err)
						}
						if !reflect.DeepEqual(cached.IDs, want) {
							t.Fatalf("step %d probe %d %s: cached IDs %v != oracle %v", step, qi, mode, cached.IDs, want)
						}
					}
				}
				if parts == 1 {
					// One partition is exactly one engine: sizes must match the
					// oracle byte-for-byte (caches differ; compare the method).
					gm, _ := g.SizeBytes()
					om, _ := oracleSub.IndexSizeBytes()
					if gm != om {
						t.Fatalf("step %d: 1-partition method SizeBytes %d != oracle %d", step, gm, om)
					}
				}
			}

			check(0)
			for step := 1; step <= 6; step++ {
				if step%3 == 0 {
					id := removableID(rng, ref, parts)
					if err := g.RemoveGraphs(ctx, []int{id}); err != nil {
						t.Fatalf("step %d: RemoveGraphs(%d): %v", step, id, err)
					}
					for i, rg := range ref {
						if rg.ID == id {
							ref[i] = ref[len(ref)-1]
							ref = ref[:len(ref)-1]
							break
						}
					}
				} else {
					gs := extra[next : next+2]
					next += 2
					if err := g.AddGraphs(ctx, gs); err != nil {
						t.Fatalf("step %d: AddGraphs: %v", step, err)
					}
					ref = append(ref, gs...)
				}
				check(step)

				if step == 4 {
					// Save every partition mid-sequence and restore from the
					// per-partition snapshots; mutation history must survive.
					baseP := filepath.Join(t.TempDir(), "group.snap")
					if err := g.SaveAll(baseP); err != nil {
						t.Fatalf("step %d: SaveAll: %v", step, err)
					}
					if !HaveAllParts(baseP, parts) {
						t.Fatalf("step %d: HaveAllParts false after SaveAll", step)
					}
					restoreDB := g.Dataset()
					loaded, reports, err := LoadGroup(baseP, restoreDB, popt)
					if err != nil {
						t.Fatalf("step %d: LoadGroup: %v", step, err)
					}
					if len(reports) != parts {
						t.Fatalf("step %d: %d load reports, want %d", step, len(reports), parts)
					}
					g = loaded
					check(step)
				}
			}

			// Stats() must be exactly the sum of PartitionStats().
			per := g.PartitionStats()
			if len(per) != parts {
				t.Fatalf("PartitionStats: %d entries, want %d", len(per), parts)
			}
			for _, mode := range []Mode{Sub, Super} {
				agg, ok := g.Stats(mode)
				if !ok {
					t.Fatalf("Stats(%s) not hosted", mode)
				}
				var queries, cacheAns int64
				graphs := 0
				for _, st := range per {
					es := st.Sub
					if mode == Super {
						if st.Super == nil {
							t.Fatal("PartitionStats missing super stats")
						}
						es = *st.Super
					}
					queries += es.Queries
					cacheAns += es.AnsweredByCache
					graphs += st.Graphs
				}
				if agg.Queries != queries || agg.AnsweredByCache != cacheAns {
					t.Fatalf("Stats(%s) aggregate {q=%d cache=%d} != partition sum {q=%d cache=%d}",
						mode, agg.Queries, agg.AnsweredByCache, queries, cacheAns)
				}
				if agg.Panics != 0 {
					t.Fatalf("Stats(%s): %d panics", mode, agg.Panics)
				}
				if mode == Sub && graphs != len(ref) {
					t.Fatalf("partition graph counts sum to %d, want %d", graphs, len(ref))
				}
			}
		})
	}
}

// TestGroupRejections pins the validation surface: ambiguous identity,
// empty partitions, unknown removals and unhosted modes are all rejected
// without mutating the group.
func TestGroupRejections(t *testing.T) {
	db := testDB(t, 23)
	ctx := context.Background()

	dup := append([]*igq.Graph(nil), db...)
	clone := dup[0].Clone()
	clone.ID = dup[1].ID
	dup[0] = clone
	if _, err := New(dup, Options{Partitions: 2}); err == nil {
		t.Fatal("New accepted duplicate graph IDs")
	}

	if _, err := New(db[:2], Options{Partitions: 64}); err == nil {
		t.Fatal("New accepted a split with empty partitions")
	}

	if _, err := New(db, Options{Partitions: 2, Super: true, Engine: igq.EngineOptions{Method: igq.CTIndex}}); err == nil {
		t.Fatal("New accepted Super over an index without a supergraph read")
	}

	g, err := New(db, Options{Partitions: 2, Engine: igq.EngineOptions{CacheSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.QueryMode(ctx, Super, db[0]); err == nil {
		t.Fatal("QueryMode(Super) succeeded without supergraph engines")
	}
	if _, ok := g.Stats(Super); ok {
		t.Fatal("Stats(Super) reported hosted without supergraph engines")
	}
	if err := g.AddGraphs(ctx, []*igq.Graph{db[0]}); err == nil {
		t.Fatal("AddGraphs accepted an already-present ID")
	}
	before := g.NumGraphs()
	if err := g.RemoveGraphs(ctx, []int{999_999_999}); err == nil {
		t.Fatal("RemoveGraphs accepted an unknown ID")
	}
	if err := g.RemoveGraphs(ctx, []int{db[0].ID, db[0].ID}); err == nil {
		t.Fatal("RemoveGraphs accepted a duplicate ID in one batch")
	}
	if g.NumGraphs() != before {
		t.Fatal("rejected mutations changed the dataset")
	}

	// A removal that would empty its partition must be refused up front.
	// Craft a 2-way split where partition 1 owns exactly one graph.
	var loneID int
	found := false
	for id := 0; id < 1000 && !found; id++ {
		if PartitionOf(id, 2) == 1 {
			loneID, found = id, true
		}
	}
	if !found {
		t.Fatal("no ID routing to partition 1")
	}
	small := make([]*igq.Graph, 0, 5)
	nextID := 0
	for _, src := range db {
		if len(small) == 4 {
			break
		}
		for PartitionOf(nextID, 2) != 0 {
			nextID++
		}
		c := src.Clone()
		c.ID = nextID
		nextID++
		small = append(small, c)
	}
	lone := db[len(db)-1].Clone()
	lone.ID = loneID
	small = append(small, lone)
	sg, err := New(small, Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sg.RemoveGraphs(ctx, []int{loneID}); err == nil {
		t.Fatal("RemoveGraphs emptied a partition")
	}

	eng, err := igq.NewEngine(db, igq.EngineOptions{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Of(eng, true); err != nil {
		t.Fatalf("Of(super) over a path index: %v", err)
	}
	dupEng, err := igq.NewEngine(dup, igq.EngineOptions{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Of(dupEng, false); err == nil {
		t.Fatal("Of accepted an engine over duplicate graph IDs")
	}
}

// TestGroupConcurrentQueryMutate runs 8 query goroutines (both modes,
// plus a QueryStream consumer) concurrently with routed mutations, then
// pins the final state to a fresh oracle. Primarily a
// -race target: queries are lock-free over the atomic partition set while
// mutations swap engines underneath them.
func TestGroupConcurrentQueryMutate(t *testing.T) {
	db := testDB(t, 31)
	g, err := New(db, Options{
		Partitions: 2,
		Engine:     igq.EngineOptions{CacheSize: 16, Window: 2},
		Super:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	probes := make([]*igq.Graph, 8)
	for i := range probes {
		src := db[rng.Intn(len(db))]
		probes[i] = igq.ExtractQuery(src, rng.Intn(max(1, src.NumVertices())), 3+rng.Intn(6))
	}

	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 25; i++ {
				mode := Sub
				if (w+i)%2 == 1 {
					mode = Super
				}
				if _, err := g.QueryMode(ctx, mode, probes[(w+i)%len(probes)]); err != nil {
					done <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
			done <- nil
		}(w)
	}

	// Stream a batch through the scatter-gather path concurrently.
	streamDone := make(chan error, 1)
	go func() {
		in := make(chan *igq.Graph)
		out := g.QueryStream(ctx, Sub, in, 3)
		go func() {
			for i := 0; i < 20; i++ {
				in <- probes[i%len(probes)]
			}
			close(in)
		}()
		seen := 0
		for br := range out {
			if br.Err != nil {
				streamDone <- br.Err
				return
			}
			seen++
		}
		if seen != 20 {
			streamDone <- fmt.Errorf("stream emitted %d results, want 20", seen)
			return
		}
		streamDone <- nil
	}()

	ref := append([]*igq.Graph(nil), db...)
	extra := freshGraphs(t, 6, 2_000_000)
	next := 0
	mrng := rand.New(rand.NewSource(43))
	for step := 0; step < 6; step++ {
		if step%2 == 0 {
			gs := extra[next : next+2]
			next += 2
			if err := g.AddGraphs(ctx, gs); err != nil {
				t.Fatalf("step %d: AddGraphs: %v", step, err)
			}
			ref = append(ref, gs...)
		} else {
			id := removableID(mrng, ref, g.Partitions())
			if err := g.RemoveGraphs(ctx, []int{id}); err != nil {
				t.Fatalf("step %d: RemoveGraphs: %v", step, err)
			}
			for i, rg := range ref {
				if rg.ID == id {
					ref[i] = ref[len(ref)-1]
					ref = ref[:len(ref)-1]
					break
				}
			}
		}
	}

	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}

	oracle, err := igq.NewEngine(append([]*igq.Graph(nil), ref...), igq.EngineOptions{CacheSize: 16, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range probes {
		want := oracleIDs(t, oracle, q)
		got, err := g.QueryMode(ctx, Sub, q, igq.WithoutCache())
		if err != nil {
			t.Fatalf("final probe %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.IDs, want) {
			t.Fatalf("final probe %d: IDs %v != oracle %v", i, got.IDs, want)
		}
	}
	if st, ok := g.Stats(Sub); !ok || st.Panics != 0 {
		t.Fatalf("final stats: hosted=%v panics=%d", ok, st.Panics)
	}
}

// TestGroupQueryStreamCancellation cancels a group stream mid-flight: the
// result channel must close, no query offered after the cancellation may
// be answered, and every worker and the feeder must exit.
func TestGroupQueryStreamCancellation(t *testing.T) {
	db := testDB(t, 37)
	g, err := New(db, Options{Partitions: 2, Engine: igq.EngineOptions{CacheSize: 16, Window: 4}})
	if err != nil {
		t.Fatal(err)
	}
	probes := make([]*igq.Graph, 8)
	for i := range probes {
		probes[i] = igq.ExtractQuery(db[i], 0, 4)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan *igq.Graph)
	out := g.QueryStream(ctx, Sub, in, 3)
	// Three queries, each answered before the next is offered, so that
	// nothing is in flight when the stream is cancelled.
	for i := 0; i < 3; i++ {
		in <- probes[i]
		if br := <-out; br.Err != nil || br.Index != i {
			t.Fatalf("result %d: index %d, err %v", i, br.Index, br.Err)
		}
	}
	cancel()
	deadline := time.After(10 * time.Second)
	offered := 3
	for open := true; open; {
		select {
		case in <- probes[offered%len(probes)]:
			offered++ // the feeder may read one query after the cancellation; it must drop it
		case br, ok := <-out:
			if ok {
				t.Fatalf("result emitted after the cancellation: index %d, err %v", br.Index, br.Err)
			}
			open = false
		case <-deadline:
			t.Fatal("stream did not close after the cancellation")
		}
	}
	if offered > 4 {
		t.Errorf("the stream read %d queries after the cancellation, want at most 1", offered-3)
	}
	select {
	case in <- probes[0]:
		t.Error("a closed stream still reads its input")
	default:
	}
	for runtime.NumGoroutine() > baseline {
		select {
		case <-deadline:
			t.Fatalf("%d goroutines left after the stream closed, %d before it started", runtime.NumGoroutine(), baseline)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestBuildPanicReachesCaller poisons the partition builds of New: a panic
// in one partition's build must reach the caller as a
// *trie.WorkerPanic instead of killing the process.
func TestBuildPanicReachesCaller(t *testing.T) {
	db := testDB(t, 5)
	var poisoned atomic.Bool
	opt := Options{Partitions: 2, Engine: igq.EngineOptions{WrapMethod: func(m any) any {
		if poisoned.Load() {
			panic("poisoned build")
		}
		return m
	}}}
	wantWorkerPanic := func(name string, build func()) {
		t.Helper()
		defer func() {
			var wp *trie.WorkerPanic
			if p, _ := recover().(error); !errors.As(p, &wp) || wp.Value != "poisoned build" {
				t.Errorf("%s: recovered %v, want a *trie.WorkerPanic", name, p)
			}
		}()
		build()
	}
	poisoned.Store(true)
	wantWorkerPanic("New", func() { New(db, opt) })
}

// TestScatterPanicReachesCaller poisons the scatter body itself — a nil
// partition engine, which panics before Engine.Query's own containment —
// at one partition (the caller's goroutine) and at two (worker
// goroutines): QueryMode must return a *igq.PanicError, not crash.
func TestScatterPanicReachesCaller(t *testing.T) {
	db := testDB(t, 9)
	for _, n := range []int{1, 2} {
		g, err := New(db, Options{Partitions: n})
		if err != nil {
			t.Fatal(err)
		}
		poisoned := append([]*igq.Engine(nil), *g.parts.Load()...)
		poisoned[n-1] = nil
		g.parts.Store(&poisoned)
		_, err = g.QueryMode(context.Background(), Sub, db[0])
		var pe *igq.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%d partitions: poisoned scatter returned %v, want a *igq.PanicError", n, err)
		}
	}
}

// TestOnePartitionFilesAreEngineFiles: a one-partition group names its
// files by the base path itself, and SaveAll writes the same bytes as
// igq.SaveEngineFile of the same engine, so single-engine snapshots and
// group snapshots are one format.
func TestOnePartitionFilesAreEngineFiles(t *testing.T) {
	db := testDB(t, 13)
	g, err := New(db, Options{Engine: igq.EngineOptions{CacheSize: 8, Window: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range db[:6] {
		if _, err := g.QueryMode(context.Background(), Sub, q); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	base, single := filepath.Join(dir, "group.snap"), filepath.Join(dir, "engine.snap")
	if err := g.SaveAll(base); err != nil {
		t.Fatal(err)
	}
	if err := igq.SaveEngineFile(single, (*g.parts.Load())[0]); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(base)
	if err != nil {
		t.Fatalf("SaveAll did not write the base path: %v", err)
	}
	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("one-partition SaveAll wrote %d bytes, SaveEngineFile %d, and they differ", len(got), len(want))
	}
	if !HaveAllParts(base, 1) || HaveAllParts(base, 2) {
		t.Fatal("HaveAllParts does not name the base path for one partition only")
	}
	if _, _, err := LoadGroup(single, db, Options{}); err != nil {
		t.Fatalf("LoadGroup of an engine snapshot: %v", err)
	}
}

// TestLazyGroupStatsSumPartitions: a lazily restored group of two reports
// the sum of its partitions' StatsOf, residency, budgets, faults and
// evictions included.
func TestLazyGroupStatsSumPartitions(t *testing.T) {
	db := testDB(t, 17)
	opt := Options{Partitions: 2, Engine: igq.EngineOptions{CacheSize: 8, Window: 2, Shards: 4}}
	g, err := New(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "group.snap")
	if err := g.SaveAll(base); err != nil {
		t.Fatal(err)
	}
	const budget = 2048
	lg, _, err := LoadGroup(base, db, opt, igq.WithLazyLoad(budget))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range db {
		if _, err := lg.QueryMode(context.Background(), Sub, q); err != nil {
			t.Fatal(err)
		}
	}
	var sum igq.EngineStats
	for _, p := range *lg.parts.Load() {
		st := p.StatsOf(Sub)
		sum.Queries += st.Queries
		sum.DatasetIsoTests += st.DatasetIsoTests
		sum.TotalShards += st.TotalShards
		sum.ResidentBytes += st.ResidentBytes
		sum.LazyBudgetBytes += st.LazyBudgetBytes
		sum.ShardFaults += st.ShardFaults
		sum.ShardEvictions += st.ShardEvictions
		sum.LazyLoaded = sum.LazyLoaded || st.LazyLoaded
	}
	agg, _ := lg.Stats(Sub)
	if agg.Queries != sum.Queries || agg.DatasetIsoTests != sum.DatasetIsoTests ||
		agg.TotalShards != sum.TotalShards || agg.ResidentBytes != sum.ResidentBytes ||
		agg.LazyBudgetBytes != sum.LazyBudgetBytes || agg.ShardFaults != sum.ShardFaults ||
		agg.ShardEvictions != sum.ShardEvictions || agg.LazyLoaded != sum.LazyLoaded {
		t.Fatalf("Stats(Sub) = %+v, partition sum %+v", agg, sum)
	}
	if !agg.LazyLoaded || agg.LazyBudgetBytes != 2*budget || agg.ShardFaults == 0 || agg.ShardEvictions == 0 {
		t.Fatalf("lazy group stats do not show its laziness: %+v", agg)
	}
}
