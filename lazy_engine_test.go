package igq

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/persistio"
	"repro/internal/trie"
)

// lazyTestDB builds n random labeled graphs (deterministic from seed) big
// enough to spread postings across a 16-shard index.
func lazyTestDB(n int, seed int64) []*Graph {
	rng := rand.New(rand.NewSource(seed))
	db := make([]*Graph, n)
	for i := range db {
		nv := 4 + rng.Intn(6)
		g := NewGraph(nv)
		for v := 0; v < nv; v++ {
			g.AddVertex(Label(rng.Intn(5)))
		}
		for v := 1; v < nv; v++ {
			g.AddEdge(v, rng.Intn(v))
		}
		for e := 0; e < nv/2; e++ {
			g.AddEdge(rng.Intn(nv), rng.Intn(nv))
		}
		db[i] = g
	}
	return db
}

func lazyTestQueries(db []*Graph, n int, seed int64) []*Graph {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*Graph, n)
	for i := range qs {
		qs[i] = ExtractQuery(db[rng.Intn(len(db))], 0, 2+rng.Intn(3))
	}
	return qs
}

// TestLoadEngineFileLazyDifferential: WithLazyLoad must be observationally
// invisible — identical answers under a tiny residency budget — while the
// residency statistics actually move, and materialising then closing must
// cut the engine loose from the snapshot file entirely.
func TestLoadEngineFileLazyDifferential(t *testing.T) {
	db := lazyTestDB(60, 1)
	qs := lazyTestQueries(db, 25, 2)
	opt := EngineOptions{Method: GGSX, MaxPathLen: 3, Shards: 16, DisableCache: true}
	built, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := SaveEngineFile(path, built); err != nil {
		t.Fatal(err)
	}

	eager, _, err := LoadEngineFile(path, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	lazy, _, err := LoadEngineFile(path, db, opt, WithLazyLoad(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()

	st := lazy.Stats()
	if !st.LazyLoaded || st.ResidentShards != 0 || st.TotalShards != 16 || st.LazyBudgetBytes != 16<<10 {
		t.Fatalf("post-open stats %+v: want lazy, 16 total shards, none resident", st)
	}
	ctx := context.Background()
	for i, q := range qs {
		er, err := eager.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := lazy.Query(ctx, q.Clone())
		if err != nil {
			t.Fatalf("query %d on lazy engine: %v", i, err)
		}
		if !reflect.DeepEqual(er.IDs, lr.IDs) {
			t.Fatalf("query %d: lazy answers %v, eager %v", i, lr.IDs, er.IDs)
		}
	}
	st = lazy.Stats()
	if st.ShardFaults == 0 || st.ResidentShards == 0 {
		t.Errorf("queries answered without a posting decode or an open directory: %+v", st)
	}
	// No posting list of this dataset comes near the 16 KiB budget, so the
	// budget holds outright (a single larger list would be let through).
	if st.ResidentBytes > st.LazyBudgetBytes {
		t.Errorf("resident %d bytes over budget %d", st.ResidentBytes, st.LazyBudgetBytes)
	}

	// Materialise, release the mapping, then delete the snapshot out from
	// under the engine: it must keep serving from memory.
	if err := lazy.materialize(); err != nil {
		t.Fatal(err)
	}
	if st := lazy.Stats(); st.LazyLoaded {
		t.Errorf("still LazyLoaded after materialising: %+v", st)
	}
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		er, _ := eager.Query(ctx, q)
		lr, err := lazy.Query(ctx, q.Clone())
		if err != nil || !reflect.DeepEqual(er.IDs, lr.IDs) {
			t.Fatalf("query %d diverges after materialise+unlink: err=%v", i, err)
		}
	}
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestLazyEngineMutationMaterializes: AddGraphs on a lazily loaded engine
// must force the index resident first and produce the same post-mutation
// answers as the eager twin.
func TestLazyEngineMutationMaterializes(t *testing.T) {
	db := lazyTestDB(40, 7)
	extra := lazyTestDB(10, 8)
	opt := EngineOptions{Method: GGSX, MaxPathLen: 3, Shards: 8, DisableCache: true}
	built, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := SaveEngineFile(path, built); err != nil {
		t.Fatal(err)
	}
	eager, _, err := LoadEngineFile(path, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	lazy, _, err := LoadEngineFile(path, db, opt, WithLazyLoad(0))
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	ctx := context.Background()
	if err := eager.AddGraphs(ctx, extra); err != nil {
		t.Fatal(err)
	}
	if err := lazy.AddGraphs(ctx, extra); err != nil {
		t.Fatal(err)
	}
	if st := lazy.Stats(); st.LazyLoaded {
		t.Errorf("mutation left the engine lazy: %+v", st)
	}
	for i, q := range lazyTestQueries(append(append([]*Graph{}, db...), extra...), 20, 9) {
		er, err := eager.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := lazy.Query(ctx, q.Clone())
		if err != nil || !reflect.DeepEqual(er.IDs, lr.IDs) {
			t.Fatalf("post-mutation query %d diverges: err=%v", i, err)
		}
	}
}

// TestLazyEngineCorruptShardIsolation: with a corrupt segment body, the
// eager load refuses the file outright, while the lazy load binds and keeps
// every healthy shard serving — queries routed to the corrupt shard fail as
// contained *PanicError (wrapping trie.ErrCorrupt), and materialising, as
// a mutation does first, surfaces the damage as an error.
func TestLazyEngineCorruptShardIsolation(t *testing.T) {
	db := lazyTestDB(60, 21)
	qs := lazyTestQueries(db, 30, 22)
	opt := EngineOptions{Method: GGSX, MaxPathLen: 3, Shards: 16, DisableCache: true}
	built, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := SaveEngineFile(path, built); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// No cache section and no journal: the file ends with the last shard's
	// segment body plus the one-byte section terminator. Flipping the byte
	// before the terminator corrupts that shard (body or CRC — either is
	// caught at fault-in) without touching the eagerly-decoded metadata.
	raw[len(raw)-2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := LoadEngineFile(path, db, opt); err == nil {
		t.Fatal("eager load accepted a corrupt segment body")
	}
	lazy, _, err := LoadEngineFile(path, db, opt, WithLazyLoad(0))
	if err != nil {
		t.Fatalf("lazy load must defer body corruption to fault-in: %v", err)
	}
	defer lazy.Close()
	served, contained := 0, 0
	ctx := context.Background()
	for _, q := range qs {
		_, qerr := lazy.Query(ctx, q)
		switch {
		case qerr == nil:
			served++
		default:
			var pe *PanicError
			if !errors.As(qerr, &pe) {
				t.Fatalf("query against corrupt snapshot failed outside containment: %v", qerr)
			}
			contained++
		}
	}
	if served == 0 {
		t.Error("no query survived one corrupt shard: isolation failed")
	}
	if st := lazy.Stats(); int(st.Panics) != contained {
		t.Errorf("Stats.Panics = %d, contained failures = %d", st.Panics, contained)
	}
	if err := lazy.materialize(); !errors.Is(err, trie.ErrCorrupt) {
		t.Fatalf("materialize = %v, want trie.ErrCorrupt", err)
	}
}

// TestLazyEnginePostingReadFailure: an I/O error on a posting decode after
// the shard's directory is open — the device under the mapping failing
// mid-service — fails exactly the queries that needed those bytes, as
// contained *PanicError carrying the injected error; nothing is cached
// from the failure, so the same queries answer correctly once the fault is
// lifted.
func TestLazyEnginePostingReadFailure(t *testing.T) {
	db := lazyTestDB(60, 31)
	qs := lazyTestQueries(db, 20, 32)
	opt := EngineOptions{Method: GGSX, MaxPathLen: 3, Shards: 16, DisableCache: true}
	built, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := built.Save(&snap); err != nil {
		t.Fatal(err)
	}
	src := persistio.NewFaultMapped(persistio.NewMemMapped(snap.Bytes()))
	// A one-byte budget keeps at most one list resident, so every query
	// goes back to the mapping.
	lazy, _, err := loadEngineLazy(src, db, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	ctx := context.Background()
	want := make([][]int32, len(qs))
	for i, q := range qs { // also opens every directory these queries need
		r, err := lazy.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		br, _ := built.Query(ctx, q.Clone())
		if !reflect.DeepEqual(r.IDs, br.IDs) {
			t.Fatalf("query %d: lazy answers %v, built %v", i, r.IDs, br.IDs)
		}
		want[i] = r.IDs
	}
	dirs := lazy.Stats().ResidentShards

	injected := errors.New("injected EIO")
	src.FailReads(injected)
	contained := 0
	for i, q := range qs {
		_, qerr := lazy.Query(ctx, q.Clone())
		if qerr == nil {
			continue // answered from the one resident list, or probed nothing
		}
		var pe *PanicError
		if !errors.As(qerr, &pe) {
			t.Fatalf("query %d failed outside containment: %v", i, qerr)
		}
		if cause, ok := pe.Value.(error); !ok || !errors.Is(cause, injected) {
			t.Fatalf("query %d: contained %v, want the injected read error", i, pe.Value)
		}
		contained++
	}
	if contained == 0 {
		t.Fatal("no query touched the failing mapping; the test is vacuous")
	}
	if st := lazy.Stats(); int(st.Panics) != contained || st.ResidentShards != dirs {
		t.Errorf("Stats.Panics = %d (contained %d), open directories %d (were %d)", st.Panics, contained, st.ResidentShards, dirs)
	}

	src.FailReads(nil)
	for i, q := range qs {
		r, err := lazy.Query(ctx, q.Clone())
		if err != nil || !reflect.DeepEqual(r.IDs, want[i]) {
			t.Fatalf("query %d after the fault was lifted: err=%v", i, err)
		}
	}
}
