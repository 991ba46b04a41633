package igq

import (
	"bytes"
	"context"
	"os"

	"reflect"
	"testing"

	"repro/internal/persistio"
)

// fuzzDB is a tiny fixed dataset for the snapshot-decoder fuzz targets.
func fuzzDB() []*Graph {
	mk := func(labels []Label, edges [][2]int) *Graph {
		g := NewGraph(len(labels))
		for _, l := range labels {
			g.AddVertex(l)
		}
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
		return g
	}
	return []*Graph{
		mk([]Label{0, 1, 2}, [][2]int{{0, 1}, {1, 2}}),
		mk([]Label{1, 1, 0, 2}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		mk([]Label{2, 0}, [][2]int{{0, 1}}),
		mk([]Label{0, 2, 1, 1}, [][2]int{{0, 1}, {0, 2}, {0, 3}}),
	}
}

// FuzzLoadEngine feeds arbitrary bytes — seeded with valid combined engine
// snapshots (with and without the cache section, GGSX and Grapes) plus
// truncations and bit flips — into the whole restore stack: engine
// envelope, index envelope, trie segments, journal sections, gob cache.
// Every outcome must be a clean error or a working engine; never a panic
// or a runaway allocation.
//
// It also extends PR 4's rollback guarantee to arbitrary corruption: after
// a failed Engine.LoadIndex on a *live* engine, the engine must answer
// exactly as before and the shared feature dictionary must be
// byte-identical.
func FuzzLoadEngine(f *testing.F) {
	db := fuzzDB()
	for _, opt := range []EngineOptions{
		{Method: GGSX, MaxPathLen: 3, CacheSize: 4, Window: 1},
		{Method: Grapes, MaxPathLen: 3, DisableCache: true},
	} {
		eng, err := NewEngine(db, opt)
		if err != nil {
			f.Fatal(err)
		}
		if !opt.DisableCache {
			// Cache one query so the snapshot carries a cache section.
			if _, err := eng.Query(context.Background(), ExtractQuery(db[1], 0, 2)); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:len(buf.Bytes())*2/3])
		flip := append([]byte(nil), buf.Bytes()...)
		flip[len(flip)/2] ^= 0x10
		f.Add(flip)

		// An index-only snapshot seed (the LoadIndex grammar).
		var ibuf bytes.Buffer
		if err := eng.SaveIndex(&ibuf); err != nil {
			f.Fatal(err)
		}
		f.Add(ibuf.Bytes())

		// Journaled snapshot seeds: a delta append on top of the base,
		// intact and torn at several depths — the tail-recovery grammar.
		mf := persistio.NewMemFile()
		if err := eng.SaveIndex(mf); err != nil {
			f.Fatal(err)
		}
		if err := eng.AddGraphs(context.Background(), fuzzDB()); err != nil {
			f.Fatal(err)
		}
		if err := eng.AppendIndexDelta(mf); err != nil {
			f.Fatal(err)
		}
		jb := append([]byte(nil), mf.Bytes()...)
		f.Add(jb)
		f.Add(jb[:len(jb)-1]) // complete section, missing terminator
		f.Add(jb[:len(jb)-5]) // torn mid-section
		f.Add(jb[:len(jb)-(len(jb)-ibuf.Len())/2])

		// A combined engine snapshot torn at the tail.
		f.Add(buf.Bytes()[:len(buf.Bytes())-2])
	}

	// Seeds with v3 container segments of all three kinds: a dataset dense
	// enough that shared features persist as run intervals (present in every
	// graph), bitmap words (present in every other graph) and sparse arrays
	// (the outlier graphs) inside the engine's index envelope — plus a
	// truncation and a bit flip of each container-bearing snapshot.
	denseDB := make([]*Graph, 0, 120)
	for i := 0; i < 120; i++ {
		g := NewGraph(3)
		g.AddVertex(0)
		g.AddVertex(1)
		if i%2 == 0 {
			g.AddVertex(2) // even graphs only: bitmap-shaped postings
		} else {
			g.AddVertex(1)
		}
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		denseDB = append(denseDB, g)
	}
	denseDB[7].AddVertex(3) // a label only a couple of graphs carry: array
	denseDB[90].AddVertex(3)
	denseEng, err := NewEngine(denseDB, EngineOptions{Method: GGSX, MaxPathLen: 3, DisableCache: true})
	if err != nil {
		f.Fatal(err)
	}
	var dense bytes.Buffer
	if err := denseEng.SaveIndex(&dense); err != nil {
		f.Fatal(err)
	}
	f.Add(dense.Bytes())
	f.Add(dense.Bytes()[:len(dense.Bytes())*3/4]) // torn mid-container
	dflip := append([]byte(nil), dense.Bytes()...)
	dflip[len(dflip)*2/3] ^= 0x04 // flip inside the segment area
	f.Add(dflip)

	// Seed: a Grapes index snapshot from the writer that stored per-posting
	// vertex locations — located segments plus a journal whose ops carry
	// them (see internal/index/grapes/located_test.go).
	located, err := os.ReadFile("internal/index/grapes/testdata/located-v3.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(located)

	f.Fuzz(func(t *testing.T, data []byte) {
		db := fuzzDB()
		opt := EngineOptions{Method: GGSX, MaxPathLen: 3, CacheSize: 4, Window: 1}

		// Lazy leg: the mapped loader, with its deferred per-shard decodes
		// forced back in as a mutation forces them, must agree with the streaming
		// loader on accept/reject and on the recovery report — corruption it
		// defers to fault-in has to surface by materialisation, and it must
		// never reject bytes the streaming loader accepts.
		leng, lrep, lerr := loadEngineLazy(bytes.NewReader(data), db, opt, 0)
		if lerr == nil {
			lerr = leng.materialize()
		}

		// Whole-engine restore: error or success (possibly with a salvaged
		// torn tail), never a panic, never a half-applied state.
		eng, rep, err := LoadEngineReport(bytes.NewReader(data), db, opt)
		if (err == nil) != (lerr == nil) {
			t.Fatalf("lazy/eager accept disagreement: eager err=%v, lazy err=%v", err, lerr)
		}
		if err == nil {
			if (rep.RecoveredTail == nil) != (lrep.RecoveredTail == nil) ||
				(rep.RecoveredTail != nil && *rep.RecoveredTail != *lrep.RecoveredTail) ||
				rep.CacheDiscarded != lrep.CacheDiscarded {
				t.Fatalf("lazy/eager report disagreement: eager %+v, lazy %+v", rep, lrep)
			}
			// A snapshot the loader accepts must actually serve — and both
			// loaders must serve the same answers.
			er, qerr := eng.Query(context.Background(), ExtractQuery(db[0], 0, 2), WithoutCache())
			if qerr != nil {
				t.Fatalf("loaded engine cannot serve: %v", qerr)
			}
			lr, qerr := leng.Query(context.Background(), ExtractQuery(db[0], 0, 2), WithoutCache())
			if qerr != nil {
				t.Fatalf("lazily loaded engine cannot serve: %v", qerr)
			}
			if !reflect.DeepEqual(er.IDs, lr.IDs) {
				t.Fatalf("lazy load answers %v, eager %v", lr.IDs, er.IDs)
			}
			if rep.RecoveredTail != nil {
				// Self-heal idempotence: re-saving the recovered engine
				// must yield a clean snapshot (this is what LoadEngineFile
				// writes back to disk when it repairs).
				var heal bytes.Buffer
				if err := eng.Save(&heal); err != nil {
					t.Fatalf("saving recovered engine: %v", err)
				}
				if _, rep2, err := LoadEngineReport(bytes.NewReader(heal.Bytes()), db, opt); err != nil || rep2.RecoveredTail != nil {
					t.Fatalf("re-save of recovered engine is not clean: rep=%+v err=%v", rep2, err)
				}
			}
		}

		// Live-index rollback under arbitrary corruption.
		eng, err = NewEngine(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		probe := ExtractQuery(db[1], 0, 3)
		before, err := eng.Query(context.Background(), probe, WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		sizeBefore, _ := eng.IndexSizeBytes()
		if _, lerr := eng.LoadIndex(bytes.NewReader(data)); lerr != nil {
			after, err := eng.Query(context.Background(), probe, WithoutCache())
			if err != nil {
				t.Fatalf("post-rollback query: %v", err)
			}
			if !reflect.DeepEqual(after.IDs, before.IDs) || after.Stats != before.Stats {
				t.Fatalf("failed LoadIndex changed answers: %v/%+v -> %v/%+v",
					before.IDs, before.Stats, after.IDs, after.Stats)
			}
			if sizeAfter, _ := eng.IndexSizeBytes(); sizeAfter != sizeBefore {
				t.Fatalf("failed LoadIndex changed index footprint: %d -> %d", sizeBefore, sizeAfter)
			}
		}
	})
}

// TestFuzzSeedsRoundTrip keeps the fuzz seeds honest in plain test runs:
// the valid seeds must load successfully.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	db := fuzzDB()
	for i, opt := range []EngineOptions{
		{Method: GGSX, MaxPathLen: 3, CacheSize: 4, Window: 1},
		{Method: Grapes, MaxPathLen: 3, DisableCache: true},
	} {
		eng, err := NewEngine(db, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadEngineReport(bytes.NewReader(buf.Bytes()), db, opt); err != nil {
			t.Fatalf("seed %d does not round-trip: %v", i, err)
		}
	}
	// The dense container-bearing index seed must round-trip too: build the
	// same dataset shape as the fuzz seeds and reload its index snapshot.
	denseDB := make([]*Graph, 0, 120)
	for i := 0; i < 120; i++ {
		g := NewGraph(3)
		g.AddVertex(0)
		g.AddVertex(1)
		if i%2 == 0 {
			g.AddVertex(2)
		} else {
			g.AddVertex(1)
		}
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		denseDB = append(denseDB, g)
	}
	opt := EngineOptions{Method: GGSX, MaxPathLen: 3, DisableCache: true}
	eng, err := NewEngine(denseDB, opt)
	if err != nil {
		t.Fatal(err)
	}
	var ibuf bytes.Buffer
	if err := eng.SaveIndex(&ibuf); err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(denseDB, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.LoadIndex(bytes.NewReader(ibuf.Bytes())); err != nil {
		t.Fatalf("dense container index seed does not round-trip: %v", err)
	}
	q := ExtractQuery(denseDB[0], 0, 3)
	a, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng2.Query(context.Background(), q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.IDs, b.IDs) {
		t.Errorf("dense index answers diverge after reload: %v vs %v", a.IDs, b.IDs)
	}
}
