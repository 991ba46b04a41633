package igq

// Engine-level crash-safety: torn-tail self-healing through the public
// load paths, atomic snapshot files, and panic isolation in the serving
// hot path. The byte-level crash sweeps live in internal/persistio and
// internal/index (TestCrashSoak*); these tests pin the contracts the
// engine layers on top.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/persistio"
)

// answersOf serves qs without the cache, so the result depends only on the
// dataset index state.
func answersOf(t *testing.T, eng *Engine, qs []*Graph) [][]int32 {
	t.Helper()
	out := make([][]int32, len(qs))
	for i, q := range qs {
		res, err := eng.Query(context.Background(), q, WithoutCache())
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = res.IDs
	}
	return out
}

// TestEngineLoadIndexTornAppendRecovery: a crash mid-AppendIndexDelta
// leaves a torn trailing journal; Engine.LoadIndex must self-heal to the
// pre-append state and report the recovery, and the intact file must
// still load to the post-append state.
func TestEngineLoadIndexTornAppendRecovery(t *testing.T) {
	db := smallDB(t)
	extra := GenerateDataset(AIDSSpec().Scaled(0.0005, 2))
	opt := EngineOptions{Method: GGSX, DisableCache: true, Shards: 1, BuildWorkers: 1}
	eng, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	qs := engineQueries(db, 12, 3)
	preAnswers := answersOf(t, eng, qs)

	file := persistio.NewMemFile()
	if err := eng.SaveIndex(file); err != nil {
		t.Fatal(err)
	}
	baseLen := int(file.Len())
	if err := eng.AddGraphs(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	if err := eng.AppendIndexDelta(file); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), file.Bytes()...)
	if len(full) <= baseLen {
		t.Fatalf("append did not grow the file (%d -> %d)", baseLen, len(full))
	}

	// Post-append answers over the extended dataset, for the oracle below.
	postQs := engineQueries(eng.Dataset(), 12, 4)
	postAnswers := answersOf(t, eng, postQs)

	// Tear the journal section at a few depths, leaving the base intact.
	// A deep tear self-heals to the pre-append state; a tear that removes
	// only the trailing terminator leaves a CRC-valid section, which
	// counts as committed — the load then lands on the post-append state
	// (and thus only accepts the extended dataset). Never anything in
	// between, never a failed load.
	preDB, postDB := db, eng.Dataset()
	for _, cut := range []int{1, 2, (len(full) - baseLen) / 2, len(full) - baseLen - 1} {
		torn := full[:len(full)-cut]
		fresh, err := NewEngine(preDB, opt)
		if err != nil {
			t.Fatal(err)
		}
		rep, lerr := fresh.LoadIndex(bytes.NewReader(torn))
		if lerr == nil {
			if rep.RecoveredTail == nil {
				t.Fatalf("cut=%d: recovery not reported", cut)
			}
			if got := answersOf(t, fresh, qs); !reflect.DeepEqual(got, preAnswers) {
				t.Fatalf("cut=%d: recovered index diverges from pre-append state", cut)
			}
			continue
		}
		fresh, err = NewEngine(postDB, opt)
		if err != nil {
			t.Fatal(err)
		}
		rep, err = fresh.LoadIndex(bytes.NewReader(torn))
		if err != nil {
			t.Fatalf("cut=%d: torn tail loads against neither dataset: %v / %v", cut, lerr, err)
		}
		if rep.RecoveredTail == nil {
			t.Fatalf("cut=%d: recovery not reported", cut)
		}
		if got := answersOf(t, fresh, postQs); !reflect.DeepEqual(got, postAnswers) {
			t.Fatalf("cut=%d: recovered index diverges from post-append state", cut)
		}
	}

	// The intact file still loads to the post-append state — against the
	// extended dataset only (the journal stamp refuses the old one).
	post, err := NewEngine(eng.Dataset(), opt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := post.LoadIndex(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoveredTail != nil {
		t.Fatalf("intact journaled snapshot reported recovery: %+v", rep.RecoveredTail)
	}
	pre2, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre2.LoadIndex(bytes.NewReader(full)); err == nil {
		t.Fatal("journaled snapshot loaded against the pre-append dataset")
	}
}

// TestLoadEngineFileSelfHeal: a combined engine snapshot torn inside the
// index section loses its cache section too; LoadEngineFile must recover
// the index, discard the cache, rewrite the file as a clean snapshot and
// report all three.
func TestLoadEngineFileSelfHeal(t *testing.T) {
	db := smallDB(t)
	opt := EngineOptions{Method: GGSX, CacheSize: 10, Window: 3, Shards: 1, BuildWorkers: 1}
	eng, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	qs := engineQueries(db, 15, 5)
	for _, q := range qs { // fill the cache so the snapshot carries one
		if _, err := eng.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	preAnswers := answersOf(t, eng, qs)

	dir := t.TempDir()
	path := filepath.Join(dir, "engine.snap")
	if err := SaveEngineFile(path, eng); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the index section (single shard + single worker keeps the
	// encoding deterministic) so the tear lands inside it: everything
	// after it — including the whole cache section — is then lost.
	var idx bytes.Buffer
	if err := eng.SaveIndex(&idx); err != nil {
		t.Fatal(err)
	}
	idxStart := bytes.Index(full, idx.Bytes())
	if idxStart < 0 {
		t.Fatal("index section not found in the engine snapshot")
	}
	if err := os.WriteFile(path, full[:idxStart+idx.Len()-1], 0o644); err != nil {
		t.Fatal(err)
	}

	healed, rep, err := LoadEngineFile(path, db, opt)
	if err != nil {
		t.Fatalf("torn engine snapshot failed to self-heal: %v", err)
	}
	if rep.RecoveredTail == nil || !rep.CacheDiscarded || !rep.Repaired {
		t.Fatalf("report = %+v, want recovered+discarded+repaired", rep)
	}
	if healed.CacheLen() != 0 {
		t.Fatalf("discarded cache still holds %d entries", healed.CacheLen())
	}
	if got := answersOf(t, healed, qs); !reflect.DeepEqual(got, preAnswers) {
		t.Fatal("healed engine diverges from the saved index state")
	}

	// The repair rewrote the file: the next load is clean.
	again, rep2, err := LoadEngineFile(path, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RecoveredTail != nil || rep2.CacheDiscarded || rep2.Repaired {
		t.Fatalf("repaired file still reports damage: %+v", rep2)
	}
	if got := answersOf(t, again, qs); !reflect.DeepEqual(got, preAnswers) {
		t.Fatal("repaired snapshot diverges")
	}

	// And the healed engine keeps earning: mutate, re-save, reload.
	if err := healed.AddGraphs(context.Background(), GenerateDataset(AIDSSpec().Scaled(0.0005, 3))); err != nil {
		t.Fatal(err)
	}
	if err := SaveEngineFile(path, healed); err != nil {
		t.Fatal(err)
	}
	if _, rep3, err := LoadEngineFile(path, healed.Dataset(), opt); err != nil || rep3.RecoveredTail != nil {
		t.Fatalf("post-heal save does not round-trip: rep=%+v err=%v", rep3, err)
	}
}

// TestSaveEngineFilePreservesOnError: a save that fails (here: a method
// without persistence) must leave an existing snapshot byte-identical —
// the atomic temp+rename path never opens the destination itself.
func TestSaveEngineFilePreservesOnError(t *testing.T) {
	db := smallDB(t)
	good, err := NewEngine(db, EngineOptions{Method: GGSX, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.snap")
	if err := SaveEngineFile(path, good); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bad, err := NewEngine(db, EngineOptions{Method: CTIndex, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveEngineFile(path, bad); err == nil {
		t.Fatal("saving a non-persistable method succeeded")
	}
	if err := SaveIndexFile(path, bad); err == nil {
		t.Fatal("index save of a non-persistable method succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save damaged the existing snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed saves left temp files behind: %v", entries)
	}
}

// poisonIndex wraps a live GGSX index and panics when verifying one
// specific query pointer — a stand-in for a latent bug in a method's
// verification path: the prepared handle passes the victim's first k-1
// candidates through to the real matcher and panics on the k-th. Embedding
// keeps every optional capability (Mutable, Persistable, CountFilterer,
// DictProvider) promoted — which is also why Prepare must be overridden
// beside Verify; the mutation methods re-wrap so the poison survives
// copy-on-write generation swaps.
type poisonIndex struct {
	*ggsx.Index
	victim *Graph
	hits   *atomic.Int64
	k      *atomic.Int64
}

func (p *poisonIndex) rewrap(m index.Mutable) *poisonIndex {
	return &poisonIndex{Index: m.(*ggsx.Index), victim: p.victim, hits: p.hits, k: p.k}
}

func (p *poisonIndex) Verify(q *Graph, id int32) bool {
	if q == p.victim {
		p.hits.Add(1)
		panic("poisonIndex: verification bug")
	}
	return p.Index.Verify(q, id)
}

func (p *poisonIndex) Prepare(q *Graph) index.Verifier {
	inner := p.Index.Prepare(q)
	if q != p.victim {
		return inner
	}
	return &poisonVerifier{inner: inner, left: p.k.Load(), hits: p.hits}
}

// poisonVerifier counts down on the one goroutine the verification loop
// runs on.
type poisonVerifier struct {
	inner index.Verifier
	left  int64
	hits  *atomic.Int64
}

func (v *poisonVerifier) Verify(id int32) bool {
	if v.left--; v.left <= 0 {
		v.hits.Add(1)
		panic("poisonIndex: verification bug")
	}
	return v.inner.Verify(id)
}

func (p *poisonIndex) AppendGraphs(gs []*Graph) (index.Mutable, []*Graph, error) {
	m, db, err := p.Index.AppendGraphs(gs)
	if err != nil {
		return nil, nil, err
	}
	return p.rewrap(m), db, nil
}

func (p *poisonIndex) RemoveGraphs(positions []int) (index.Mutable, []*Graph, []int32, error) {
	m, db, mapping, err := p.Index.RemoveGraphs(positions)
	if err != nil {
		return nil, nil, nil, err
	}
	return p.rewrap(m), db, mapping, nil
}

// TestQueryPanicIsolation: a panic in the verification hot path of one
// query must not take down the batch, the concurrent mutators, or the
// engine — the poisoned query returns *PanicError, everything else keeps
// working, and Stats().Panics counts the containments. Run with -race in
// CI, where the concurrent mutate/save traffic makes the isolation real.
func TestQueryPanicIsolation(t *testing.T) {
	db := smallDB(t)
	opt := EngineOptions{Method: GGSX, CacheSize: 20, Window: 5}
	eng, err := NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}

	// A victim with at least two candidates, so verification actually runs
	// and can be poisoned mid-loop.
	v := eng.view.Load()
	var victim *Graph
	for size := 6; size >= 2 && victim == nil; size-- {
		if q := ExtractQuery(db[0], 0, size); len(v.m.Filter(q)) >= 2 {
			victim = q
		}
	}
	if victim == nil {
		t.Fatal("no victim query with two candidates; a poison on the second would never fire")
	}
	var hits, k atomic.Int64
	pm := &poisonIndex{Index: v.m.(*ggsx.Index), victim: victim, hits: &hits, k: &k}
	eng.view.Store(&engineView{db: v.db, m: pm})
	eng.modes[SubgraphQueries].ig.Store(core.New(pm, v.db, eng.coreOptions(SubgraphQueries)))

	// Mid-loop first, on a cold cache where nothing prunes the candidates:
	// the first test runs on the real matcher, the second panics — through
	// the cached path and through WithoutCache's, which share the loop. The
	// query is contained, leaves nothing in the cache, and the next query
	// (whose tests draw the matcher's pooled state again) answers.
	k.Store(2)
	for i, opts := range [][]QueryOption{nil, {WithoutCache()}} {
		var pe *PanicError
		if _, err := eng.Query(context.Background(), victim, opts...); !errors.As(err, &pe) {
			t.Fatalf("mid-loop poison %d: err = %v, want *PanicError", i, err)
		}
		if st := eng.Stats(); st.Panics != int64(i+1) || st.WindowPending != 0 || st.CachedQueries != 0 {
			t.Fatalf("mid-loop poison %d: stats %+v, want %d panics and an empty cache", i, st, i+1)
		}
		innocent := ExtractQuery(db[2], 0, 5)
		res, err := eng.Query(context.Background(), innocent, WithoutAdmission())
		if err != nil {
			t.Fatalf("query after mid-loop poison %d: %v", i, err)
		}
		if want := index.Answer(pm.Index, innocent); !slices.Equal(res.IDs, want) {
			t.Fatalf("query after mid-loop poison %d answered %v, want %v", i, res.IDs, want)
		}
	}
	midLoop := eng.Stats().Panics
	k.Store(1) // from here on the first surviving candidate trips it

	qs := engineQueries(db, 40, 9)
	victimAt := map[int]bool{}
	for _, i := range []int{3, 17, 31} {
		qs[i] = victim
		victimAt[i] = true
	}

	// Concurrent earners: dataset mutations and snapshot saves racing the
	// batch, exactly the traffic a panic must not poison.
	extras := [][]*Graph{
		GenerateDataset(AIDSSpec().Scaled(0.0003, 11)),
		GenerateDataset(AIDSSpec().Scaled(0.0003, 12)),
		GenerateDataset(AIDSSpec().Scaled(0.0003, 13)),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, extra := range extras {
			if err := eng.AddGraphs(context.Background(), extra); err != nil {
				t.Errorf("concurrent AddGraphs: %v", err)
				return
			}
			var buf bytes.Buffer
			if err := eng.Save(&buf); err != nil {
				t.Errorf("concurrent Save: %v", err)
				return
			}
		}
	}()
	results := eng.QueryBatchCtx(context.Background(), qs, 4)
	<-done

	var panics int
	for i, r := range results {
		if victimAt[i] {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("victim %d: err = %v, want *PanicError", i, r.Err)
			}
			if len(pe.Stack) == 0 || pe.Value == nil {
				t.Fatalf("victim %d: PanicError missing stack or value: %+v", i, pe)
			}
			panics++
			continue
		}
		if r.Err != nil {
			t.Fatalf("innocent query %d failed: %v", i, r.Err)
		}
	}
	if hits.Load() == 0 {
		t.Fatal("poison never fired — the test proved nothing")
	}
	if got := eng.Stats().Panics; got != midLoop+int64(panics) {
		t.Fatalf("Stats().Panics = %d, want %d", got, midLoop+int64(panics))
	}

	// The engine is still fully serviceable: fresh queries answer and the
	// next snapshot round-trips into a clean engine.
	if _, err := eng.Query(context.Background(), ExtractQuery(db[1], 0, 4)); err != nil {
		t.Fatalf("post-panic query: %v", err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatalf("post-panic save: %v", err)
	}
	clean, _, err := LoadEngineReport(bytes.NewReader(buf.Bytes()), eng.Dataset(), opt)
	if err != nil {
		t.Fatalf("post-panic snapshot does not load: %v", err)
	}
	// The restored engine runs an unpoisoned method: the victim query now
	// answers instead of panicking.
	if _, err := clean.Query(context.Background(), victim); err != nil {
		t.Fatalf("victim query on the restored engine: %v", err)
	}
}
