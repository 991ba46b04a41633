package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	igq "repro"
	"repro/internal/index"
	"repro/internal/index/grapes"
	"repro/internal/iso"
)

func testDB(t *testing.T) []*igq.Graph {
	t.Helper()
	return igq.GenerateDataset(igq.AIDSSpec().Scaled(0.001, 1))
}

func testQueries(db []*igq.Graph, n int, seed int64) []*igq.Graph {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*igq.Graph, 0, n)
	for i := 0; i < n; i++ {
		qs = append(qs, igq.ExtractQuery(db[rng.Intn(len(db))], rng.Intn(3), 3+rng.Intn(6)))
	}
	for i := 4; i < len(qs); i += 4 {
		qs[i] = qs[i-4].Clone()
	}
	return qs
}

// newTestServer wires a Server into an httptest front and returns the
// pieces lifecycle tests poke at.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, NewClient(hs.URL)
}

// TestWireGraphRoundTrip: the JSON codec must preserve structure exactly.
func TestWireGraphRoundTrip(t *testing.T) {
	db := testDB(t)
	for i, g := range db[:10] {
		back, err := DecodeGraph(EncodeGraph(g))
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if !iso.Isomorphic(g, back) {
			t.Fatalf("graph %d: round trip not isomorphic", i)
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("graph %d: size changed in round trip", i)
		}
	}
	if _, err := DecodeGraph(WireGraph{Labels: []igq.Label{1}, Edges: [][3]int{{0, 5, 0}}}); err == nil {
		t.Fatal("edge outside vertex range decoded")
	}
}

// TestQueryOverWire: single-query answers over HTTP must equal the
// engine's direct answers, in both modes.
func TestQueryOverWire(t *testing.T) {
	db := testDB(t)
	sub, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.Grapes, CacheSize: 30, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Independent oracles so served queries do not warm the oracle cache.
	subOracle, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.Grapes, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	superOracle, err := igq.NewEngine(db, igq.EngineOptions{Supergraph: true, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, client := newTestServer(t, Config{Engine: sub, Super: true})

	ctx := context.Background()
	for i, q := range testQueries(db, 25, 3) {
		reply, err := client.QueryGraph(ctx, q, ModeSub)
		if err != nil {
			t.Fatalf("sub query %d: %v", i, err)
		}
		want, err := subOracle.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reply.IDs, nonNil(want.IDs)) {
			t.Fatalf("sub query %d: wire %v, direct %v", i, reply.IDs, want.IDs)
		}

		sreply, err := client.QueryGraph(ctx, q, ModeSuper)
		if err != nil {
			t.Fatalf("super query %d: %v", i, err)
		}
		swant, err := superOracle.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sreply.IDs, nonNil(swant.IDs)) {
			t.Fatalf("super query %d: wire %v, direct %v", i, sreply.IDs, swant.IDs)
		}
	}

	if _, err := client.QueryGraph(ctx, testQueries(db, 1, 4)[0], "sideways"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestQueryStreamOverWire: the NDJSON streaming endpoint must answer every
// query of a stream larger than the execution-slot pool, identically to
// the direct engine.
func TestQueryStreamOverWire(t *testing.T) {
	db := testDB(t)
	eng, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.Grapes, CacheSize: 30, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.Grapes, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, client := newTestServer(t, Config{Engine: eng, Workers: 2})

	queries := testQueries(db, 30, 7)
	in := make(chan QueryRequest)
	go func() {
		defer close(in)
		for _, q := range queries {
			in <- QueryRequest{Graph: EncodeGraph(q)}
		}
	}()
	replies, errc := client.QueryStream(context.Background(), "", 0, in)
	got := make([]*QueryReply, len(queries))
	for r := range replies {
		if r.Index < 0 || r.Index >= len(queries) || got[r.Index] != nil {
			t.Fatalf("bad or duplicate stream index %d", r.Index)
		}
		rr := r
		got[rr.Index] = &rr
	}
	if err := <-errc; err != nil {
		t.Fatalf("stream error: %v", err)
	}
	for i, r := range got {
		if r == nil {
			t.Fatalf("query %d never answered", i)
		}
		if r.Error != "" {
			t.Fatalf("query %d: %s", i, r.Error)
		}
		want, err := oracle.Query(context.Background(), queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.IDs, nonNil(want.IDs)) {
			t.Fatalf("query %d: stream %v, direct %v", i, r.IDs, want.IDs)
		}
	}

	// A mode the server was not started with is the client's error.
	_, err = client.QueryGraph(context.Background(), queries[0], ModeSuper)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("unserved supergraph query returned %v, want 400", err)
	}
}

// TestDefaultSlots: a Config that leaves Workers and QueueDepth at 0 runs
// one execution slot per GOMAXPROCS and four waiting slots per execution
// slot, and says so in /stats and through Slots.
func TestDefaultSlots(t *testing.T) {
	eng, err := igq.NewEngine(testDB(t), igq.EngineOptions{Method: igq.GGSX})
	if err != nil {
		t.Fatal(err)
	}
	s, _, client := newTestServer(t, Config{Engine: eng})
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := runtime.GOMAXPROCS(0)
	if st.Server.Workers != want || st.Server.QueueDepth != 4*want {
		t.Fatalf("/stats: workers %d, queue_depth %d; want %d and %d", st.Server.Workers, st.Server.QueueDepth, want, 4*want)
	}
	if w, q := s.Slots(); w != want || q != 4*want {
		t.Fatalf("Slots() = %d, %d; want %d and %d", w, q, want, 4*want)
	}
}

// TestBackpressureQueueFull: with every execution and waiting slot taken,
// the next query must be rejected immediately with 429 — and the waiting
// queries must still complete once slots free up. Nothing blocks forever.
func TestBackpressureQueueFull(t *testing.T) {
	db := testDB(t)
	eng, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.GGSX})
	if err != nil {
		t.Fatal(err)
	}
	s, _, client := newTestServer(t, Config{Engine: eng, Workers: 2, QueueDepth: 2})

	// Occupy every execution slot so admitted queries park in acquireRun.
	// The deferred release also covers t.Fatal paths: without it the parked
	// requests would hold the httptest server open forever.
	for i := 0; i < cap(s.run); i++ {
		s.run <- struct{}{}
	}
	var freeOnce sync.Once
	freeSlots := func() {
		freeOnce.Do(func() {
			for i := 0; i < cap(s.run); i++ {
				<-s.run
			}
		})
	}
	defer freeSlots()

	q := testQueries(db, 1, 11)[0]
	var wg sync.WaitGroup
	parked := cap(s.queue) - 1
	results := make(chan error, cap(s.queue))
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.QueryGraph(context.Background(), q, ModeSub)
			results <- err
		}()
	}
	waitQueue := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for len(s.queue) != n {
			if time.Now().After(deadline) {
				t.Fatalf("admission queue stuck at %d, want %d", len(s.queue), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitQueue(parked)

	// A query taking the last admission slot parks behind the busy workers;
	// its deadline must cut it loose with 504, not an eternal wait.
	_, err = client.Query(context.Background(), QueryRequest{Graph: EncodeGraph(q), TimeoutMillis: 50})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("parked query with deadline returned %v, want 504", err)
	}

	// Now saturate the queue completely: the next request must bounce with
	// 429 immediately, not block.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := client.QueryGraph(context.Background(), q, ModeSub)
		results <- err
	}()
	waitQueue(cap(s.queue))
	start := time.Now()
	_, err = client.QueryGraph(context.Background(), q, ModeSub)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated server returned %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("rejection took %v — 429 must be immediate", d)
	}
	if s.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}

	// Free the slots: every parked query must complete successfully.
	freeSlots()
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("parked query failed after slots freed: %v", err)
		}
	}
}

// slowIndex wraps a built method and stretches every verification — the
// deadline tests' stand-in for an expensive query. Interface embedding
// deliberately drops the optional capabilities; tests that persist use
// slowGrapes below.
type slowIndex struct {
	index.Method
	delay time.Duration
}

func (s *slowIndex) Verify(q *igq.Graph, id int32) bool {
	time.Sleep(s.delay)
	return s.Method.Verify(q, id)
}

// TestDeadlineLeavesNoTrace: a query cancelled by its deadline must
// return 504 and leave the engine's stats and cache exactly as they were
// — no counted query, no admission, no window entry.
func TestDeadlineLeavesNoTrace(t *testing.T) {
	db := testDB(t)
	eng, err := igq.NewEngine(db, igq.EngineOptions{
		Method: igq.GGSX, CacheSize: 30, Window: 10,
		WrapMethod: func(m any) any { return &slowIndex{Method: m.(index.Method), delay: 25 * time.Millisecond} },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, client := newTestServer(t, Config{Engine: eng})

	// Warm up with one full query so the engine has some state to disturb.
	q := testQueries(db, 2, 13)
	if _, err := client.QueryGraph(context.Background(), q[0], ModeSub); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	before := eng.Stats()

	_, err = client.Query(context.Background(), QueryRequest{Graph: EncodeGraph(q[1]), TimeoutMillis: 5})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("deadline query returned %v, want 504", err)
	}

	after := eng.Stats()
	if after.Queries != before.Queries {
		t.Errorf("cancelled query counted: Queries %d -> %d", before.Queries, after.Queries)
	}
	if after.CachedQueries != before.CachedQueries || after.WindowPending != before.WindowPending {
		t.Errorf("cancelled query left a cache trace: cached %d->%d window %d->%d",
			before.CachedQueries, after.CachedQueries, before.WindowPending, after.WindowPending)
	}

	// The server is still healthy: the same query with no deadline works.
	if _, err := client.QueryGraph(context.Background(), q[1], ModeSub); err != nil {
		t.Fatalf("post-deadline query: %v", err)
	}
}

// poisonLabel marks query graphs the poisoned filter blows up on.
const poisonLabel igq.Label = 4242

// poisonFilter panics on any query carrying poisonLabel — a latent method
// bug a network client can trigger with a well-formed request.
type poisonFilter struct {
	index.Method
	fired atomic.Int64
}

func (p *poisonFilter) Filter(q *igq.Graph) []int32 {
	for _, l := range q.Labels() {
		if l == poisonLabel {
			p.fired.Add(1)
			panic("poisoned query graph reached the filter")
		}
	}
	return p.Method.Filter(q)
}

// TestPoisonedQueryOverWire: a query that panics the method must come back
// as an error response (single and streaming), while the server keeps
// serving every other query. Reuses the PR-6 containment machinery
// (*PanicError) end to end over HTTP.
func TestPoisonedQueryOverWire(t *testing.T) {
	db := testDB(t)
	pf := &poisonFilter{}
	eng, err := igq.NewEngine(db, igq.EngineOptions{
		Method: igq.GGSX, CacheSize: 30, Window: 10,
		WrapMethod: func(m any) any { pf.Method = m.(index.Method); return pf },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, client := newTestServer(t, Config{Engine: eng, Workers: 2})

	poison := igq.NewGraph(2)
	poison.AddVertex(poisonLabel)
	poison.AddVertex(poisonLabel)
	poison.AddEdge(0, 1)

	ctx := context.Background()
	_, err = client.QueryGraph(ctx, poison, ModeSub)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("poisoned query returned %v, want 500", err)
	}
	if !strings.Contains(apiErr.Msg, "panicked") {
		t.Fatalf("error does not surface the containment: %q", apiErr.Msg)
	}

	// Streaming: the poisoned line errors, its neighbours answer.
	queries := testQueries(db, 6, 17)
	in := make(chan QueryRequest)
	go func() {
		defer close(in)
		for i, q := range queries {
			g := q
			if i == 2 {
				g = poison
			}
			in <- QueryRequest{Graph: EncodeGraph(g)}
		}
	}()
	replies, errc := client.QueryStream(ctx, "", 0, in)
	errLines, okLines := 0, 0
	for r := range replies {
		if r.Error != "" {
			if r.Index != 2 {
				t.Fatalf("innocent query %d errored: %s", r.Index, r.Error)
			}
			errLines++
		} else {
			okLines++
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if errLines != 1 || okLines != len(queries)-1 {
		t.Fatalf("stream replies: %d errors, %d ok (want 1, %d)", errLines, okLines, len(queries)-1)
	}
	if pf.fired.Load() < 2 {
		t.Fatal("poison never fired — the test proved nothing")
	}
	if eng.Stats().Panics < 2 {
		t.Fatalf("Stats().Panics = %d, want ≥2", eng.Stats().Panics)
	}

	// The server keeps serving after every containment.
	if _, err := client.QueryGraph(ctx, queries[0], ModeSub); err != nil {
		t.Fatalf("post-poison query: %v", err)
	}
}

// gatedGrapes keeps the full capability set (persistence, mutation)
// promoted from the concrete index, and — once armed — parks the next
// verification on a gate so the drain test can hold a query in flight
// deterministically.
type gatedGrapes struct {
	*grapes.Index
	arm     atomic.Bool
	once    sync.Once
	entered chan struct{} // closed when an armed verification begins
	release chan struct{} // armed verifications wait here
}

func (s *gatedGrapes) Verify(q *igq.Graph, id int32) bool {
	if s.arm.Load() {
		s.once.Do(func() { close(s.entered) })
		<-s.release
	}
	return s.Index.Verify(q, id)
}

// Prepare keeps the prepared route behind the gate: embedding promotes
// grapes' own Prepare, which would bypass the Verify override.
func (s *gatedGrapes) Prepare(q *igq.Graph) index.Verifier { return gatedVerifier{s, q} }

type gatedVerifier struct {
	s *gatedGrapes
	q *igq.Graph
}

func (v gatedVerifier) Verify(id int32) bool { return v.s.Verify(v.q, id) }

// TestGracefulShutdownDrainAndSnapshot: Shutdown must let an in-flight
// query finish, then write a snapshot that restores to an engine with
// identical answers.
func TestGracefulShutdownDrainAndSnapshot(t *testing.T) {
	db := testDB(t)
	snap := filepath.Join(t.TempDir(), "engine.snap")
	opt := igq.EngineOptions{Method: igq.Grapes, CacheSize: 30, Window: 10}
	gate := &gatedGrapes{entered: make(chan struct{}), release: make(chan struct{})}
	wrapped := opt
	wrapped.WrapMethod = func(m any) any { gate.Index = m.(*grapes.Index); return gate }
	eng, err := igq.NewEngine(db, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: eng, Workers: 4, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	client := NewClient("http://" + l.Addr().String())

	// Warm the cache so the snapshot carries earned knowledge.
	queries := testQueries(db, 20, 19)
	for _, q := range queries {
		if _, err := client.QueryGraph(context.Background(), q, ModeSub); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}

	// Park one query mid-verification, then shut down underneath it.
	// NoCache forces the full filter+verify path so the gate is reached.
	gate.arm.Store(true)
	slow := make(chan error, 1)
	go func() {
		_, err := client.Query(context.Background(),
			QueryRequest{Graph: EncodeGraph(db[0]), NoCache: true})
		slow <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated query never entered verification")
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shErr := make(chan error, 1)
	go func() { shErr <- s.Shutdown(shCtx) }()
	time.Sleep(50 * time.Millisecond) // let Shutdown enter its drain
	gate.arm.Store(false)
	close(gate.release)
	if err := <-slow; err != nil {
		t.Fatalf("in-flight query was not drained: %v", err)
	}
	if err := <-shErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	// The snapshot must restore an engine answering identically.
	loaded, rep, err := igq.LoadEngineFile(snap, eng.Dataset(), opt)
	if err != nil {
		t.Fatalf("loading shutdown snapshot: %v", err)
	}
	if rep.RecoveredTail != nil {
		t.Fatal("shutdown snapshot needed tail recovery — save was not atomic")
	}
	for i, q := range queries {
		want, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.IDs, want.IDs) {
			t.Fatalf("query %d: restored %v, live %v", i, got.IDs, want.IDs)
		}
	}
	if loaded.CacheLen() == 0 {
		t.Fatal("restored engine lost the warmed cache")
	}
}

// TestMutationsOverWireWithDeltaLineage: wire mutations must answer
// correctly afterwards in both modes, keep the journal lineage loadable,
// and the maintenance hook must be callable.
func TestMutationsOverWireWithDeltaLineage(t *testing.T) {
	db := testDB(t)
	opt := igq.EngineOptions{Method: igq.Grapes, CacheSize: 30, Window: 10}
	eng, err := igq.NewEngine(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(t.TempDir(), "index.idx")
	if err := igq.SaveIndexFile(deltaPath, eng); err != nil {
		t.Fatal(err)
	}
	base, err := os.Stat(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	s, _, client := newTestServer(t, Config{Engine: eng, Super: true, DeltaPath: deltaPath})

	ctx := context.Background()
	extra := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.0005, 7))
	for i, g := range extra {
		g.ID = 50_000 + i // added graphs need IDs unique in the dataset
	}
	reply, err := client.AddGraphs(ctx, extra)
	if err != nil {
		t.Fatalf("AddGraphs: %v", err)
	}
	if reply.DatasetSize != len(db)+len(extra) {
		t.Fatalf("dataset size %d after add, want %d", reply.DatasetSize, len(db)+len(extra))
	}
	if fi, _ := os.Stat(deltaPath); fi.Size() <= base.Size() {
		t.Fatal("mutation did not append to the delta lineage")
	}
	reply, err = client.RemoveGraphs(ctx, []int{0, 3})
	if err != nil {
		t.Fatalf("RemoveGraphs: %v", err)
	}
	if reply.DatasetSize != len(db)+len(extra)-2 {
		t.Fatalf("dataset size %d after remove", reply.DatasetSize)
	}

	// Answers over the mutated dataset must match a fresh engine.
	oracle, err := igq.NewEngine(eng.Dataset(), igq.EngineOptions{Method: igq.Grapes, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range testQueries(eng.Dataset(), 10, 23) {
		got, err := client.QueryGraph(ctx, q, ModeSub)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want := sortedMatchIDs(t, oracle, q); !reflect.DeepEqual(got.IDs, nonNil(want)) {
			t.Fatalf("query %d after mutations: wire %v, direct %v", i, got.IDs, want)
		}
		// The supergraph read of the same index serves the new dataset too.
		if _, err := client.QueryGraph(ctx, q, ModeSuper); err != nil {
			t.Fatalf("super query %d after mutations: %v", i, err)
		}
	}

	// The journaled lineage must load against the mutated dataset.
	check, err := igq.NewEngine(eng.Dataset(), opt)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	_, err = check.LoadIndex(f)
	f.Close()
	if err != nil {
		t.Fatalf("journaled lineage does not load: %v", err)
	}

	// Maintenance hook runs clean (compaction or no-op, never an error).
	if _, err := s.maintain(); err != nil {
		t.Fatalf("maintain: %v", err)
	}

	// Stats and metrics reflect the traffic.
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sub.Queries == 0 || st.Super == nil || st.Server.Served == 0 {
		t.Fatalf("stats missing traffic: %+v", st)
	}
	resp, err := http.Get(strings.TrimRight(client.base, "/") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "igq_requests_served_total") ||
		!strings.Contains(string(body), fmt.Sprintf("igq_engine_queries_total{mode=%q}", "sub")) ||
		!strings.Contains(string(body), fmt.Sprintf("igq_engine_base_memo_renewals_total{mode=%q}", "super")) {
		t.Fatalf("metrics output incomplete:\n%s", body)
	}
}

// TestRequestBodyBounded: a unary request whose body is one byte over the
// bound answers 413 at /query, /graphs/add and /graphs/remove and leaves
// the dataset as it was, while the same body at the bound is served.
func TestRequestBodyBounded(t *testing.T) {
	db := testDB(t)
	eng, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.GGSX})
	if err != nil {
		t.Fatal(err)
	}
	extra := db[1].Clone()
	extra.ID = 1_000_000
	for path, req := range map[string]any{
		"/query":         QueryRequest{Graph: EncodeGraph(igq.ExtractQuery(db[0], 0, 4))},
		"/graphs/add":    MutateRequest{Graphs: []WireGraph{EncodeGraph(extra)}},
		"/graphs/remove": MutateRequest{Positions: []int{db[2].ID}},
	} {
		body, _ := json.Marshal(req)
		before := len(eng.Dataset())
		for _, over := range []bool{true, false} {
			s, err := New(Config{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			if s.maxBody != maxRequestBytes {
				t.Fatalf("New bounds bodies at %d bytes, want %d", s.maxBody, maxRequestBytes)
			}
			s.maxBody = int64(len(body))
			if over {
				s.maxBody--
			}
			hs := httptest.NewServer(s.Handler()) // after the write to maxBody
			t.Cleanup(hs.Close)
			resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if want := map[bool]int{true: http.StatusRequestEntityTooLarge, false: http.StatusOK}[over]; resp.StatusCode != want {
				t.Fatalf("%s, body over the bound %v: answered %d, want %d", path, over, resp.StatusCode, want)
			}
			if over && len(eng.Dataset()) != before {
				t.Fatalf("%s: a refused request changed the dataset", path)
			}
		}
	}
}
