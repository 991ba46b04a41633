package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	igq "repro"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/index"
	"repro/internal/partition"
	"repro/internal/server"
)

// The traced run. It replays a workload's stream prefix in-process on one
// goroutine — same seed, same dataset, same operations as the live run —
// and times the calls into each layer's public functions from outside:
//
//	server    JSON -> QueryRequest -> DecodeGraph, and QueryReply -> JSON
//	features  features.PathsID over the method's dictionary
//	core      core.IGQ.QueryCtx (its self time is lookup, pruning, admission
//	          and window flushes); core.lookup is Outcome.CacheDur
//	index     the method's Filter, through a wrapper around index.Method
//	iso       the method's Verify, one span per isomorphism test
//	partition Group.QueryMode / AddGraphs / RemoveGraphs (the engines under
//	          a Group are not wrapped: their time is inside these spans)
//	trie      lazy shard faults: the time a budgeted lazy engine needs
//	          beyond a fully resident one for the same query
//
// One goroutine and a fixed operation count make every count repeat exactly
// for a seed. Timing metrics come from a second replay with spans off, which
// also gives the tracing overhead.

const pathLen = 4 // the engine's default feature length (EngineOptions.MaxPathLen)

// pathMethod is what the path-based methods (Grapes, GGSX) offer and core
// relies on for its interned-feature fast path.
type pathMethod interface {
	index.Method
	index.DictProvider
	index.CountFilterer
}

// tracedMethod wraps a method so that every Filter and Verify call made by
// core becomes a span.
type tracedMethod struct {
	pathMethod
	tr *tracer
}

func (m tracedMethod) Filter(q *igq.Graph) []int32 {
	id := m.tr.begin("index.filter")
	defer m.tr.end(id)
	return m.pathMethod.Filter(q)
}

func (m tracedMethod) FilterByFeatureCounts(qf features.IDSet) []int32 {
	id := m.tr.begin("index.filter")
	defer m.tr.end(id)
	return m.pathMethod.FilterByFeatureCounts(qf)
}

func (m tracedMethod) Verify(q *igq.Graph, id int32) bool {
	sp := m.tr.begin("iso.verify")
	defer m.tr.end(sp)
	return m.pathMethod.Verify(q, id)
}

// builtEngine builds an engine the way igqserve does and also hands back
// the method index inside it (through the WrapMethod seam), so the replay
// can put its own core.IGQ over a wrapped copy.
func builtEngine(db []*igq.Graph, opt igq.EngineOptions) (*igq.Engine, pathMethod, time.Duration, error) {
	var captured any
	opt.WrapMethod = func(m any) any { captured = m; return m }
	t0 := time.Now()
	eng, err := igq.NewEngine(db, opt)
	took := time.Since(t0)
	if err != nil {
		return nil, nil, 0, err
	}
	pm, ok := captured.(pathMethod)
	if !ok {
		return nil, nil, 0, fmt.Errorf("method %s is not a path method", eng.MethodName())
	}
	return eng, pm, took, nil
}

// queryRecord is what one replayed operation did.
type queryRecord struct {
	isQuery                        bool
	wall                           time.Duration
	base, dsTests, cacheTests      int
	subHits, superHits, answers    int
	short, flushed                 bool
	filterDur, cacheDur, verifyDur time.Duration
	featureIDs                     int
	featureDur                     time.Duration
}

// wireBodies pre-marshals the requests a client would send; the replay
// decodes them as the server does.
func wireBodies(in inputs) ([][]byte, error) {
	bodies := make([][]byte, len(in.ops))
	for i, o := range in.ops {
		var v any
		switch o.kind {
		case opQuery:
			v = server.QueryRequest{Graph: server.EncodeGraph(o.query), Mode: o.mode}
		case opAdd:
			req := server.MutateRequest{}
			for _, g := range in.batches[o.batch] {
				req.Graphs = append(req.Graphs, server.EncodeGraph(g))
			}
			v = req
		case opRemove:
			req := server.MutateRequest{}
			for _, g := range in.batches[o.batch] {
				req.Positions = append(req.Positions, g.ID)
			}
			v = req
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

func decodeQuery(body []byte) (*igq.Graph, string, error) {
	var req server.QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, "", err
	}
	g, err := server.DecodeGraph(req.Graph)
	return g, req.Mode, err
}

// replayChecker compares a sample of the traced replay's answers with the
// brute-force model, following the replay's own mutations.
type replayChecker struct {
	in      inputs
	live    map[int]bool // mutation batches currently in the dataset
	every   int          // check one query in this many
	seen    int
	checked int
	wrong   int
}

func (c *replayChecker) mutated(o op) {
	if c != nil {
		c.live[o.batch] = o.kind == opAdd
	}
}

func (c *replayChecker) answered(i int, o op, ids []int32) {
	if c == nil {
		return
	}
	if c.seen++; c.seen%c.every != 0 {
		return
	}
	gs := slices.Clone(c.in.db)
	for b, on := range c.live {
		if on {
			gs = append(gs, c.in.batches[b]...)
		}
	}
	c.checked++
	if want := newModel(gs).answer(o.query, o.mode); !slices.Equal(ids, want) {
		c.wrong++
		fmt.Fprintf(os.Stderr, "bench: traced replay: op %d mode %s: got %d ids, want %d\n", i, o.mode, len(ids), len(want))
	}
}

// replaySingle runs ops[:warm+n] through a fresh query cache over method m
// (wrapped when tr is non-nil) and records the last n operations.
func replaySingle(m pathMethod, in inputs, bodies [][]byte, shards, warm, n int, tr *tracer, chk *replayChecker) ([]queryRecord, error) {
	var method index.Method = m
	if tr != nil {
		method = tracedMethod{pathMethod: m, tr: tr}
	}
	ig := core.New(method, in.db, core.Options{CacheSize: cacheSize, Window: windowSize, Shards: shards})
	ctx := context.Background()
	scratch := features.NewScratch()
	recs := make([]queryRecord, 0, n)
	for i := 0; i < warm+n; i++ {
		if i < warm {
			if _, err := ig.QueryCtx(ctx, in.ops[i].query); err != nil {
				return nil, err
			}
			continue
		}
		rec := queryRecord{isQuery: true}
		if tr != nil {
			// The enumeration core performs first, timed on its own; it
			// re-appears below as a child span of core.query.
			t0 := time.Now()
			qf := features.PathsID(in.ops[i].query, features.PathOptions{MaxLen: pathLen}, m.FeatureDict(), scratch, false)
			rec.featureDur = time.Since(t0)
			rec.featureIDs = len(qf.Counts)
			tr.request, tr.on = i, true
		}
		flushes := ig.Flushes()
		t0 := time.Now()
		root := tr.begin("request")
		sp := tr.begin("server.decode")
		g, _, err := decodeQuery(bodies[i])
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cq := tr.begin("core.query")
		out, err := ig.QueryCtx(ctx, g)
		tr.end(cq)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("server.encode")
		_, err = json.Marshal(server.QueryReply{IDs: out.Answer, Stats: igq.QueryStats{
			BaseCandidates: out.BaseCandidates, FinalCandidates: out.FinalCandidates,
			DatasetIsoTests: out.DatasetIsoTests, CacheIsoTests: out.CacheIsoTests,
			SubHits: out.SubHits, SuperHits: out.SuperHits, AnsweredByCache: out.Short != core.NoShortCircuit,
		}})
		tr.end(sp)
		tr.end(root)
		rec.wall = time.Since(t0)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			start := tr.spans[cq].Start
			tr.add("features.enumerate", cq, start, start+int64(rec.featureDur))
			// core runs its cache lookup right after the filter returns.
			for _, s := range tr.spans[cq+1:] {
				if s.Parent == cq && s.Name == "index.filter" {
					tr.add("core.lookup", cq, s.End, s.End+int64(out.CacheDur))
					break
				}
			}
		}
		rec.base, rec.dsTests, rec.cacheTests = out.BaseCandidates, out.DatasetIsoTests, out.CacheIsoTests
		rec.subHits, rec.superHits, rec.answers = out.SubHits, out.SuperHits, len(out.Answer)
		rec.short = out.Short != core.NoShortCircuit
		rec.flushed = ig.Flushes() != flushes
		rec.filterDur, rec.cacheDur, rec.verifyDur = out.FilterDur, out.CacheDur, out.VerifyDur
		recs = append(recs, rec)
		chk.answered(i, in.ops[i], out.Answer)
	}
	return recs, nil
}

// replayGroup runs ops[:warm+n] — queries in both modes and mutations —
// through a partition group and records the last n operations.
func replayGroup(grp *partition.Group, in inputs, bodies [][]byte, warm, n int, tr *tracer, chk *replayChecker) ([]queryRecord, error) {
	ctx := context.Background()
	flushCount := func() int {
		sub, _ := grp.Stats(partition.Sub)
		sup, _ := grp.Stats(partition.Super)
		return sub.Flushes + sup.Flushes
	}
	recs := make([]queryRecord, 0, n)
	for i := 0; i < warm+n; i++ {
		o := in.ops[i]
		measured := i >= warm
		t := tr
		if !measured {
			t = nil
		}
		if t != nil {
			t.request, t.on = i, true
		}
		rec := queryRecord{isQuery: o.kind == opQuery}
		flushes := 0
		if measured {
			flushes = flushCount()
		}
		t0 := time.Now()
		root := t.begin("request")
		var reply any
		var answer []int32
		switch o.kind {
		case opQuery:
			sp := t.begin("server.decode")
			g, mode, err := decodeQuery(bodies[i])
			t.end(sp)
			if err != nil {
				return nil, err
			}
			pm := partition.Sub
			if mode == server.ModeSuper {
				pm = partition.Super
			}
			sp = t.begin("partition.query")
			res, err := grp.QueryMode(ctx, pm, g)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			st := res.Stats
			rec.base, rec.dsTests, rec.cacheTests = st.BaseCandidates, st.DatasetIsoTests, st.CacheIsoTests
			rec.subHits, rec.superHits, rec.answers, rec.short = st.SubHits, st.SuperHits, len(res.IDs), st.AnsweredByCache
			reply, answer = server.QueryReply{IDs: res.IDs, Stats: st}, res.IDs
		default:
			sp := t.begin("server.decode")
			var req server.MutateRequest
			err := json.Unmarshal(bodies[i], &req)
			gs := make([]*igq.Graph, len(req.Graphs))
			for k := range req.Graphs {
				if err == nil {
					gs[k], err = server.DecodeGraph(req.Graphs[k])
				}
			}
			t.end(sp)
			if err != nil {
				return nil, err
			}
			if o.kind == opAdd {
				sp = t.begin("partition.add")
				err = grp.AddGraphs(ctx, gs)
			} else {
				sp = t.begin("partition.remove")
				err = grp.RemoveGraphs(ctx, req.Positions)
			}
			t.end(sp)
			if err != nil {
				return nil, err
			}
			chk.mutated(o)
			reply = server.MutateReply{DatasetSize: grp.NumGraphs()}
		}
		sp := t.begin("server.encode")
		_, err := json.Marshal(reply)
		t.end(sp)
		t.end(root)
		rec.wall = time.Since(t0)
		if err != nil {
			return nil, err
		}
		if measured {
			rec.flushed = flushCount() != flushes
			recs = append(recs, rec)
			if o.kind == opQuery {
				chk.answered(i, o, answer)
			}
		}
	}
	return recs, nil
}

// replayEngine runs ops[:warm+n] (queries only) through an engine and
// returns the wall time of each of the last n, plus the residency counters
// sampled around them.
func replayEngine(eng *igq.Engine, in inputs, warm, n int) (walls []time.Duration, faults, evictions int64, err error) {
	ctx := context.Background()
	for i := 0; i < warm+n; i++ {
		if i == warm {
			r := eng.Residency()
			faults, evictions = -r.Faults, -r.Evictions
		}
		t0 := time.Now()
		if _, err := eng.Query(ctx, in.ops[i].query); err != nil {
			return nil, 0, 0, err
		}
		if i >= warm {
			walls = append(walls, time.Since(t0))
		}
	}
	r := eng.Residency()
	return walls, faults + r.Faults, evictions + r.Evictions, nil
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }

// medianUS is the median, in microseconds, of one duration per record.
func medianUS(recs []queryRecord, pick func(queryRecord) time.Duration) float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = float64(pick(r)) / float64(time.Microsecond)
	}
	return median(out)
}

func sumWall(recs []queryRecord) time.Duration {
	var s time.Duration
	for _, r := range recs {
		s += r.wall
	}
	return s
}

// perLayerNames is every per-layer metric, with its unit. A traced run
// reports all of them; the ones a workload does not exercise (or that are
// not measured on it, see README) are 0.
var perLayerNames = [][2]string{
	{"server.decode_us", "us"}, {"server.encode_us", "us"}, {"server.http_overhead_us", "us"}, {"server.mutate_ms", "ms"},
	{"features.enumerate_us", "us"}, {"features.ids_per_query", "count"},
	{"core.lookup_us", "us"}, {"core.short_circuit_ratio", "ratio"}, {"core.sub_hits_per_query", "count"},
	{"core.super_hits_per_query", "count"}, {"core.cache_iso_tests_per_query", "count"},
	{"core.iso_tests_avoided_ratio", "ratio"}, {"core.flushes", "count"}, {"core.flush_ms", "ms"},
	{"index.filter_us", "us"}, {"index.ggsx_filter_us", "us"}, {"index.base_candidates_per_query", "count"},
	{"index.filter_precision", "ratio"}, {"index.build_s", "s"}, {"index.size_bytes", "bytes"},
	{"index.add_us_per_graph", "us"}, {"index.remove_us_per_graph", "us"},
	{"iso.verify_us_per_test", "us"}, {"iso.dataset_tests_per_query", "count"}, {"iso.verify_share", "ratio"},
	{"trie.shard_faults_per_query", "count"}, {"trie.evictions_per_query", "count"}, {"trie.overlay_replays", "count"},
	{"trie.fault_ms", "ms"}, {"trie.resident_bytes", "bytes"}, {"trie.resident_bytes_full", "bytes"},
	{"partition.overhead_us", "us"}, {"partition.add_us_per_graph", "us"},
	{"persist.save_s", "s"}, {"persist.snapshot_bytes", "bytes"}, {"persist.load_eager_s", "s"}, {"persist.load_lazy_s", "s"},
	{"persist.journal_append_us", "us"}, {"persist.journal_bytes_per_graph", "bytes"},
	{"trace.overhead_ratio", "ratio"},
	{"share.server", "ratio"}, {"share.features", "ratio"}, {"share.core", "ratio"}, {"share.index", "ratio"},
	{"share.iso", "ratio"}, {"share.trie", "ratio"}, {"share.partition", "ratio"},
}

// countMetrics fills the metrics that are pure functions of the seed.
func countMetrics(res *result, recs []queryRecord) {
	var q, short, base, ds, cache, sub, sup, answers, flushes, ids float64
	var flushWall time.Duration
	for _, r := range recs {
		if r.flushed {
			flushes++
			flushWall += r.wall
		}
		if !r.isQuery {
			continue
		}
		q++
		if r.short {
			short++
		}
		base += float64(r.base)
		ds += float64(r.dsTests)
		cache += float64(r.cacheTests)
		sub += float64(r.subHits)
		sup += float64(r.superHits)
		answers += float64(r.answers)
		ids += float64(r.featureIDs)
	}
	if q == 0 {
		return
	}
	res.set("features.ids_per_query", ids/q, "count")
	res.set("core.short_circuit_ratio", short/q, "ratio")
	res.set("core.sub_hits_per_query", sub/q, "count")
	res.set("core.super_hits_per_query", sup/q, "count")
	res.set("core.cache_iso_tests_per_query", cache/q, "count")
	res.set("core.flushes", flushes, "count")
	if flushes > 0 {
		res.set("core.flush_ms", float64(flushWall)/float64(time.Millisecond)/flushes, "ms")
	}
	res.set("index.base_candidates_per_query", base/q, "count")
	res.set("iso.dataset_tests_per_query", ds/q, "count")
	if base > 0 {
		res.set("core.iso_tests_avoided_ratio", 1-ds/base, "ratio")
		res.set("index.filter_precision", answers/base, "ratio")
	}
}

// runTraced produces the per-layer metrics of one workload.
func runTraced(cfg runConfig, s spec) (result, error) {
	res := newResult(cfg, s, true)
	for _, nu := range perLayerNames {
		res.set(nu[0], 0, nu[1])
	}
	in := generate(s, cfg.sc, cfg.seed, s.traceWU+s.traceN)
	bodies, err := wireBodies(in)
	if err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "trace-"+s.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	tr := newTracer()
	chk := &replayChecker{in: in, live: map[int]bool{}, every: max(1, s.traceN/cfg.sc.of(50))}
	run := &traceRun{cfg: cfg, s: s, in: in, bodies: bodies, dir: dir, tr: tr, chk: chk, res: &res, extra: map[string][]int64{}}
	var traced, plain []queryRecord
	if s.partitions > 1 {
		traced, plain, err = run.partitioned()
	} else {
		traced, plain, err = run.single()
	}
	if err != nil {
		return res, err
	}
	extra := run.extra

	countMetrics(&res, traced)
	res.set("server.decode_us", median(tr.durationsUS("server.decode")), "us")
	res.set("server.encode_us", median(tr.durationsUS("server.encode")), "us")
	// The median of per-operation ratios: the two replays run seconds apart,
	// and a ratio of sums would mostly report how the machine drifted.
	ratios := make([]float64, len(traced))
	for i := range traced {
		ratios[i] = float64(traced[i].wall) / float64(plain[i].wall)
	}
	res.set("trace.overhead_ratio", median(ratios), "ratio")

	rows := layerReport(tr.spans, extra)
	for _, r := range rows {
		res.set("share."+r.Layer, r.Share, "ratio")
	}
	fmt.Fprintf(os.Stderr, "== %s: per-layer self time over %d traced operations\n", s.name, len(traced))
	printLayerReport(os.Stderr, rows)
	if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+s.name+".jsonl"), tr.spans); err != nil {
		return res, err
	}

	res.Correct = chk.wrong == 0
	res.Attempted = len(traced) + len(plain)
	res.Failed = chk.wrong
	res.Extra["checked_answers"] = float64(chk.checked)
	return res, nil
}

// traceRun is what the parts of one traced run share.
type traceRun struct {
	cfg    runConfig
	s      spec
	in     inputs
	bodies [][]byte // the operations as a client would send them
	dir    string   // scratch for snapshots and journals
	tr     *tracer
	chk    *replayChecker
	res    *result
	extra  map[string][]int64 // per-layer self time measured outside the span timeline
}

// single covers the single-engine workloads.
func (t *traceRun) single() (traced, plain []queryRecord, err error) {
	cfg, s, in, bodies, res := t.cfg, t.s, t.in, t.bodies, t.res
	shards := 0
	if s.lazy {
		shards = lazyShards
	}
	opt := igq.EngineOptions{CacheSize: cacheSize, Window: windowSize, Shards: shards}
	eng, m, buildDur, err := builtEngine(in.db, opt)
	if err != nil {
		return nil, nil, err
	}
	res.set("index.build_s", buildDur.Seconds(), "s")
	size, _ := eng.IndexSizeBytes()
	res.set("index.size_bytes", float64(size), "bytes")

	if traced, err = replaySingle(m, in, bodies, shards, s.traceWU, s.traceN, t.tr, t.chk); err != nil {
		return nil, nil, err
	}
	if plain, err = replaySingle(m, in, bodies, shards, s.traceWU, s.traceN, nil, nil); err != nil {
		return nil, nil, err
	}
	for i := range traced {
		if traced[i].dsTests != plain[i].dsTests || traced[i].answers != plain[i].answers {
			return nil, nil, fmt.Errorf("traced and untraced replays diverge at operation %d", s.traceWU+i)
		}
	}

	// Timing metrics come from the replay with spans off.
	res.set("features.enumerate_us", medianUS(traced, func(r queryRecord) time.Duration { return r.featureDur }), "us")
	res.set("core.lookup_us", medianUS(plain, func(r queryRecord) time.Duration { return r.cacheDur }), "us")
	res.set("index.filter_us", medianUS(plain, func(r queryRecord) time.Duration { return r.filterDur }), "us")
	var verify time.Duration
	tests := 0
	for _, r := range plain {
		verify += r.verifyDur
		tests += r.dsTests
	}
	if tests > 0 {
		res.set("iso.verify_us_per_test", float64(verify)/float64(time.Microsecond)/float64(tests), "us")
	}
	res.set("iso.verify_share", float64(verify)/float64(sumWall(plain)), "ratio")

	// The lazy workload's run goes to persistence and the lazy trie instead
	// of the wire, GGSX and write-path measurements: they need no snapshot,
	// and the other single-engine workloads already report them.
	if s.lazy {
		return traced, plain, t.lazy(eng, opt)
	}
	sample := in.ops[s.traceWU : s.traceWU+min(s.traceN, cfg.sc.of(300))]
	sampleBodies := bodies[s.traceWU : s.traceWU+len(sample)]
	overhead, err := httpOverhead(eng, sample, sampleBodies)
	if err != nil {
		return nil, nil, err
	}
	res.set("server.http_overhead_us", overhead, "us")

	_, ggsx, _, err := builtEngine(in.db, igq.EngineOptions{Method: igq.GGSX, DisableCache: true})
	if err != nil {
		return nil, nil, err
	}
	var ggsxUS []float64
	for _, o := range sample {
		t0 := time.Now()
		ggsx.Filter(o.query)
		ggsxUS = append(ggsxUS, usSince(t0))
	}
	res.set("index.ggsx_filter_us", median(ggsxUS), "us")

	return traced, plain, t.mutationCosts(eng)
}

// httpOverhead is the median cost of the wire path around a query: a round
// trip through Server.Handler() minus the same query through Engine.Query,
// both bypassing the cache so neither path's work depends on the other's.
func httpOverhead(eng *igq.Engine, sample []op, bodies [][]byte) (float64, error) {
	srv, err := server.New(server.Config{Engine: eng, Workers: serverWorkers})
	if err != nil {
		return 0, err
	}
	h := srv.Handler()
	ctx := context.Background()
	var direct, wire []float64
	for i, o := range sample {
		var req server.QueryRequest
		if err := json.Unmarshal(bodies[i], &req); err != nil {
			return 0, err
		}
		req.NoCache, req.NoAdmit = true, true
		body, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		// Each path twice, keeping the second: the first touch of a query
		// warms the processor's caches for whichever path runs next, and
		// that effect is larger than the wire cost being measured.
		for pass := 0; pass < 2; pass++ {
			t0 := time.Now()
			if _, err := eng.Query(ctx, o.query, igq.WithoutCache(), igq.WithoutAdmission()); err != nil {
				return 0, err
			}
			d := usSince(t0)
			t0 = time.Now()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			w := usSince(t0)
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
			}
			if pass == 1 {
				direct, wire = append(direct, d), append(wire, w)
			}
		}
	}
	// The median of per-query differences, not the difference of medians:
	// query cost varies a hundredfold, the wire cost hardly at all.
	diffs := make([]float64, len(wire))
	for i := range wire {
		diffs[i] = wire[i] - direct[i]
	}
	return median(diffs), nil
}

// mutationCosts measures the write path on a single engine: O(delta) index
// maintenance per graph and the delta-journal append that persists it. It
// runs last on eng — the engine's dataset changes.
func (t *traceRun) mutationCosts(eng *igq.Engine) error {
	in, dir, res := t.in, t.dir, t.res
	ctx := context.Background()
	lineage := filepath.Join(dir, "index.idx")
	if err := igq.SaveIndexFile(lineage, eng); err != nil {
		return err
	}
	base, err := os.Stat(lineage)
	if err != nil {
		return err
	}
	const rounds = 8
	var addUS, removeUS, appendUS []float64
	graphs := 0
	f, err := os.OpenFile(lineage, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	for r := 0; r < rounds; r++ {
		batch := make([]*igq.Graph, mutationBatch)
		for k := range batch {
			g := in.db[(r*mutationBatch+k)%len(in.db)].Clone()
			g.ID = 2*freshIDBase + r*mutationBatch + k
			batch[k] = g
		}
		n := len(eng.Dataset())
		t0 := time.Now()
		if err := eng.AddGraphs(ctx, batch); err != nil {
			return err
		}
		addUS = append(addUS, usSince(t0)/mutationBatch)
		t0 = time.Now()
		if err := eng.AppendIndexDelta(f); err != nil {
			return err
		}
		appendUS = append(appendUS, usSince(t0))
		graphs += mutationBatch
		if r%2 == 1 {
			positions := make([]int, mutationBatch)
			for k := range positions {
				positions[k] = n + k
			}
			t0 = time.Now()
			if err := eng.RemoveGraphs(ctx, positions); err != nil {
				return err
			}
			removeUS = append(removeUS, usSince(t0)/mutationBatch)
		}
	}
	after, err := f.Stat()
	if err != nil {
		return err
	}
	res.set("index.add_us_per_graph", median(addUS), "us")
	res.set("index.remove_us_per_graph", median(removeUS), "us")
	res.set("persist.journal_append_us", median(appendUS), "us")
	res.set("persist.journal_bytes_per_graph", float64(after.Size()-base.Size())/float64(graphs), "bytes")
	return nil
}

// lazy measures persistence and the lazy trie: save, eager and lazy
// restore, and the same queries through a fully resident lazy engine and
// through one held under the workload's byte budget. The difference between
// the two replays is time spent faulting shards in.
func (t *traceRun) lazy(fresh *igq.Engine, opt igq.EngineOptions) error {
	s, in, res := t.s, t.in, t.res
	snap := filepath.Join(t.dir, "engine.snap")
	t0 := time.Now()
	if err := igq.SaveEngineFile(snap, fresh); err != nil {
		return err
	}
	res.set("persist.save_s", time.Since(t0).Seconds(), "s")
	st, err := os.Stat(snap)
	if err != nil {
		return err
	}
	res.set("persist.snapshot_bytes", float64(st.Size()), "bytes")

	t0 = time.Now()
	if _, _, err := igq.LoadEngineFile(snap, in.db, opt); err != nil {
		return err
	}
	res.set("persist.load_eager_s", time.Since(t0).Seconds(), "s")

	full, _, err := igq.LoadEngineFile(snap, in.db, opt, igq.WithLazyLoad(0))
	if err != nil {
		return err
	}
	defer full.Close()
	fullWalls, _, _, err := replayEngine(full, in, s.traceWU, s.traceN)
	if err != nil {
		return err
	}
	if r := full.Residency(); r.ResidentShards != r.TotalShards {
		return errors.New("the replay did not touch every shard; resident_bytes_full would be short")
	}
	res.set("trie.resident_bytes_full", float64(full.Residency().ResidentBytes), "bytes")

	t0 = time.Now()
	lazy, _, err := igq.LoadEngineFile(snap, in.db, opt, igq.WithLazyLoad(s.lazyBudget))
	if err != nil {
		return err
	}
	res.set("persist.load_lazy_s", time.Since(t0).Seconds(), "s")
	defer lazy.Close()
	lazyWalls, faults, evictions, err := replayEngine(lazy, in, s.traceWU, s.traceN)
	if err != nil {
		return err
	}
	var over time.Duration
	for i := range lazyWalls {
		d := max(lazyWalls[i]-fullWalls[i], 0)
		over += d
		t.extra["trie"] = append(t.extra["trie"], int64(d))
	}
	n := float64(len(lazyWalls))
	r := lazy.Residency()
	res.set("trie.shard_faults_per_query", float64(faults)/n, "count")
	res.set("trie.evictions_per_query", float64(evictions)/n, "count")
	res.set("trie.overlay_replays", float64(r.OverlayReplays), "count")
	res.set("trie.resident_bytes", float64(r.ResidentBytes), "bytes")
	if faults > 0 {
		res.set("trie.fault_ms", float64(over)/float64(time.Millisecond)/float64(faults), "ms")
	}
	return nil
}

// partitioned covers the partitioned, mutating workload. The replay
// goes through a partition.Group built as igqserve -partitions N -super
// builds it.
func (t *traceRun) partitioned() (traced, plain []queryRecord, err error) {
	cfg, s, in, bodies, res := t.cfg, t.s, t.in, t.bodies, t.res
	opt := partition.Options{
		Partitions: s.partitions, Super: true,
		Engine: igq.EngineOptions{CacheSize: cacheSize, Window: windowSize},
	}
	t0 := time.Now()
	grp, err := partition.New(in.db, opt)
	if err != nil {
		return nil, nil, err
	}
	res.set("index.build_s", time.Since(t0).Seconds(), "s")
	size, _ := grp.SizeBytes()
	res.set("index.size_bytes", float64(size), "bytes")
	if traced, err = replayGroup(grp, in, bodies, s.traceWU, s.traceN, t.tr, t.chk); err != nil {
		return nil, nil, err
	}
	grp2, err := partition.New(in.db, opt)
	if err != nil {
		return nil, nil, err
	}
	if plain, err = replayGroup(grp2, in, bodies, s.traceWU, s.traceN, nil, nil); err != nil {
		return nil, nil, err
	}

	var mutMS []float64
	for _, r := range plain {
		if !r.isQuery {
			mutMS = append(mutMS, float64(r.wall)/float64(time.Millisecond))
		}
	}
	res.set("server.mutate_ms", median(mutMS), "ms")
	res.set("partition.add_us_per_graph", median(t.tr.durationsUS("partition.add"))/mutationBatch, "us")

	// Scatter/merge cost: the same cache-free subgraph queries through the
	// group and through one engine over the undivided dataset.
	eng, _, _, err := builtEngine(in.db, opt.Engine)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	var single, group []float64
	for _, o := range in.ops[s.traceWU:] {
		if o.kind != opQuery || o.mode != server.ModeSub || len(single) >= cfg.sc.of(300) {
			continue
		}
		t0 := time.Now()
		if _, err := eng.Query(ctx, o.query, igq.WithoutCache()); err != nil {
			return nil, nil, err
		}
		single = append(single, usSince(t0))
		t0 = time.Now()
		if _, err := grp2.QueryMode(ctx, partition.Sub, o.query, igq.WithoutCache()); err != nil {
			return nil, nil, err
		}
		group = append(group, usSince(t0))
	}
	res.set("partition.overhead_us", median(group)-median(single), "us")
	return traced, plain, t.mutationCosts(eng)
}
