package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	igq "repro"
	"repro/internal/partition"
)

// Config configures a Server. Its serving back-end is one partition group;
// a single-engine deployment sets Engine (and Super) instead of Group.
type Config struct {
	// Group is what every request reads and writes: queries scatter-gather
	// across its partitions and answer with global graph IDs sorted
	// ascending, mutations route to the owning partition by graph ID, and
	// SnapshotPath/DeltaPath name its lineage (partition.PartPath: the paths
	// themselves for one partition, base.p0, base.p1, ... for more).
	Group *partition.Group
	// Engine stands in for Group: New serves it as a group of one
	// (partition.Of), answering supergraph queries (mode "super") too when
	// Super is set. Exactly one of Group and Engine is set, and Super goes
	// with Engine only — a Group serves mode "super" by its own
	// partition.Options.Super.
	Engine *igq.Engine
	Super  bool

	// Workers bounds how many queries execute concurrently across all
	// requests and streams (0 → one per runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth is how many additional /query requests may wait for an
	// execution slot before the server answers 429 (0 → 4×Workers).
	// Admission is all the server ever buffers: there are no unbounded
	// goroutines behind a burst.
	QueueDepth int

	// DefaultTimeout applies to requests that set no timeout_ms;
	// MaxTimeout clamps what a request may ask for. Zero means unlimited.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// SnapshotPath, when set, is where POST /save and graceful shutdown
	// write the combined engine snapshot of every partition (atomically,
	// via Group.SaveAll).
	SnapshotPath string
	// DeltaPath, when set, is the index-snapshot lineage (seeded by
	// igq.SaveIndexFile) that receives O(delta) journal appends after every
	// mutation and periodic maintenance compaction. A partition whose file
	// does not exist is skipped.
	DeltaPath string
	// MaintainEvery is the journal-maintenance timer period (0 disables
	// the timer; maintenance still runs once during Shutdown).
	MaintainEvery time.Duration

	// Logf receives serving-lifecycle log lines (nil discards them).
	Logf func(format string, args ...any)
}

// Server serves a partition group over HTTP. The admission model is two
// nested semaphores: an admission queue of Workers+QueueDepth slots taken
// non-blockingly (a full queue answers 429 immediately — the server never
// buffers unboundedly) and Workers execution slots taken blockingly under
// the request context. Streaming requests bypass the 429 path: they
// acquire execution slots per query and let TCP flow control push back on
// the sender instead.
type Server struct {
	cfg     Config
	maxBody int64 // maxRequestBytes; tests lower it

	queue chan struct{} // admission slots: Workers+QueueDepth
	run   chan struct{} // execution slots: Workers

	mux     *http.ServeMux
	hs      *http.Server
	mutMu   sync.Mutex // serialises mutation endpoints and saves
	stopped chan struct{}
	bgOnce  sync.Once // StartBackground runs at most once

	started     time.Time
	served      atomic.Int64
	rejected    atomic.Int64
	errCount    atomic.Int64
	maintPasses atomic.Int64
	saves       atomic.Int64
}

// New validates cfg and builds a ready-to-Serve server.
func New(cfg Config) (*Server, error) {
	if (cfg.Engine == nil) == (cfg.Group == nil) || (cfg.Group != nil && cfg.Super) {
		return nil, errors.New("server: set exactly one of Config.Group and Config.Engine (Config.Super goes with Engine)")
	}
	if cfg.Engine != nil {
		g, err := partition.Of(cfg.Engine, cfg.Super)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		cfg.Group = g
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		maxBody: maxRequestBytes,
		queue:   make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		run:     make(chan struct{}, cfg.Workers),
		mux:     http.NewServeMux(),
		stopped: make(chan struct{}),
		started: time.Now(),
	}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /query/stream", s.handleQueryStream)
	s.mux.HandleFunc("POST /graphs/add", s.handleAdd)
	s.mux.HandleFunc("POST /graphs/remove", s.handleRemove)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /save", s.handleSave)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.hs = &http.Server{Handler: s.mux}
	return s, nil
}

// Slots returns the execution-slot count and the admission queue depth
// the server runs with, defaults resolved.
func (s *Server) Slots() (workers, queueDepth int) { return s.cfg.Workers, s.cfg.QueueDepth }

// Handler exposes the route table (tests drive it through httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It also starts the
// journal-maintenance timer when one is configured. Returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	s.StartBackground()
	s.cfg.Logf("serving on %s (workers=%d queue=%d)", l.Addr(), s.cfg.Workers, s.cfg.QueueDepth)
	return s.hs.Serve(l)
}

// StartBackground starts the journal-maintenance timer (when configured)
// without serving. Serve calls it; bind-first deployments that expose
// Handler through their own http.Server (behind a Warming front door) call
// it once the engine is live. Idempotent.
func (s *Server) StartBackground() {
	s.bgOnce.Do(func() {
		if s.cfg.MaintainEvery > 0 && s.cfg.DeltaPath != "" {
			go s.maintenanceLoop()
		}
	})
}

// Shutdown drains gracefully: new connections are refused, in-flight
// requests (including streams) run to completion under ctx's grace period,
// and only then does the server persist what it earned — a final journal
// maintenance pass on the delta lineage and an atomic combined snapshot to
// SnapshotPath. Queries therefore never race the shutdown snapshot.
func (s *Server) Shutdown(ctx context.Context) error {
	close(s.stopped)
	if err := s.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("server: draining: %w", err)
	}
	if s.cfg.DeltaPath != "" {
		if _, err := s.maintain(); err != nil {
			return fmt.Errorf("server: shutdown journal maintenance: %w", err)
		}
	}
	if s.cfg.SnapshotPath != "" {
		if err := s.save(); err != nil {
			return fmt.Errorf("server: shutdown snapshot: %w", err)
		}
		s.cfg.Logf("shutdown snapshot saved to %s", s.cfg.SnapshotPath)
	}
	return nil
}

// save writes one combined engine snapshot per partition under the
// SnapshotPath base.
func (s *Server) save() error {
	err := s.cfg.Group.SaveAll(s.cfg.SnapshotPath)
	if err == nil {
		s.saves.Add(1)
	}
	return err
}

// maintenanceLoop drives periodic journal maintenance until Shutdown.
func (s *Server) maintenanceLoop() {
	t := time.NewTicker(s.cfg.MaintainEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopped:
			return
		case <-t.C:
			if changed, err := s.maintain(); err != nil {
				s.cfg.Logf("journal maintenance: %v", err)
			} else if changed {
				s.cfg.Logf("journal maintenance compacted %s", s.cfg.DeltaPath)
			}
		}
	}
}

// maintain runs one journal maintenance pass over the delta lineage (one
// file per partition): pending mutations are appended, and over-threshold
// journal debt is compacted even when nothing is pending (the
// idle-compaction hook).
func (s *Server) maintain() (bool, error) {
	changed, err := s.cfg.Group.MaintainDeltas(s.cfg.DeltaPath)
	if err == nil && changed {
		s.maintPasses.Add(1)
	}
	return changed, err
}

// modeOf parses a wire mode. Whether the group serves it is QueryMode's
// call (partition.ErrModeNotServed).
func modeOf(mode string) (igq.Mode, error) {
	switch mode {
	case "", ModeSub:
		return igq.SubgraphQueries, nil
	case ModeSuper:
		return igq.SupergraphQueries, nil
	}
	return 0, fmt.Errorf("unknown mode %q", mode)
}

// requestCtx maps the wire deadline onto context cancellation.
func (s *Server) requestCtx(parent context.Context, timeoutMillis int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMillis > 0 {
		d = time.Duration(timeoutMillis) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (d == 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// admit takes one admission slot without blocking; false means the server
// is saturated and the caller must answer 429.
func (s *Server) admit() bool {
	select {
	case s.queue <- struct{}{}:
		return true
	default:
		s.rejected.Add(1)
		return false
	}
}

// acquireRun blocks for an execution slot under ctx.
func (s *Server) acquireRun(ctx context.Context) error {
	select {
	case s.run <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.admit() {
		writeError(w, http.StatusTooManyRequests, "admission queue full")
		return
	}
	defer func() { <-s.queue }()
	var req QueryRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	mode, err := modeOf(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	g, err := DecodeGraph(req.Graph)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding graph: "+err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r.Context(), req.TimeoutMillis)
	defer cancel()
	if err := s.acquireRun(ctx); err != nil {
		writeQueryError(w, err)
		return
	}
	res, err := s.cfg.Group.QueryMode(ctx, mode, g, queryOptions(req)...)
	<-s.run
	s.served.Add(1)
	if err != nil {
		s.errCount.Add(1)
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, QueryReply{IDs: nonNil(res.IDs), Stats: res.Stats})
}

// queryOptions maps wire flags to per-call query options.
func queryOptions(req QueryRequest) []igq.QueryOption {
	var opts []igq.QueryOption
	if req.NoCache {
		opts = append(opts, igq.WithoutCache())
	}
	if req.NoAdmit {
		opts = append(opts, igq.WithoutAdmission())
	}
	return opts
}

// handleQueryStream is the NDJSON streaming endpoint: one QueryRequest per
// request-body line, one QueryReply per response line, emitted in
// completion order (Index is the arrival order). The whole stream runs in
// one mode (the ?mode= query parameter; per-line Mode values must agree).
// Flow control is physical: each query holds one of the server's execution
// slots from acceptance to reply, so a stream can never occupy more than
// Workers slots, and a sender that outruns the server blocks in TCP rather
// than growing a queue. A query that fails (deadline, poisoned graph)
// yields an error line; the stream and the server keep going. A malformed
// line terminates the stream after an error line, since line framing
// itself is no longer trustworthy.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	wireMode := r.URL.Query().Get("mode")
	mode, err := modeOf(wireMode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var timeoutMillis int64
	if tm := r.URL.Query().Get("timeout_ms"); tm != "" {
		if _, err := fmt.Sscanf(tm, "%d", &timeoutMillis); err != nil {
			writeError(w, http.StatusBadRequest, "bad timeout_ms")
			return
		}
	}
	ctx, cancel := s.requestCtx(r.Context(), timeoutMillis)
	defer cancel()

	// The stream reads request lines while writing reply lines; HTTP/1 is
	// half-duplex by default and invalidates the body on the first response
	// write without this.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		writeError(w, http.StatusInternalServerError, "streaming unsupported: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	in := make(chan *igq.Graph)
	var fed atomic.Int64
	feedDone := make(chan struct{})
	feedProblem := make(chan QueryReply, 1) // the line that broke the stream, if any
	go func() {
		defer close(feedDone)
		defer close(in)
		dec := json.NewDecoder(r.Body)
		for line := 0; ; line++ {
			var req QueryRequest
			if err := dec.Decode(&req); err != nil {
				if !errors.Is(err, io.EOF) {
					feedProblem <- QueryReply{Index: line, Error: "decoding stream line: " + err.Error()}
				}
				return
			}
			if req.Mode != "" && req.Mode != wireMode && !(req.Mode == ModeSub && wireMode == "") {
				feedProblem <- QueryReply{Index: line, Error: fmt.Sprintf("stream is mode %q, line asks %q", orSub(wireMode), req.Mode)}
				return
			}
			g, err := DecodeGraph(req.Graph)
			if err != nil {
				feedProblem <- QueryReply{Index: line, Error: "decoding graph: " + err.Error()}
				return
			}
			if err := s.acquireRun(ctx); err != nil {
				return // deadline/disconnect; workers drain what was accepted
			}
			select {
			case in <- g:
				fed.Add(1)
			case <-ctx.Done():
				<-s.run // the slot we just took never fed a query
				return
			}
		}
	}()

	emitted := int64(0)
	writable := true
	// QueryStream's contract: the output must be drained until it closes.
	// A client write failure therefore cancels the stream and keeps
	// consuming (discarding) results instead of abandoning the channel.
	for br := range s.cfg.Group.QueryStream(ctx, mode, in, s.cfg.Workers) {
		<-s.run // this query's slot, held since acceptance
		emitted++
		s.served.Add(1)
		reply := QueryReply{Index: br.Index, IDs: nonNil(br.Result.IDs), Stats: br.Result.Stats}
		if br.Err != nil {
			s.errCount.Add(1)
			reply = QueryReply{Index: br.Index, Error: br.Err.Error()}
		}
		if !writable {
			continue
		}
		if err := enc.Encode(reply); err != nil {
			writable = false
			cancel()
			continue
		}
		_ = rc.Flush()
	}
	// Slots for queries accepted but never emitted (a cancelled stream's
	// unread tail). fed is final once the feeder exits — or once ctx is
	// done, after which acquireRun refuses the feeder (it may still sit in
	// a body read; returning tears the request down and unblocks it).
	select {
	case <-feedDone:
	case <-ctx.Done():
	}
	for released := emitted; released < fed.Load(); released++ {
		<-s.run
	}
	if writable {
		select {
		case prob := <-feedProblem:
			_ = enc.Encode(prob)
		default:
		}
	}
}

func orSub(mode string) string {
	if mode == "" {
		return ModeSub
	}
	return mode
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	gs := make([]*igq.Graph, len(req.Graphs))
	for i, wg := range req.Graphs {
		g, err := DecodeGraph(wg)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding graph %d: %v", i, err))
			return
		}
		gs[i] = g
	}
	s.mutate(w, func() error { return s.cfg.Group.AddGraphs(r.Context(), gs) })
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	s.mutate(w, func() error { return s.cfg.Group.RemoveGraphs(r.Context(), req.Positions) })
}

// mutate applies one dataset mutation and the O(delta) journal append to
// the lineage every mutation owes. The group routes the mutation to the
// owning partitions, whose engines maintain their index and the caches of
// both query modes in one call, and journals each partition's lineage.
func (s *Server) mutate(w http.ResponseWriter, apply func() error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if err := apply(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.cfg.DeltaPath != "" {
		if err := s.cfg.Group.AppendDeltas(s.cfg.DeltaPath); err != nil {
			// The mutation is live; only its persistence lagged. Surface
			// loudly but keep serving — the maintenance timer retries.
			s.cfg.Logf("journal append after mutation: %v", err)
		}
	}
	writeJSON(w, http.StatusOK, MutateReply{DatasetSize: s.cfg.Group.NumGraphs()})
}

func (s *Server) serverStats() ServerStats {
	return ServerStats{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Served:         s.served.Load(),
		Rejected:       s.rejected.Load(),
		Errors:         s.errCount.Load(),
		InFlight:       len(s.run),
		Workers:        s.cfg.Workers,
		QueueDepth:     s.cfg.QueueDepth,
		Maintenance:    s.maintPasses.Load(),
		SnapshotsSaved: s.saves.Load(),
		Partitions:     s.cfg.Group.Partitions(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	g := s.cfg.Group
	reply := StatsReply{Server: s.serverStats(), Partitions: g.PartitionStats()}
	reply.Sub, _ = g.Stats(partition.Sub)
	if sup, ok := g.Stats(partition.Super); ok {
		reply.Super = &sup
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleMetrics renders the same counters in the flat `name value` text
// form scrapers expect.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	ss := s.serverStats()
	fmt.Fprintf(w, "igq_uptime_seconds %g\n", ss.UptimeSeconds)
	fmt.Fprintf(w, "igq_requests_served_total %d\n", ss.Served)
	fmt.Fprintf(w, "igq_requests_rejected_total %d\n", ss.Rejected)
	fmt.Fprintf(w, "igq_query_errors_total %d\n", ss.Errors)
	fmt.Fprintf(w, "igq_queries_in_flight %d\n", ss.InFlight)
	fmt.Fprintf(w, "igq_maintenance_writes_total %d\n", ss.Maintenance)
	fmt.Fprintf(w, "igq_snapshots_saved_total %d\n", ss.SnapshotsSaved)
	g := s.cfg.Group
	if st, ok := g.Stats(partition.Sub); ok {
		emitEngineMetrics(w, "sub", st)
	}
	if st, ok := g.Stats(partition.Super); ok {
		emitEngineMetrics(w, "super", st)
	}
	fmt.Fprintf(w, "igq_partitions %d\n", g.Partitions())
	for i, ps := range g.PartitionStats() {
		fmt.Fprintf(w, "igq_partition_graphs{part=\"%d\"} %d\n", i, ps.Graphs)
		fmt.Fprintf(w, "igq_partition_queries_total{part=\"%d\",mode=\"sub\"} %d\n", i, ps.Sub.Queries)
		fmt.Fprintf(w, "igq_partition_cache_answers_total{part=\"%d\",mode=\"sub\"} %d\n", i, ps.Sub.AnsweredByCache)
		fmt.Fprintf(w, "igq_partition_resident_bytes{part=\"%d\",mode=\"sub\"} %d\n", i, ps.Sub.ResidentBytes)
		if ps.Super != nil {
			fmt.Fprintf(w, "igq_partition_queries_total{part=\"%d\",mode=\"super\"} %d\n", i, ps.Super.Queries)
			fmt.Fprintf(w, "igq_partition_cache_answers_total{part=\"%d\",mode=\"super\"} %d\n", i, ps.Super.AnsweredByCache)
		}
	}
}

func emitEngineMetrics(w io.Writer, mode string, st igq.EngineStats) {
	fmt.Fprintf(w, "igq_engine_queries_total{mode=%q} %d\n", mode, st.Queries)
	fmt.Fprintf(w, "igq_engine_cache_answers_total{mode=%q} %d\n", mode, st.AnsweredByCache)
	fmt.Fprintf(w, "igq_engine_dataset_iso_tests_total{mode=%q} %d\n", mode, st.DatasetIsoTests)
	fmt.Fprintf(w, "igq_engine_cache_iso_tests_total{mode=%q} %d\n", mode, st.CacheIsoTests)
	fmt.Fprintf(w, "igq_engine_sub_hits_total{mode=%q} %d\n", mode, st.SubHits)
	fmt.Fprintf(w, "igq_engine_super_hits_total{mode=%q} %d\n", mode, st.SuperHits)
	fmt.Fprintf(w, "igq_engine_panics_total{mode=%q} %d\n", mode, st.Panics)
	fmt.Fprintf(w, "igq_engine_cached_queries{mode=%q} %d\n", mode, st.CachedQueries)
	fmt.Fprintf(w, "igq_engine_window_pending{mode=%q} %d\n", mode, st.WindowPending)
	fmt.Fprintf(w, "igq_engine_flushes_total{mode=%q} %d\n", mode, st.Flushes)
	fmt.Fprintf(w, "igq_engine_base_memo_renewals_total{mode=%q} %d\n", mode, st.MemoRenewals)
	// Residency gauges of a lazily loaded index (all zero when eager); a
	// scrape never decodes anything. The shard-named gauges keep their
	// names and are segment-granular: total_shards is the snapshot's
	// segments, resident_shards the segments with an open offset
	// directory; resident_bytes is the decoded lists, shard_faults list
	// decodes, shard_evictions lists evicted.
	lazy := 0
	if st.LazyLoaded {
		lazy = 1
	}
	fmt.Fprintf(w, "igq_engine_lazy{mode=%q} %d\n", mode, lazy)
	fmt.Fprintf(w, "igq_engine_total_shards{mode=%q} %d\n", mode, st.TotalShards)
	fmt.Fprintf(w, "igq_engine_resident_shards{mode=%q} %d\n", mode, st.ResidentShards)
	fmt.Fprintf(w, "igq_engine_resident_bytes{mode=%q} %d\n", mode, st.ResidentBytes)
	fmt.Fprintf(w, "igq_engine_lazy_budget_bytes{mode=%q} %d\n", mode, st.LazyBudgetBytes)
	fmt.Fprintf(w, "igq_engine_shard_faults_total{mode=%q} %d\n", mode, st.ShardFaults)
	fmt.Fprintf(w, "igq_engine_shard_evictions_total{mode=%q} %d\n", mode, st.ShardEvictions)
}

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotPath == "" {
		writeError(w, http.StatusBadRequest, "no snapshot path configured")
		return
	}
	// Saves and mutations exclude each other: a partition snapshot taken
	// mid-routed-mutation would mix generations across partition files.
	s.mutMu.Lock()
	err := s.save()
	s.mutMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"path": s.cfg.SnapshotPath})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// writeQueryError maps a query-path failure to its HTTP status: an expired
// deadline is 504 (the server is healthy; the query ran out of time), a mode
// the group does not serve is 400, a contained panic is 500 (the query was
// poisoned; the server kept serving), anything else 500.
func writeQueryError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, partition.ErrModeNotServed) {
		status = http.StatusBadRequest
	} else if errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusGatewayTimeout
	} else if errors.Is(err, context.Canceled) {
		status = 499 // client closed request (nginx convention)
	}
	writeError(w, status, err.Error())
}

// maxRequestBytes bounds the body of a unary request (/query, /graphs/add,
// /graphs/remove): the JSON decoder buffers a whole request, so an
// unbounded body read from the network could take any amount of memory.
const maxRequestBytes = 64 << 20

// decodeRequest decodes the JSON body of a unary request into v, reading
// at most s.maxBody bytes of it. On failure it writes the error reply —
// 413 when the body is over the bound, 400 otherwise — and reports false.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "decoding request: "+err.Error())
	return false
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorReply{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// nonNil keeps empty answers as [] rather than null on the wire.
func nonNil(ids []int32) []int32 {
	if ids == nil {
		return []int32{}
	}
	return ids
}
