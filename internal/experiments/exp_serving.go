package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	igq "repro"
	"repro/internal/server"
	"repro/internal/stats"
)

// Extension experiment (serving): the network front-end end to end. An
// engine pair (subgraph + supergraph) is served over a real loopback HTTP
// listener and driven by a concurrent mixed workload through both the
// unary and the NDJSON streaming endpoints; the table reports throughput
// and tail latency per phase. The run is a gate, not just a report — it
// fails (non-nil error, so CI can stop on it) if any request errors, any
// wire answer diverges from a direct cache-free engine, or the graceful
// shutdown's snapshot restores to an engine whose answers differ.
func init() {
	register(Experiment{
		ID:    "serving",
		Title: "Network serving: concurrent mixed workload over HTTP, drain + snapshot gate (extension)",
		Run:   runServing,
	})
}

// servingWorkers is both the server's execution-slot count and the number
// of concurrent clients of the unary phase.
const servingWorkers = 8

func runServing(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	db := igq.GenerateDataset(igq.AIDSSpec().Scaled(0.002*cfg.Scale, 1))
	queries := igq.GenerateWorkload(db, igq.WorkloadSpec{
		NumQueries: cfg.scaled(120, 40),
		GraphDist:  igq.Zipf, NodeDist: igq.Zipf,
		Alpha: 1.4, Seed: cfg.Seed + 11000,
	})
	requests := cfg.scaled(2000, 400)

	opt := igq.EngineOptions{Method: igq.Grapes, CacheSize: 60, Window: 15}
	eng, err := igq.NewEngine(db, opt)
	if err != nil {
		return err
	}

	// Cache-free oracles; the served engines must agree with them on every
	// request regardless of cache timing.
	subOracle, err := igq.NewEngine(db, igq.EngineOptions{Method: igq.Grapes, DisableCache: true})
	if err != nil {
		return err
	}
	superOracle, err := igq.NewEngine(db, igq.EngineOptions{Supergraph: true, DisableCache: true})
	if err != nil {
		return err
	}
	ctx := context.Background()
	wantSub := make([][]int32, len(queries))
	wantSuper := make([][]int32, len(queries))
	for i, q := range queries {
		rs, err := subOracle.Query(ctx, q)
		if err != nil {
			return err
		}
		wantSub[i] = rs.IDs
		rp, err := superOracle.Query(ctx, q)
		if err != nil {
			return err
		}
		wantSuper[i] = rp.IDs
	}

	snapDir, err := os.MkdirTemp("", "igq-serving-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(snapDir)
	snapPath := filepath.Join(snapDir, "engine.snap")

	s, err := server.New(server.Config{
		Engine: eng, Super: true,
		Workers: servingWorkers, SnapshotPath: snapPath,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	client := server.NewClient("http://" + l.Addr().String())

	tb := stats.NewTable("phase", "requests", "errors", "queries/s", "p50", "p99")

	// Phase 1: unary mixed sub/super, servingWorkers concurrent clients.
	var failures atomic.Int64
	latencies := make([]time.Duration, requests)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for wk := 0; wk < servingWorkers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(requests) {
					return
				}
				qi := int(i) % len(queries)
				mode, want := server.ModeSub, wantSub[qi]
				if i%2 == 1 {
					mode, want = server.ModeSuper, wantSuper[qi]
				}
				t := time.Now()
				reply, err := client.QueryGraph(ctx, queries[qi], mode)
				if err != nil || !sameIDs(reply.IDs, want) {
					if cfg.Verbose {
						fmt.Fprintf(w, "request %d (%s): err=%v got=%v want=%v\n", i, mode, err, reply.IDs, want)
					}
					failures.Add(1)
					continue
				}
				latencies[i] = time.Since(t)
			}
		}()
	}
	wg.Wait()
	unaryDur := time.Since(t0)
	p50, p99 := latencyQuantiles(latencies)
	tb.AddRow("unary mixed", fmt.Sprint(requests), fmt.Sprint(failures.Load()),
		fmt.Sprintf("%.0f", float64(requests)/unaryDur.Seconds()), fmtDur(p50), fmtDur(p99))
	if n := failures.Load(); n > 0 {
		fmt.Fprint(w, tb.String())
		return fmt.Errorf("serving: %d unary requests failed or diverged", n)
	}

	// Phase 2: one NDJSON stream carrying every query, answers checked.
	streamReqs := len(queries)
	in := make(chan server.QueryRequest)
	go func() {
		defer close(in)
		for _, q := range queries {
			in <- server.QueryRequest{Graph: server.EncodeGraph(q)}
		}
	}()
	t1 := time.Now()
	replies, errc := client.QueryStream(ctx, server.ModeSub, 0, in)
	streamFail := 0
	answered := 0
	for r := range replies {
		answered++
		if r.Error != "" || r.Index >= len(queries) || !sameIDs(r.IDs, wantSub[r.Index]) {
			streamFail++
		}
	}
	if err := <-errc; err != nil {
		return fmt.Errorf("serving: stream: %w", err)
	}
	streamDur := time.Since(t1)
	tb.AddRow("stream sub", fmt.Sprint(answered), fmt.Sprint(streamFail),
		fmt.Sprintf("%.0f", float64(answered)/streamDur.Seconds()), "-", "-")
	if streamFail > 0 || answered != streamReqs {
		fmt.Fprint(w, tb.String())
		return fmt.Errorf("serving: stream answered %d/%d with %d failures", answered, streamReqs, streamFail)
	}

	// Phase 3: graceful shutdown, then the snapshot must restore an engine
	// answering exactly like the live one did.
	shCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shCtx); err != nil {
		return fmt.Errorf("serving: shutdown: %w", err)
	}
	if err, ok := <-serveErr; ok && err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("serving: serve: %w", err)
	}
	loaded, _, err := igq.LoadEngineFile(snapPath, db, opt)
	if err != nil {
		return fmt.Errorf("serving: restoring shutdown snapshot: %w", err)
	}
	for i, q := range queries {
		res, err := loaded.Query(ctx, q)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res.IDs, wantSub[i]) {
			return fmt.Errorf("serving: restored engine diverges on query %d", i)
		}
	}
	tb.AddRow("restored snapshot", fmt.Sprint(len(queries)), "0", "-", "-", "-")
	fmt.Fprint(w, tb.String())
	fmt.Fprintf(w, "gate: %d wire requests + %d streamed + snapshot restore, all answers identical to direct engines\n",
		requests, streamReqs)
	return nil
}

func sameIDs(got, want []int32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func latencyQuantiles(all []time.Duration) (p50, p99 time.Duration) {
	ok := make([]time.Duration, 0, len(all))
	for _, d := range all {
		if d > 0 {
			ok = append(ok, d)
		}
	}
	if len(ok) == 0 {
		return 0, 0
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	return ok[int(0.50*float64(len(ok)-1))], ok[int(0.99*float64(len(ok)-1))]
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Microsecond).String()
}
