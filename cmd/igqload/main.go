// Command igqload drives a live igqserve instance with a concurrent query
// workload and reports throughput and tail latency — the serving stack's
// load generator and CI gate.
//
// Usage:
//
//	igqload -addr http://127.0.0.1:7468 -queries queries.db
//	        [-n 10000] [-c 16] [-mode mixed] [-stream]
//	        [-mutations 0 -mutate-every 50ms]
//	        [-timeout 30s] [-max-429-retries 100]
//
// -n requests are drawn round-robin from the query file and issued by -c
// concurrent workers. -mode sub|super|mixed selects the query direction
// (mixed alternates per request; super and mixed need a server started
// with -super). 429 responses — the server's bounded admission queue
// doing its job — are retried with backoff and counted separately, and so
// are 503 warming responses (the bind-first front door's Retry-After is
// honoured as the backoff); any other failure is an error. The exit
// status is non-zero if any request ultimately failed, so a CI job can
// gate on it directly.
//
// -mutations N interleaves N dataset mutations with the query load from a
// dedicated goroutine, alternating adds (small batches cloned from the
// query file under fresh IDs) with removals, paced by -mutate-every.
// Removals address the graphs this run added, by graph ID.
//
// -stream sends the workload through POST /query/stream on one NDJSON
// connection per worker instead of unary requests (per-line latency is
// not measured in this mode; QPS and the zero-error gate still are).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	igq "repro"
	"repro/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:7468", "server base URL")
		qPath   = flag.String("queries", "", "query file (required)")
		n       = flag.Int("n", 10000, "total requests")
		c       = flag.Int("c", 16, "concurrent workers")
		mode    = flag.String("mode", "sub", "query mode: sub | super | mixed")
		stream  = flag.Bool("stream", false, "use the NDJSON streaming endpoint")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		retries = flag.Int("max-429-retries", 100, "backoff retries per request on a full admission queue")
		muts    = flag.Int("mutations", 0, "dataset mutations to interleave with the query load")
		mutGap  = flag.Duration("mutate-every", 50*time.Millisecond, "pacing between mutations (needs -mutations)")
	)
	flag.Parse()
	if *qPath == "" {
		fatal("igqload: -queries is required")
	}
	switch *mode {
	case "sub", "super", "mixed":
	default:
		fatal("igqload: unknown mode %q", *mode)
	}
	queries, err := igq.LoadGraphs(*qPath)
	if err != nil {
		fatal("igqload: loading queries: %v", err)
	}
	if len(queries) == 0 {
		fatal("igqload: empty query file")
	}

	client := server.NewClient(*addr)
	waitHealthy(client)

	modeFor := func(i int) string {
		switch *mode {
		case "mixed":
			if i%2 == 1 {
				return server.ModeSuper
			}
			return server.ModeSub
		default:
			return *mode
		}
	}

	var (
		done      atomic.Int64
		failed    atomic.Int64
		rejected  atomic.Int64 // 429 retries, not errors
		latencies = make([]time.Duration, *n)
		next      atomic.Int64
	)
	t0 := time.Now()
	var wg sync.WaitGroup
	var mutOK, mutFailed atomic.Int64
	if *muts > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mutator(client, queries, *muts, *mutGap, *timeout, &mutOK, &mutFailed)
		}()
	}
	for w := 0; w < *c; w++ {
		wg.Add(1)
		if *stream {
			go func(worker int) {
				defer wg.Done()
				streamWorker(client, queries, modeFor, &next, int64(*n), *timeout, &done, &failed)
			}(w)
		} else {
			go func(worker int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(worker)))
				for {
					i := next.Add(1) - 1
					if i >= int64(*n) {
						return
					}
					q := queries[i%int64(len(queries))]
					lat, err := oneQuery(client, q, modeFor(int(i)), *timeout, *retries, rng, &rejected)
					if err != nil {
						failed.Add(1)
						fmt.Fprintf(os.Stderr, "igqload: request %d: %v\n", i, err)
					} else {
						latencies[i] = lat
					}
					done.Add(1)
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(t0)

	completed := done.Load()
	errCount := failed.Load() + mutFailed.Load()
	qps := float64(completed) / elapsed.Seconds()
	if *stream {
		fmt.Printf("igqload: n=%d mode=%s stream=true elapsed=%v qps=%.1f errors=%d\n",
			completed, *mode, elapsed.Round(time.Millisecond), qps, errCount)
	} else {
		ok := latencies[:0]
		for _, l := range latencies {
			if l > 0 {
				ok = append(ok, l)
			}
		}
		sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })
		p50, p99 := percentile(ok, 0.50), percentile(ok, 0.99)
		fmt.Printf("igqload: n=%d mode=%s elapsed=%v qps=%.1f p50=%v p99=%v retries429=%d errors=%d\n",
			completed, *mode, elapsed.Round(time.Millisecond), qps, p50, p99, rejected.Load(), errCount)
	}
	if *muts > 0 {
		fmt.Printf("igqload: mutations=%d ok=%d failed=%d\n", *muts, mutOK.Load(), mutFailed.Load())
	}
	if errCount > 0 {
		os.Exit(1)
	}
}

// oneQuery issues a single unary query, absorbing back-pressure with
// backoff: 429 (a bounded admission queue rejecting under burst) with
// jittered exponential backoff, 503 warming (the bind-first front door
// still loading the engine) by honouring its Retry-After hint. Neither is
// a failure — unless it never clears.
func oneQuery(client *server.Client, q *igq.Graph, mode string, timeout time.Duration, retries int, rng *rand.Rand, rejected *atomic.Int64) (time.Duration, error) {
	backoff := time.Millisecond
	start := time.Now()
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		reply, err := client.QueryGraph(ctx, q, mode)
		cancel()
		var unavail *server.UnavailableError
		switch {
		case err == nil:
			if reply.Error != "" {
				return 0, errors.New(reply.Error)
			}
			return time.Since(start), nil
		case errors.Is(err, server.ErrQueueFull):
			rejected.Add(1)
			if attempt >= retries {
				return 0, fmt.Errorf("queue full after %d retries", retries)
			}
			time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		case errors.As(err, &unavail):
			rejected.Add(1)
			if attempt >= retries {
				return 0, fmt.Errorf("still warming after %d retries", retries)
			}
			time.Sleep(unavail.RetryAfter)
		default:
			return 0, err
		}
	}
}

// mutator interleaves dataset mutations with the query load: adds (small
// batches cloned from the query file under fresh IDs) alternate with
// removals of the graphs this run added, by graph ID. Warming 503s back off
// like queries do; real failures count toward the exit status.
func mutator(client *server.Client, queries []*igq.Graph, n int, gap, timeout time.Duration, ok, failed *atomic.Int64) {
	const idBase = 10_000_000 // far above any generated dataset ID
	nextID := idBase
	var addedIDs []int // IDs this run added: the removal targets
	call := func(fn func(ctx context.Context) (server.MutateReply, error)) error {
		for attempt := 0; ; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			_, err := fn(ctx)
			cancel()
			var unavail *server.UnavailableError
			if errors.As(err, &unavail) && attempt < 50 {
				time.Sleep(unavail.RetryAfter)
				continue
			}
			return err
		}
	}
	for k := 0; k < n; k++ {
		if k > 0 {
			time.Sleep(gap)
		}
		if k%2 == 0 || len(addedIDs) == 0 {
			batch := make([]*igq.Graph, 2)
			for i := range batch {
				g := queries[(k+i)%len(queries)].Clone()
				g.ID = nextID
				nextID++
				batch[i] = g
			}
			err := call(func(ctx context.Context) (server.MutateReply, error) {
				return client.AddGraphs(ctx, batch)
			})
			if err != nil {
				failed.Add(1)
				fmt.Fprintf(os.Stderr, "igqload: mutation %d (add): %v\n", k, err)
				continue
			}
			for _, g := range batch {
				addedIDs = append(addedIDs, g.ID)
			}
			ok.Add(1)
			continue
		}
		target := addedIDs[0]
		addedIDs = addedIDs[1:]
		err := call(func(ctx context.Context) (server.MutateReply, error) {
			return client.RemoveGraphs(ctx, []int{target})
		})
		if err != nil {
			failed.Add(1)
			fmt.Fprintf(os.Stderr, "igqload: mutation %d (remove %d): %v\n", k, target, err)
			continue
		}
		ok.Add(1)
	}
}

// streamWorker pushes its share of the workload through one NDJSON stream.
// The stream holds execution slots as flow control, so there is nothing to
// retry — backpressure arrives as TCP pushback, not 429s.
func streamWorker(client *server.Client, queries []*igq.Graph, modeFor func(int) string, next *atomic.Int64, n int64, timeout time.Duration, done, failed *atomic.Int64) {
	// One stream runs one mode; a mixed workload alternates stream-by-
	// stream using the first index this worker draws.
	first := next.Add(1) - 1
	if first >= n {
		return
	}
	mode := modeFor(int(first))
	ctx, cancel := context.WithTimeout(context.Background(), 10*timeout)
	defer cancel()
	in := make(chan server.QueryRequest)
	go func() {
		defer close(in)
		i := first
		for {
			q := queries[i%int64(len(queries))]
			select {
			case in <- server.QueryRequest{Graph: server.EncodeGraph(q)}:
			case <-ctx.Done():
				return
			}
			i = next.Add(1) - 1
			if i >= n {
				return
			}
		}
	}()
	replies, errc := client.QueryStream(ctx, mode, timeout, in)
	for r := range replies {
		done.Add(1)
		if r.Error != "" {
			failed.Add(1)
			fmt.Fprintf(os.Stderr, "igqload: stream reply %d: %s\n", r.Index, r.Error)
		}
	}
	if err := <-errc; err != nil {
		failed.Add(1)
		fmt.Fprintf(os.Stderr, "igqload: stream (%s): %v\n", mode, err)
	}
}

// waitHealthy blocks until the server answers /healthz, so igqload can be
// started alongside igqserve without racing its index build.
func waitHealthy(client *server.Client) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := client.Healthz(ctx)
		cancel()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			fatal("igqload: server never became healthy: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func fatal(format string, args ...any) {
	fmt.Fprintln(os.Stderr, strings.TrimRight(fmt.Sprintf(format, args...), "\n"))
	os.Exit(1)
}
