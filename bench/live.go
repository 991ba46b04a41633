package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	igq "repro"
	"repro/internal/server"
)

const (
	requestTimeout = 30 * time.Second
	retryBudget    = 100 // 429/503 back-offs per request before it counts as failed
	timedSegments  = 4   // the timed phase runs in this many segments, a calibration slice around each
	clockTicksHz   = 100 // USER_HZ: the unit of utime/stime in /proc/<pid>/stat
)

// serverProc is one igqserve child.
type serverProc struct {
	cmd      *exec.Cmd
	client   *server.Client
	log      *os.File
	waitExit chan struct{} // closed once the child has been reaped
}

// startServer execs igqserve and polls POST /query with probe until the
// first 200. The returned duration — exec to first answer — is one setup_s
// sample: it covers the dataset load and the index build (or the snapshot
// restore plus the first query's shard faults).
func startServer(bin string, args []string, probe *igq.Graph, logPath string) (*serverProc, time.Duration, error) {
	// Bind-and-release picks a free loopback port without depending on the
	// server's log format.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive a harness that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait()
		close(exited)
	}()
	sp := &serverProc{cmd: cmd, client: server.NewClient("http://" + addr), log: logf, waitExit: exited}
	req := server.QueryRequest{Graph: server.EncodeGraph(probe)}
	for {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		reply, err := sp.client.Query(ctx, req)
		cancel()
		if err == nil && reply.Error == "" {
			return sp, time.Since(start), nil
		}
		var apiErr *server.APIError
		if errors.As(err, &apiErr) || (err == nil && reply.Error != "") {
			sp.stop()
			return nil, 0, fmt.Errorf("probe query failed: %v %s", err, reply.Error)
		}
		select {
		case <-exited:
			sp.stop()
			return nil, 0, fmt.Errorf("igqserve exited during start-up (see %s)", logPath)
		default:
		}
		if time.Since(start) > 2*time.Minute {
			sp.stop()
			return nil, 0, errors.New("igqserve not ready after 2 minutes")
		}
		// Connection refused (not bound yet) or 503 warming: poll finely,
		// so setup_s is not quantised by the server's Retry-After of 1 s.
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the child and waits until it has ended. SIGKILL, not a drain:
// shutdown is not measured, and a graceful exit would rewrite the snapshot
// the next start of the same run restores from.
func (sp *serverProc) stop() {
	sp.cmd.Process.Kill()
	<-sp.waitExit
	sp.log.Close()
}

// procCPU returns the process's user+system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis. utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicksHz, nil
}

// procPeakRSS returns the process's resident-set high-water mark in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loop is the closed-loop load generator: `clients` goroutines share one
// operation stream, and each sends its next operation only after the reply
// to its previous one — the callers being modelled are jobs that wait for
// their answers, and an open loop would only turn overload into 429s.
type loop struct {
	in      inputs
	client  *server.Client
	clients int

	latMS   []float64 // per op; valid where ok
	ok      []bool
	added   []atomic.Bool
	removed []atomic.Bool
	addDone []chan struct{} // closed when the batch's add has returned

	retried atomic.Int64
	failed  atomic.Int64
}

func newLoop(in inputs, client *server.Client, clients int) *loop {
	lp := &loop{
		in: in, client: client, clients: clients,
		latMS: make([]float64, len(in.ops)), ok: make([]bool, len(in.ops)),
		added: make([]atomic.Bool, len(in.batches)), removed: make([]atomic.Bool, len(in.batches)),
		addDone: make([]chan struct{}, len(in.batches)),
	}
	for i := range lp.addDone {
		lp.addDone[i] = make(chan struct{})
	}
	return lp
}

// call runs one request, absorbing back-pressure the way a real caller
// does: 429 with jittered exponential back-off, 503 by polling. The
// back-off time is part of the operation's latency.
func (lp *loop) call(rng *rand.Rand, fn func(ctx context.Context) error) error {
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		err := fn(ctx)
		cancel()
		var unavail *server.UnavailableError
		switch {
		case errors.Is(err, server.ErrQueueFull):
			time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		case errors.As(err, &unavail):
			time.Sleep(10 * time.Millisecond)
		default:
			return err
		}
		lp.retried.Add(1)
		if attempt >= retryBudget {
			return fmt.Errorf("still refused after %d retries: %w", retryBudget, err)
		}
	}
}

func (lp *loop) query(rng *rand.Rand, q *igq.Graph, mode string) (server.QueryReply, error) {
	var reply server.QueryReply
	req := server.QueryRequest{Graph: server.EncodeGraph(q), Mode: mode}
	err := lp.call(rng, func(ctx context.Context) (err error) {
		reply, err = lp.client.Query(ctx, req)
		return err
	})
	if err == nil && reply.Error != "" {
		err = errors.New(reply.Error)
	}
	return reply, err
}

func (lp *loop) exec(rng *rand.Rand, i int) error {
	o := lp.in.ops[i]
	switch o.kind {
	case opAdd:
		defer close(lp.addDone[o.batch])
		err := lp.call(rng, func(ctx context.Context) error {
			_, err := lp.client.AddGraphs(ctx, lp.in.batches[o.batch])
			return err
		})
		if err == nil {
			lp.added[o.batch].Store(true)
		}
		return err
	case opRemove:
		// Clients draw operations in order, so the add was drawn first;
		// it may still be in flight on the other connection.
		<-lp.addDone[o.batch]
		if !lp.added[o.batch].Load() {
			return errors.New("batch was never added")
		}
		ids := make([]int, len(lp.in.batches[o.batch]))
		for k, g := range lp.in.batches[o.batch] {
			ids[k] = g.ID
		}
		err := lp.call(rng, func(ctx context.Context) error {
			_, err := lp.client.RemoveGraphs(ctx, ids)
			return err
		})
		if err == nil {
			lp.removed[o.batch].Store(true)
		}
		return err
	default:
		_, err := lp.query(rng, o.query, o.mode)
		return err
	}
}

// run executes ops[lo:hi) in the closed loop, stopping early once deadline
// (if non-zero) has passed. It returns the end of the executed range and
// the wall time.
func (lp *loop) run(lo, hi int, deadline time.Time) (int, time.Duration) {
	var next atomic.Int64
	next.Store(int64(lo))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < lp.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				t0 := time.Now()
				err := lp.exec(rng, i)
				lp.latMS[i] = float64(time.Since(t0)) / float64(time.Millisecond)
				lp.ok[i] = err == nil
				if err != nil {
					if lp.failed.Add(1) <= 5 {
						fmt.Fprintf(os.Stderr, "bench: operation %d failed: %v\n", i, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return min(int(next.Load()), hi), time.Since(start)
}

// liveModel is the dataset the server should hold now: the generated graphs
// plus every batch whose add succeeded and whose remove did not.
func (lp *loop) liveModel() *model {
	gs := slices.Clone(lp.in.db)
	for b, batch := range lp.in.batches {
		if lp.added[b].Load() && !lp.removed[b].Load() {
			gs = append(gs, batch...)
		}
	}
	return newModel(gs)
}

// check re-issues a seeded sample of the executed queries against the
// still-warm server and compares every answer with the model's. It returns
// how many it attempted and how many were wrong or failed.
func (lp *loop) check(executed int, n int, seed int64, flip bool) (attempted, wrong int) {
	var queries []int
	for i := 0; i < executed; i++ {
		if lp.in.ops[i].kind == opQuery {
			queries = append(queries, i)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0xc4ec))
	rng.Shuffle(len(queries), func(a, b int) { queries[a], queries[b] = queries[b], queries[a] })
	queries = queries[:min(n, len(queries))]
	m := lp.liveModel()

	var bad atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < lp.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				k := int(next.Add(1) - 1)
				if k >= len(queries) {
					return
				}
				o := lp.in.ops[queries[k]]
				reply, err := lp.query(rng, o.query, o.mode)
				got := reply.IDs
				if flip && k == 0 {
					got = append(slices.Clone(got), -1) // the self-test hook: one wrong answer
				}
				want := m.answer(o.query, o.mode)
				if err != nil || !slices.Equal(got, want) {
					if bad.Add(1) <= 5 {
						fmt.Fprintf(os.Stderr, "bench: answer check: op %d mode %s: err=%v got %d ids, want %d\n",
							queries[k], o.mode, err, len(got), len(want))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return len(queries), int(bad.Load())
}

// serverArgs is the igqserve command line of a workload.
func serverArgs(s spec, dbPath, snapPath string) []string {
	args := []string{
		"-db", dbPath, "-method", "grapes", "-quiet",
		"-cache", strconv.Itoa(cacheSize), "-window", strconv.Itoa(windowSize),
		"-workers", strconv.Itoa(serverWorkers),
	}
	if s.partitions > 1 {
		args = append(args, "-partitions", strconv.Itoa(s.partitions), "-super")
	}
	if s.lazy {
		args = append(args, "-snapshot", snapPath, "-lazy", "-lazy-budget", strconv.FormatInt(s.lazyBudget, 10))
	}
	return args
}

// runLive measures the end-to-end metrics of one workload against a live
// igqserve: untimed prep, server start (setup_s), fixed-count warm-up, a
// timed phase of spec.timedOps(cfg.seconds) operations, then the answer
// check.
func runLive(cfg runConfig, s spec) (result, error) {
	res := newResult(cfg, s, false)
	timed := s.timedOps(cfg.seconds)
	in := generate(s, cfg.sc, cfg.seed, s.warmup+timed)

	dir, err := os.MkdirTemp(cfg.outDir, "run-"+s.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	dbPath, snapPath := filepath.Join(dir, "dataset.db"), filepath.Join(dir, "engine.snap")
	if err := igq.SaveGraphs(dbPath, in.db); err != nil {
		return res, err
	}
	if s.lazy {
		eng, err := igq.NewEngine(in.db, igq.EngineOptions{CacheSize: cacheSize, Window: windowSize, Shards: lazyShards})
		if err != nil {
			return res, err
		}
		if err := igq.SaveEngineFile(snapPath, eng); err != nil {
			return res, err
		}
	}

	// Several starts per run: setup_s is their median, and the last server
	// is the one measured. A calibration slice on either side (see calib.go).
	args := serverArgs(s, dbPath, snapPath)
	var sp *serverProc
	var setups []float64
	calibPre := calibrate(serverProcs, cfg.sc.div)
	for k := 0; k < s.setups; k++ {
		if sp != nil {
			sp.stop()
		}
		var d time.Duration
		sp, d, err = startServer(cfg.serverBin, args, in.probe, filepath.Join(cfg.outDir, "igqserve-"+s.name+".log"))
		if err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
	}
	defer sp.stop()
	pid := sp.cmd.Process.Pid
	setupFactor := speedFactor(calibPre, calibrate(serverProcs, cfg.sc.div))

	lp := newLoop(in, sp.client, cfg.clients)
	warmEnd, _ := lp.run(0, s.warmup, time.Time{})

	statsBefore, err := sp.client.Stats(context.Background())
	if err != nil {
		return res, err
	}
	failedBefore := lp.failed.Load()
	// The timed phase runs in segments with a calibration slice before,
	// between and after them; each segment's timings are brought to
	// reference speed by the two slices around it. The deadline only guards
	// the run's time limit on a machine far slower than the one the rates
	// were taken on.
	deadline := time.Now().Add(time.Duration(6 * cfg.seconds * float64(time.Second)))
	factorOf := make([]float64, len(in.ops)) // per timed operation
	var wallRaw, wallRef, cpuRaw, cpuRef, selfCPUs time.Duration
	end := warmEnd
	slice := calibrate(serverProcs, cfg.sc.div)
	slicesMS := []float64{float64(slice) / float64(time.Millisecond)}
	for k := 1; k <= timedSegments && end == warmEnd+(k-1)*timed/timedSegments; k++ {
		cpu0, err := procCPU(pid)
		if err != nil {
			return res, err
		}
		self0 := selfCPU()
		lo := end
		var wall time.Duration
		end, wall = lp.run(lo, warmEnd+k*timed/timedSegments, deadline)
		selfCPUs += selfCPU() - self0
		cpu1, err := procCPU(pid)
		if err != nil {
			return res, err
		}
		next := calibrate(serverProcs, cfg.sc.div)
		f := speedFactor(slice, next)
		slice = next
		slicesMS = append(slicesMS, float64(slice)/float64(time.Millisecond))
		for i := lo; i < end; i++ {
			factorOf[i] = f
		}
		wallRaw += wall
		wallRef += time.Duration(float64(wall) * f)
		cpuRaw += cpu1 - cpu0
		cpuRef += time.Duration(float64(cpu1-cpu0) * f)
	}
	rss, err := procPeakRSS(pid)
	if err != nil {
		return res, err
	}
	statsAfter, err := sp.client.Stats(context.Background())
	if err != nil {
		return res, err
	}
	if end < len(in.ops) {
		fmt.Fprintf(os.Stderr, "bench: %s: stopped at the deadline after %d of %d timed operations\n", s.name, end-warmEnd, timed)
	}

	var queryLat, rawQueryLat, mutLat []float64
	okOps, queries := 0, 0
	for i := warmEnd; i < end; i++ {
		isQuery := in.ops[i].kind == opQuery
		if isQuery {
			queries++
		}
		if !lp.ok[i] {
			continue
		}
		okOps++
		if isQuery {
			queryLat = append(queryLat, lp.latMS[i]*factorOf[i])
			rawQueryLat = append(rawQueryLat, lp.latMS[i])
		} else {
			mutLat = append(mutLat, lp.latMS[i]*factorOf[i])
		}
	}
	timedFailed := int(lp.failed.Load() - failedBefore)
	checked, wrong := lp.check(end, cfg.sc.of(checkSample), cfg.seed, cfg.flipAnswer)

	res.Attempted = (end - warmEnd) + checked
	res.Failed = timedFailed + wrong
	res.Correct = wrong == 0 && int(lp.failed.Load()) == 0
	if okOps == 0 || queries == 0 || len(queryLat) == 0 {
		return res, errors.New("no operation of the timed phase succeeded")
	}

	slices.Sort(queryLat)
	slices.Sort(rawQueryLat)
	delta := statsDelta(statsBefore, statsAfter)
	ops := float64(end - warmEnd)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// Timings at reference speed (calib.go); the raw ones follow below.
	res.set("setup_s", median(setups)*setupFactor, "s")
	res.set("qps", float64(okOps)/wallRef.Seconds(), "ops/s")
	res.set("p50_ms", percentile(queryLat, 0.50), "ms")
	res.set("p95_ms", percentile(queryLat, 0.95), "ms")
	res.set("iso_tests_per_query", float64(delta.IsoTests)/float64(queries), "count")
	res.set("cpu_ms_per_query", ms(cpuRef)/ops, "ms")
	res.set("peak_rss_mb", rss, "MB")

	// Context that explains the numbers above; recorded, not gated.
	res.Extra["machine_speed"] = wallRef.Seconds() / wallRaw.Seconds()
	res.Extra["calib_slice_ms"] = median(slicesMS)
	res.Extra["raw_setup_s"] = median(setups)
	res.Extra["raw_qps"] = float64(okOps) / wallRaw.Seconds()
	res.Extra["raw_p50_ms"] = percentile(rawQueryLat, 0.50)
	res.Extra["raw_p95_ms"] = percentile(rawQueryLat, 0.95)
	res.Extra["raw_cpu_ms_per_query"] = ms(cpuRaw) / ops
	res.Extra["timed_ops"] = ops
	res.Extra["timed_wall_s"] = wallRaw.Seconds()
	res.Extra["latency_samples"] = float64(len(queryLat))
	res.Extra["p99_ms"] = percentile(queryLat, 0.99)
	if hp := highestSupported(len(queryLat)); hp > 0 {
		res.Extra["highest_supported_percentile"] = hp * 100
		res.Extra["highest_supported_ms"] = percentile(queryLat, hp)
	}
	if len(mutLat) > 0 {
		res.Extra["mutations"] = float64(len(mutLat))
		res.Extra["mutate_p50_ms"] = median(mutLat)
	}
	res.Extra["rejected_429"] = float64(delta.Rejected429)
	res.Extra["client_retries"] = float64(lp.retried.Load())
	if delta.Queries > 0 {
		res.Extra["short_circuit_ratio"] = float64(delta.AnsweredByCache) / float64(delta.Queries)
	}
	res.Extra["flushes"] = float64(delta.Flushes)
	res.Extra["shard_faults_per_query"] = float64(delta.ShardFaults) / float64(queries)
	res.Extra["harness_cpus"] = selfCPUs.Seconds() / wallRaw.Seconds()
	res.Extra["checked_answers"] = float64(checked)
	for i, v := range setups {
		res.Extra[fmt.Sprintf("setup_s_%d", i)] = v
	}
	return res, nil
}
