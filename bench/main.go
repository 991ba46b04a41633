// Command bench is the repository's one committed benchmark: it generates a
// dataset and a request stream from a seed, starts the real igqserve binary
// as a child process, drives it over loopback HTTP in a closed loop, checks
// the answers against a brute-force model and prints every metric by name.
// A separate traced run replays the same stream in-process and times the
// calls into each layer from outside. See README.md.
//
// Usage (through run.sh, which builds this package inside the checkout):
//
//	bash bench/run.sh --workload sub-zipf --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1 [-repeat N] [-results FILE]   # all workloads, live and traced
//	bash bench/run.sh -smoke                                   # 200 graphs, all workloads, seconds
//	bash bench/run.sh compare A.json B.json                    # verdict per metric x workload
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// runConfig is one invocation's resolved settings.
type runConfig struct {
	root       string // repository root
	outDir     string // bench/out: traces, result files, server logs, per-run scratch
	serverBin  string
	seed       int64
	seconds    float64
	clients    int
	sc         scale
	flipAnswer bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the contract line plus context.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Extra     map[string]float64 `json:"extra,omitempty"` // context, not gated
	Counts    map[string]int     `json:"request_counts"`
}

func newResult(cfg runConfig, s spec, trace bool) result {
	return result{
		Workload: s.name, Seed: cfg.seed, Trace: trace,
		Metrics: map[string]metric{}, Extra: map[string]float64{},
		Counts: map[string]int{"warmup": s.warmup, "trace_warmup": s.traceWU, "trace_measured": s.traceN, "setups": s.setups},
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// contractLine is the last line of standard output: exactly these keys.
func (r result) contractLine() string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// environment pins what a result file was measured on.
type environment struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	NProc         int     `json:"nproc"`
	ServerProcs   int     `json:"server_gomaxprocs"`
	ServerWorkers int     `json:"server_workers"`
	Clients       int     `json:"clients"`
	Seconds       float64 `json:"seconds"`
	Smoke         bool    `json:"smoke"`
	Machine       string  `json:"machine"`
	Date          string  `json:"date"`
}

// resultFile is what -results writes and compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []result    `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		root     = fs.String("root", "", "repository root (default: found upwards from the working directory)")
		workload = fs.String("workload", "", "workload to run (default: all four, live then traced)")
		seed     = fs.Int64("seed", 1, "seed of the generated request stream")
		seconds  = fs.Float64("seconds", 10, "length of the timed phase")
		trace    = fs.Int("trace", 0, "0: live end-to-end run; 1: in-process traced run (per-layer metrics)")
		repeat   = fs.Int("repeat", 1, "run the whole set this many times (fresh server each)")
		results  = fs.String("results", "", "write every run to this JSON file (default bench/out/results.json when running a set)")
		clients  = fs.Int("clients", min(runtime.NumCPU(), 2), "closed-loop client connections")
		smoke    = fs.Bool("smoke", false, "tiny dataset and phases: exercises every workload in seconds")
		flip     = fs.Bool("selftest-flip-answer", false, "corrupt one checked answer (the run must then fail)")
	)
	fs.Parse(args)
	if *clients < 1 || *clients > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: %d clients on %d CPUs: the load generator would compete with itself; refusing\n", *clients, runtime.NumCPU())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, clients: *clients, sc: fullScale, flipAnswer: *flip}
	if *smoke {
		cfg.sc = smokeScale
		cfg.seconds = min(cfg.seconds, 1)
	}
	var err error
	if cfg.root, err = findRoot(*root); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg.outDir = filepath.Join(cfg.root, "bench", "out")
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// One workload, one mode: the contract form. The JSON object is the
	// last line of standard output; everything else goes to standard error.
	if *workload != "" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		res, err := runOne(&cfg, s, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printResult(os.Stderr, res)
		if *results != "" {
			if err := writeResults(*results, cfg, []result{res}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		fmt.Println(res.contractLine())
		if !res.Correct || res.Failed > 0 {
			return 1
		}
		return 0
	}

	// A whole set: every workload live and traced, -repeat times.
	var runs []result
	exit := 0
	for rep := 0; rep < *repeat; rep++ {
		for _, s := range specs {
			for _, traced := range []bool{false, true} {
				res, err := runOne(&cfg, s, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
					return 1
				}
				printResult(os.Stdout, res)
				if !res.Correct || res.Failed > 0 {
					exit = 1
				}
				runs = append(runs, res)
			}
		}
	}
	if *repeat > 1 {
		printSummary(os.Stdout, runs)
	}
	path := *results
	if path == "" {
		path = filepath.Join(cfg.outDir, "results.json")
	}
	if err := writeResults(path, cfg, runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	return exit
}

// runOne runs one workload live or traced, building igqserve on first use.
func runOne(cfg *runConfig, s spec, traced bool) (result, error) {
	s = cfg.sc.scaled(s)
	if traced {
		return runTraced(*cfg, s)
	}
	if cfg.serverBin == "" {
		bin, err := buildServer(cfg.root)
		if err != nil {
			return result{}, err
		}
		cfg.serverBin = bin
	}
	return runLive(*cfg, s)
}

// findRoot locates the repository: the directory holding cmd/igqserve.
func findRoot(flagValue string) (string, error) {
	if flagValue != "" {
		return filepath.Abs(flagValue)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "igqserve")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/igqserve above the working directory; pass -root")
		}
		dir = parent
	}
}

// buildServer compiles the program under test from the checkout's source.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "igqserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/igqserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building igqserve: %v\n%s", err, out)
	}
	return bin, nil
}

func currentEnv(cfg runConfig) environment {
	commit := "unknown" // a benchmark checkout is not a git repository
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	machine := runtime.GOOS + "/" + runtime.GOARCH
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				machine += " " + strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		if line, _, ok := strings.Cut(string(b), "\n"); ok {
			machine += ", " + strings.Join(strings.Fields(line), " ")
		}
	}
	return environment{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		ServerProcs: serverProcs, ServerWorkers: serverWorkers, Clients: cfg.clients,
		Seconds: cfg.seconds, Smoke: cfg.sc.smoke, Machine: machine,
		Date: time.Now().UTC().Format(time.RFC3339),
	}
}

func writeResults(path string, cfg runConfig, runs []result) error {
	b, err := json.MarshalIndent(resultFile{Env: currentEnv(cfg), Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResult prints one run: every metric by name with its unit.
func printResult(w *os.File, r result) {
	mode := "live"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d): correct=%v attempted=%d failed=%d error_rate=%g\n",
		r.Workload, mode, r.Seed, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(r.Extra) {
		fmt.Fprintf(tw, "  (%s)\t%.6g\t\n", name, r.Extra[name])
	}
	tw.Flush()
}
