// Command igqbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	igqbench -list
//	igqbench -experiment fig7
//	igqbench -experiment all -scale 2.0 -seed 7
//
// Each experiment prints an aligned text table with the same rows/series as
// the corresponding paper figure, plus a note describing the paper's shape
// for comparison. Scale 1.0 is the CI-friendly default; larger values
// approach the paper's dataset sizes at the cost of runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		expID   = flag.String("experiment", "", "experiment id (table1, fig1..fig18, or an extension such as containers; see -list) or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset/workload scale factor")
		seed    = flag.Int64("seed", 42, "random seed (full determinism per seed)")
		bwork   = flag.Int("buildworkers", 0, "index-build goroutines for the coldstart, incremental and lazyload experiments (0 = one per CPU)")
		saveIdx = flag.String("save-index", "", "directory to keep the coldstart experiment's index snapshots in (default: temp, discarded)")
		loadIdx = flag.String("load-index", "", "directory holding pre-built index snapshots for the coldstart experiment (written by an earlier -save-index run)")
		bjson   = flag.String("bench-json", "", "file to write the containers experiment's measurements to as JSON")
		list    = flag.Bool("list", false, "list available experiments and exit")
		verbose = flag.Bool("v", false, "verbose progress output")
	)
	flag.Parse()

	if *list || *expID == "" {
		fmt.Println("Available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		if *expID == "" && !*list {
			fmt.Println("\nrun with -experiment <id> or -experiment all")
		}
		return
	}

	cfg := experiments.Config{
		Scale: *scale, Seed: *seed, Verbose: *verbose,
		BuildWorkers:  *bwork,
		SaveIndexPath: *saveIdx, LoadIndexPath: *loadIdx,
		BenchJSONPath: *bjson,
	}

	if *expID == "all" {
		t0 := time.Now()
		if err := experiments.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "igqbench:", err)
			os.Exit(1)
		}
		fmt.Printf("all experiments completed in %v\n", time.Since(t0))
		return
	}

	e, ok := experiments.ByID(*expID)
	if !ok {
		fmt.Fprintf(os.Stderr, "igqbench: unknown experiment %q (use -list)\n", *expID)
		os.Exit(1)
	}
	fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
	t0 := time.Now()
	if err := e.Run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "igqbench:", err)
		os.Exit(1)
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(t0))
}
