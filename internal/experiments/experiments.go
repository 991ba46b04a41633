// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each experiment is addressable by the paper's figure or
// table number (e.g. "fig7", "table1"), prints an aligned text table with
// the same rows/series the paper plots, and is exercised both by the
// cmd/igqbench CLI and by the repository-level benchmarks.
//
// Scale: the paper's testbeds (512 GB Xeon servers, 40k-graph datasets,
// 3000-query workloads) are replaced by statistically matched scaled-down
// datasets (see package dataset and DESIGN.md). Config.Scale multiplies
// dataset and workload sizes; the default of 1.0 is the CI-friendly bench
// scale. Absolute numbers therefore differ from the paper; the comparisons
// the paper draws (who wins, by what factor, how trends move with skew,
// cache size and query size) are what these runners reproduce.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Scale multiplies dataset graph counts and workload lengths.
	// 1.0 = bench scale (default); larger approaches the paper's scale.
	Scale float64
	// Seed drives all data and workload generation.
	Seed int64
	// Verbose adds per-run progress lines to the output.
	Verbose bool
	// BuildWorkers is the index-build goroutine count of the coldstart,
	// incremental and lazyload experiments (0 = one per CPU).
	BuildWorkers int
	// SaveIndexPath, when set, makes the coldstart experiment keep its
	// index snapshots at this path prefix instead of a temp directory.
	SaveIndexPath string
	// LoadIndexPath, when set, makes the coldstart experiment load
	// pre-built snapshots from this path prefix (written by an earlier run
	// with SaveIndexPath) instead of building first.
	LoadIndexPath string
	// BenchJSONPath, when set, makes the containers experiment write its
	// measured rows and gate verdicts to this file as JSON (the CI
	// BENCH_containers.json artifact).
	BenchJSONPath string
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// scaled multiplies n by the scale factor with a floor.
func (c Config) scaled(n int, floor int) int {
	v := int(float64(n) * c.Scale)
	if v < floor {
		v = floor
	}
	return v
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the paper reference: "table1", "fig1", ..., "fig18", or an
	// extension id like "containers".
	ID string
	// Title is the paper's caption (abridged).
	Title string
	// Run executes the experiment and writes its table(s) to w.
	Run func(cfg Config, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment, sorted by ID (tableN first,
// figN numerically).
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey maps "table1" before "fig1".."fig18", extensions last.
func orderKey(id string) string {
	var n int
	switch {
	case len(id) > 5 && id[:5] == "table":
		fmt.Sscanf(id[5:], "%d", &n)
		return fmt.Sprintf("0-%02d", n)
	case len(id) > 3 && id[:3] == "fig":
		fmt.Sscanf(id[3:], "%d", &n)
		return fmt.Sprintf("1-%02d", n)
	default:
		return "2-" + id
	}
}

// ByID looks an experiment up by its ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order, separating outputs.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range All() {
		fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(cfg, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
