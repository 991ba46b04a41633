package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's direction and the bound by which it may worsen.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// series collects each metric's values per workload over the runs of one
// mode (live or traced), in run order.
func series(runs []result, traced bool) (map[string]map[string][]float64, []string) {
	out := map[string]map[string][]float64{}
	var order []string
	for _, r := range runs {
		if r.Trace != traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, order
}

// printSummary prints, per metric x workload of a repeated set, the spread
// of the runs: min, quartiles, max, and the interquartile distance as a
// share of the median (the number the bounds are judged against).
func printSummary(w io.Writer, runs []result) {
	for _, traced := range []bool{false, true} {
		by, order := series(runs, traced)
		for _, wl := range order {
			mode := "live"
			if traced {
				mode = "traced"
			}
			fmt.Fprintf(w, "== summary %s (%s)\n", wl, mode)
			tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
			fmt.Fprintln(tw, "  metric\tn\tmin\tq1\tmedian\tq3\tmax\tiqr/median")
			for _, name := range sortedKeys(by[wl]) {
				xs := by[wl][name]
				s := sortedCopy(xs)
				q1, q2, q3 := quartiles(xs)
				fmt.Fprintf(tw, "  %s\t%d\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.4f\n",
					name, len(xs), s[0], q1, q2, q3, s[len(s)-1], spread(xs))
			}
			tw.Flush()
		}
	}
}

// verdict judges one end-to-end metric of one workload between a base and
// a candidate result set. worse is the candidate median's change in the bad
// direction as a share of the base median (negative = better).
func verdict(base, cand []float64, lowerIsBetter bool, bound float64) (worse float64, word string) {
	mb, mc := median(base), median(cand)
	if mb != 0 {
		worse = (mc - mb) / mb
		if !lowerIsBetter {
			worse = -worse
		}
	}
	switch {
	case spread(base) > bound || spread(cand) > bound:
		// The runs of one side disagree by more than the bound: a
		// difference of that size cannot be told from noise.
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	default:
		return worse, "within bound"
	}
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	return rf, json.Unmarshal(b, &rf)
}

// compareMain implements `bench compare BASE.json CANDIDATE.json`: for
// every end-to-end metric x workload it prints both medians, the change and
// a verdict against the bound fixed in BENCHMARK.json. Exit status 1 when
// anything regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	root := fs.String("root", "", "repository root (default: found upwards from the working directory)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json CANDIDATE.json")
		return 2
	}
	dir, err := findRoot(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: reading BENCHMARK.json:", err)
		return 2
	}
	base, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cand, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("base: %s (%s)\ncandidate: %s (%s)\n", base.Env.Commit, base.Env.Machine, cand.Env.Commit, cand.Env.Machine)
	bb, order := series(base.Runs, false)
	cb, _ := series(cand.Runs, false)
	exit := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tcandidate median\tworse by\tbound\tverdict")
	for _, wl := range order {
		for _, m := range bf.EndToEnd {
			xs, ys := bb[wl][m.Name], cb[wl][m.Name]
			if len(xs) == 0 || len(ys) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.3f\tmissing\n", wl, m.Name, m.Bound)
				continue
			}
			worse, word := verdict(xs, ys, m.Better == "lower", m.Bound)
			if word == "regressed" {
				exit = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%.1f%%\t%s\n",
				wl, m.Name, median(xs), m.Unit, median(ys), m.Unit, 100*worse, 100*m.Bound, word)
		}
	}
	tw.Flush()
	return exit
}
