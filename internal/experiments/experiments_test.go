package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index/ggsx"
	"repro/internal/workload"
)

// testCfg keeps experiment tests fast.
func testCfg() Config { return Config{Scale: 0.25, Seed: 7} }

func TestRegistryComplete(t *testing.T) {
	wantIDs := []string{
		"table1",
		"fig1", "fig2", "fig3",
		"fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"supergraph-speedup",
	}
	for _, id := range wantIDs {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(wantIDs) {
		t.Errorf("registry holds %d experiments, want >= %d", len(All()), len(wantIDs))
	}
}

func TestAllOrdering(t *testing.T) {
	all := All()
	// table1 first, figures in numeric order, extensions last
	if all[0].ID != "table1" {
		t.Errorf("first experiment = %q", all[0].ID)
	}
	idx := map[string]int{}
	for i, e := range all {
		idx[e.ID] = i
	}
	if idx["fig2"] > idx["fig10"] {
		t.Error("fig2 should sort before fig10 (numeric, not lexicographic)")
	}
	if idx["supergraph-speedup"] < idx["fig18"] {
		t.Error("extensions should sort after figures")
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("fig99"); ok {
		t.Error("unknown id found")
	}
}

func TestTable1Output(t *testing.T) {
	e, _ := ByID("table1")
	var buf bytes.Buffer
	if err := e.Run(testCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"AIDS", "PDBS", "PPI", "Synthetic", "avg.deg", "40000"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Output(t *testing.T) {
	e, _ := ByID("fig2")
	var buf bytes.Buffer
	if err := e.Run(testCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"GGSX", "Grapes", "CT-Index", "avg.candidates", "avg.falsepos"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig9TrendMonotone(t *testing.T) {
	// the α-sensitivity trend is the paper's clearest claim; assert it
	// holds at test scale: speedup(α=2.0) > speedup(α=1.1)
	cfg := testCfg()
	grid, _ := runZipfGrid(cfg)
	lo := grid[1.1].isoTestSpeedup()
	hi := grid[2.0].isoTestSpeedup()
	if !(hi > lo) {
		t.Errorf("speedup not increasing with skew: α=1.1 → %.2f, α=2.0 → %.2f", lo, hi)
	}
	for _, alpha := range []float64{1.1, 1.4, 2.0} {
		if s := grid[alpha].isoTestSpeedup(); s < 1.0 {
			t.Errorf("α=%.1f: iGQ slower than baseline (%.2f)", alpha, s)
		}
	}
}

func TestFig10Output(t *testing.T) {
	e, _ := ByID("fig10")
	var buf bytes.Buffer
	if err := e.Run(testCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Q4", "whole", "PPI"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig10 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig18Output(t *testing.T) {
	// fig18 at reduced scale: sizes must be positive and larger configs
	// bigger than defaults
	cfg := Config{Scale: 0.1, Seed: 7}
	e, _ := ByID("fig18")
	var buf bytes.Buffer
	if err := e.Run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"GGSX", "Grapes", "CT-Index", "iGQ", "overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig18 output missing %q", want)
		}
	}
}

func TestRunnerPairAnswersAgree(t *testing.T) {
	// the runner must measure without changing results: baseline answer
	// count equals iGQ answer count per query position
	cfg := testCfg()
	spec := scaledAIDS(cfg)
	db := dataset.Generate(spec)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	qs := workload.Generate(db, workload.Spec{
		NumQueries: 60, GraphDist: workload.Zipf, NodeDist: workload.Uniform,
		Alpha: 1.4, Seed: 11,
	})
	pr := runPair(m, db, qs, 10, core.Options{CacheSize: 30, Window: 10})
	if len(pr.Base) != len(pr.IGQ) {
		t.Fatalf("metric lengths differ: %d vs %d", len(pr.Base), len(pr.IGQ))
	}
	for i := range pr.Base {
		if pr.Base[i].Answers != pr.IGQ[i].Answers {
			t.Fatalf("query %d: baseline %d answers, iGQ %d", i, pr.Base[i].Answers, pr.IGQ[i].Answers)
		}
		if pr.IGQ[i].IsoTests > pr.Base[i].IsoTests {
			t.Fatalf("query %d: iGQ ran MORE tests (%d > %d)", i, pr.IGQ[i].IsoTests, pr.Base[i].IsoTests)
		}
	}
	if s := pr.isoTestSpeedup(); s < 1.0 {
		t.Errorf("aggregate iso speedup %.2f < 1", s)
	}
}

func TestRunnerBySize(t *testing.T) {
	pr := pairResult{
		Base: []queryMetrics{{SizeClass: 4, IsoTests: 10}, {SizeClass: 8, IsoTests: 20}},
		IGQ:  []queryMetrics{{SizeClass: 4, IsoTests: 5}, {SizeClass: 8, IsoTests: 10}},
	}
	groups := pr.bySize()
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if s := groups[4].isoTestSpeedup(); s != 2 {
		t.Errorf("Q4 speedup = %v", s)
	}
}

func TestAvgOf(t *testing.T) {
	ms := []queryMetrics{{IsoTests: 2}, {IsoTests: 4}}
	if got := avgOf(ms, func(m queryMetrics) float64 { return float64(m.IsoTests) }); got != 3 {
		t.Errorf("avgOf = %v", got)
	}
	if got := avgOf(nil, func(m queryMetrics) float64 { return 1 }); got != 0 {
		t.Errorf("avgOf(nil) = %v", got)
	}
}

func TestBaselineMetricsConsistent(t *testing.T) {
	cfg := testCfg()
	db := dataset.Generate(scaledAIDS(cfg))
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	qs := workload.Generate(db, workload.Spec{
		NumQueries: 30, GraphDist: workload.Uniform, NodeDist: workload.Uniform, Seed: 5,
	})
	for i, qm := range runBaseline(m, qs) {
		if qm.IsoTests != qm.Candidates {
			t.Fatalf("query %d: tests %d != candidates %d", i, qm.IsoTests, qm.Candidates)
		}
		if qm.Answers+qm.FalsePos != qm.Candidates {
			t.Fatalf("query %d: answers %d + FPs %d != candidates %d",
				i, qm.Answers, qm.FalsePos, qm.Candidates)
		}
		if qm.Answers == 0 {
			t.Fatalf("query %d: extraction guarantees >=1 answer", i)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1.0 || c.Seed == 0 {
		t.Errorf("defaults: %+v", c)
	}
	if got := c.scaled(100, 10); got != 100 {
		t.Errorf("scaled(100) = %d", got)
	}
	small := Config{Scale: 0.01, Seed: 1}
	if got := small.scaled(100, 10); got != 10 {
		t.Errorf("floor not applied: %d", got)
	}
}
