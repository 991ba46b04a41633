package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke coverage for every registered experiment: each must run cleanly at
// a tiny scale and emit a non-trivial table. The cheap set always runs; the
// heavy set (CT-Index builds on PDBS-like graphs, full PDBS grids, dense
// Synthetic groups) is skipped under -short.

func smokeCfg() Config { return Config{Scale: 0.1, Seed: 3} }

func runSmoke(t *testing.T, id string, wants ...string) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(smokeCfg(), &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) < 40 {
		t.Fatalf("%s: suspiciously short output:\n%s", id, out)
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("%s: output missing %q", id, w)
		}
	}
}

func TestSmokeFig7(t *testing.T)  { runSmoke(t, "fig7", "zipf-zipf", "GGSX", "CT-Index") }
func TestSmokeFig12(t *testing.T) { runSmoke(t, "fig12", "zipf-zipf", "Grapes(6)") }
func TestSmokeFig14(t *testing.T) { runSmoke(t, "fig14", "cache.C", "time.speedup") }
func TestSmokeFig15(t *testing.T) { runSmoke(t, "fig15", "zipf.alpha", "speedup") }
func TestSmokeFig16(t *testing.T) { runSmoke(t, "fig16", "Q4", "whole") }
func TestSmokeSupergraphSpeedup(t *testing.T) {
	runSmoke(t, "supergraph-speedup", "uni-uni", "isotest.speedup")
}
func TestSmokeServing(t *testing.T) {
	runSmoke(t, "serving", "unary mixed", "stream sub", "restored snapshot", "identical")
}
func TestSmokeContainers(t *testing.T) {
	// A failing perf gate surfaces as a run error, so this smoke also
	// exercises the ≥2× shrink / ≥3× speedup gates at the scaled-down size.
	runSmoke(t, "containers", "dense", "sparse", "shrink", "speedup")
}

func TestSmokeHeavyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment smoke skipped in -short mode")
	}
	runSmoke(t, "fig1", "filter%", "verify%")
	runSmoke(t, "fig3", "CT-Index", "avg.falsepos")
	runSmoke(t, "fig8", "zipf-zipf")
	runSmoke(t, "fig11", "whole")
	runSmoke(t, "fig13", "Grapes(6)")
	runSmoke(t, "fig17", "Q4")
}
