package experiments

import (
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ctindex"
	"repro/internal/index/ggsx"
	"repro/internal/index/grapes"
)

// Bench-scale dataset derivations. Fractions are chosen so every
// experiment completes in seconds at Scale=1 while preserving each
// dataset's character from Table 1:
//
//	AIDS      many, very small, sparse    (full-size graphs, fewer of them)
//	PDBS      few, large, sparse          (graph sizes shrunk 10×)
//	PPI       very few, large, dense      (sizes shrunk, density halved)
//	Synthetic medium count, dense         (sizes shrunk, density halved)
//
// Density halving on the two dense sets is the documented Grapes memory
// wall workaround (DESIGN.md): exhaustive ≤4-edge path enumeration grows
// with degree^4.
func scaledAIDS(cfg Config) dataset.Spec {
	s := dataset.AIDS().Scaled(0.025*cfg.Scale, 1.0)
	s.Seed = cfg.Seed*10 + 1
	return s
}

func scaledPDBS(cfg Config) dataset.Spec {
	s := dataset.PDBS().Scaled(0.15*cfg.Scale, 0.1)
	s.Seed = cfg.Seed*10 + 2
	return s
}

func scaledPPI(cfg Config) dataset.Spec {
	s := dataset.PPI().Scaled(0.5*cfg.Scale, 0.025).WithDegree(0.5)
	s.Seed = cfg.Seed*10 + 3
	return s
}

func scaledSynthetic(cfg Config) dataset.Spec {
	s := dataset.Synthetic().Scaled(0.02*cfg.Scale, 0.06).WithDegree(0.5)
	s.Seed = cfg.Seed*10 + 4
	return s
}

// workload lengths and cache parameters at bench scale, derived from the
// paper's 3000-query/C=500/W=100 (sparse sets) and 500-query/W=20 (dense
// sets) configurations.
func sparseWorkloadLen(cfg Config) int { return cfg.scaled(400, 120) }
func sparseCache(cfg Config) (c, w int) {
	return cfg.scaled(120, 40), cfg.scaled(30, 10)
}

func denseWorkloadLen(cfg Config) int { return cfg.scaled(150, 60) }
func denseCache(cfg Config) (c, w int) {
	return cfg.scaled(40, 20), cfg.scaled(10, 5)
}

// methodSet builds the paper's four method configurations (Fig 7/8/12/13).
func methodSet() []index.Method {
	return []index.Method{
		ggsx.New(ggsx.DefaultOptions()),
		grapes.New(grapes.Options{MaxPathLen: 4, Threads: 1}),
		grapes.New(grapes.Options{MaxPathLen: 4, Threads: 6}),
		ctindex.New(ctindex.DefaultOptions()),
	}
}

// threeMethods are the Fig 1–3 insight methods (GGSX, Grapes, CT-Index).
func threeMethods() []index.Method {
	return []index.Method{
		ggsx.New(ggsx.DefaultOptions()),
		grapes.New(grapes.Options{MaxPathLen: 4, Threads: 1}),
		ctindex.New(ctindex.DefaultOptions()),
	}
}

// buildAll builds each method over db (once per experiment).
func buildAll(ms []index.Method, db []*graph.Graph) {
	for _, m := range ms {
		m.Build(db)
	}
}
