package contain

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/workload"
)

// BenchmarkFilter is Algorithm 2 over a dataset of 2 000 molecule-like
// graphs, probed with graphs of the same kind (supergraph queries).
func BenchmarkFilter(b *testing.B) {
	db := dataset.Generate(dataset.AIDS().Scaled(0.05, 1))
	x := New(DefaultOptions())
	x.Build(db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Filter(db[i%len(db)])
	}
}

// BenchmarkFilterSmallQueries is Algorithm 2 over the same 2 000 graphs,
// probed with zipf-zipf workload queries of 4–20 edges: patterns smaller
// than most dataset graphs, the supergraph queries a serving workload sends.
func BenchmarkFilterSmallQueries(b *testing.B) {
	db := dataset.Generate(dataset.AIDS().Scaled(0.05, 1))
	x := New(DefaultOptions())
	x.Build(db)
	qs := workload.Generate(db, workload.Spec{NumQueries: 500, GraphDist: workload.Zipf, NodeDist: workload.Zipf, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Filter(qs[i%len(qs)].G)
	}
}
