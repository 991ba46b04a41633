package contain

import (
	"testing"

	"repro/internal/dataset"
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
