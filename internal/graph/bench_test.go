package graph_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// BenchmarkReadAll decodes the text file of the serving benchmark's
// dataset: 4 000 molecule-like graphs.
func BenchmarkReadAll(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.WriteAll(&buf, dataset.Generate(dataset.AIDS().Scaled(0.1, 1))); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadAll(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
