package ggsx

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/index"
	"repro/internal/trie"
)

// BenchmarkMutationApply times the copy-on-write trie mutation behind one
// 4-graph AppendGraphs and one 4-position RemoveGraphs over 4 000
// molecule-like graphs: the batch is staged once and applied to the same
// base every iteration, so each op is one Apply.
func BenchmarkMutationApply(b *testing.B) {
	db := dataset.Generate(dataset.AIDS().Scaled(0.1, 1))
	x := New(DefaultOptions())
	x.Build(db[:len(db)-4])
	popt := features.PathOptions{MaxLen: x.opt.MaxPathLen}

	add := x.tr.NewMutation()
	stageAppend(add, x.dict, int32(len(x.db)), db[len(db)-4:], popt)
	_, steps, _, err := index.SwapRemove(x.db, []int{7, 1100, 2300, 3500})
	if err != nil {
		b.Fatal(err)
	}
	remove := x.tr.NewMutation()
	stageRemovals(remove, x.dict, steps, popt)

	for _, bc := range []struct {
		name string
		mut  *trie.Mutation
	}{{"add4", add}, {"remove4", remove}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.mut.Apply()
			}
		})
	}
}

// BenchmarkBuildAIDS times a fresh sequential Build over 4 000
// molecule-like graphs, the dataset of the serving benchmark.
func BenchmarkBuildAIDS(b *testing.B) {
	db := dataset.Generate(dataset.AIDS().Scaled(0.1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(DefaultOptions()).Build(db)
	}
}
