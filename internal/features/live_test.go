package features_test

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index/grapes"
)

// builtDict returns the dictionary of a Grapes build over db with the index
// itself dropped, and the live heap it holds: the heap after a collection
// with only db and the dictionary reachable, less the heap with db alone.
func builtDict(db []*graph.Graph) (*features.Dict, uint64) {
	before := liveHeap()
	x := grapes.New(grapes.Options{MaxPathLen: 4, Threads: 1})
	x.Build(db)
	d := x.FeatureDict()
	x = nil
	return d, liveHeap() - before
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestGrapesBuildFillsNoSideKeys: every feature of a path index is a path
// table node, so the side map stays empty.
func TestGrapesBuildFillsNoSideKeys(t *testing.T) {
	d, _ := builtDict(dataset.Generate(dataset.AIDS().Scaled(0.1, 1)))
	if n := d.SideLen(); n != 0 {
		t.Fatalf("the side map holds %d of %d keys", n, d.Len())
	}
}

// BenchmarkDictLiveBytes reports the live heap bytes per feature of the
// dictionary a Grapes build over the serving benchmark's dataset leaves.
func BenchmarkDictLiveBytes(b *testing.B) {
	db := dataset.Generate(dataset.AIDS().Scaled(0.1, 1))
	var perFeature float64
	for i := 0; i < b.N; i++ {
		d, live := builtDict(db)
		perFeature = float64(live) / float64(d.Len())
		runtime.KeepAlive(d)
	}
	b.ReportMetric(perFeature, "B/feature")
}

// BenchmarkDictLoadKeys times a loader's bulk pass over the saved keys of
// the serving benchmark's dataset: every key parsed into its chain in a
// fresh dictionary.
func BenchmarkDictLoadKeys(b *testing.B) {
	d, _ := builtDict(dataset.Generate(dataset.AIDS().Scaled(0.1, 1)))
	keys := d.Keys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.NewDict().InternKeys(keys)
	}
}

// BenchmarkDictKeys times rendering every key, as a snapshot write does.
func BenchmarkDictKeys(b *testing.B) {
	d, _ := builtDict(dataset.Generate(dataset.AIDS().Scaled(0.1, 1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Keys()
	}
}
