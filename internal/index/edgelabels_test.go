package index_test

// End-to-end edge-label ("bond type") conformance: every method and the
// full iGQ stack must answer bond-labeled queries exactly like the
// brute-force oracle — the paper's claimed generalization, verified through
// the whole pipeline.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/index/ctindex"
	"repro/internal/index/ggsx"
	"repro/internal/index/grapes"
	"repro/internal/workload"
)

func bondDB(t *testing.T) []*graph.Graph {
	t.Helper()
	spec := dataset.Spec{
		Name: "bonds", NumGraphs: 25, Labels: 4,
		NodesMean: 10, NodesStd: 3, NodesMin: 5, NodesMax: 16,
		AvgDegree: 2.2, LabelSkew: 0, Structure: dataset.StructureMolecular,
		EdgeLabels: 3, Seed: 77,
	}
	return dataset.Generate(spec)
}

func TestMethodsAgreeOnBondLabeledDB(t *testing.T) {
	db := bondDB(t)
	for _, g := range db {
		if !g.HasEdgeLabels() {
			t.Fatal("bond DB generated without edge labels")
		}
	}
	oracle := index.NewBruteForce()
	oracle.Build(db)
	ms := []index.Method{
		ggsx.New(ggsx.DefaultOptions()),
		grapes.New(grapes.Options{MaxPathLen: 4, Threads: 1}),
		ctindex.New(ctindex.DefaultOptions()),
	}
	rng := rand.New(rand.NewSource(21))
	for _, m := range ms {
		m.Build(db)
		for trial := 0; trial < 25; trial++ {
			src := db[rng.Intn(len(db))]
			q := workload.Extract(src, rng.Intn(src.NumVertices()), 2+rng.Intn(5))
			if q.NumEdges() == 0 {
				continue
			}
			if !q.HasEdgeLabels() {
				t.Fatal("extraction dropped edge labels")
			}
			want := index.Answer(oracle, q)
			got := index.Answer(m, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: %v want %v", m.Name(), trial, got, want)
			}
		}
	}
}

func TestIGQCorrectOnBondLabeledDB(t *testing.T) {
	db := bondDB(t)
	m := grapes.New(grapes.Options{MaxPathLen: 4, Threads: 1})
	m.Build(db)
	ig := core.New(m, db, core.Options{CacheSize: 12, Window: 3})
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		src := db[rng.Intn(5)] // few sources → nested/repeated queries
		q := workload.Extract(src, rng.Intn(src.NumVertices()), 2+rng.Intn(6))
		if q.NumEdges() == 0 {
			continue
		}
		want := index.Answer(m, q)
		got := ig.Query(q)
		if !reflect.DeepEqual(got.Answer, want) {
			t.Fatalf("trial %d: iGQ %v want %v (short=%v)", trial, got.Answer, want, got.Short)
		}
	}
	if ig.Flushes() == 0 {
		t.Error("no flushes — cache untested")
	}
}

func TestBondLabelsChangeAnswers(t *testing.T) {
	// sanity: a query whose bond type is altered must (generally) match a
	// different graph set — proving labels are not ignored
	db := bondDB(t)
	m := ggsx.New(ggsx.DefaultOptions())
	m.Build(db)
	rng := rand.New(rand.NewSource(23))
	changed := false
	for trial := 0; trial < 40 && !changed; trial++ {
		src := db[rng.Intn(len(db))]
		q := workload.Extract(src, rng.Intn(src.NumVertices()), 3)
		if q.NumEdges() < 2 {
			continue
		}
		before := index.Answer(m, q)
		// flip one bond to a fresh label
		mod := graph.New(q.NumVertices())
		for v := 0; v < q.NumVertices(); v++ {
			mod.AddVertex(q.Label(v))
		}
		first := true
		q.EdgesLabeled(func(u, v int, l graph.Label) {
			if first {
				l = 9 // label outside the generated domain
				first = false
			}
			mod.AddEdgeLabeled(u, v, l)
		})
		after := index.Answer(m, mod)
		if !reflect.DeepEqual(before, after) {
			changed = true
		}
	}
	if !changed {
		t.Error("flipping bond labels never changed any answer — labels ignored?")
	}
}
