package main

import (
	"slices"

	igq "repro"
	"repro/internal/iso"
	"repro/internal/server"
)

// model is the harness's own view of the served dataset: the generated
// graphs plus whatever mutation batches it has added and not removed. The
// answer check evaluates queries over it with the brute-force matcher, so it
// shares nothing with the index, the cache or the partition merge.
type model struct {
	graphs []modelGraph
}

type modelGraph struct {
	g      *igq.Graph
	labels map[igq.Label]int
}

func newModel(gs []*igq.Graph) *model {
	m := &model{graphs: make([]modelGraph, 0, len(gs))}
	for _, g := range gs {
		m.graphs = append(m.graphs, modelGraph{g: g, labels: g.LabelCounts()})
	}
	return m
}

// mayContain is a necessary condition for pattern ⊆ target that needs no
// matching: sizes and per-label vertex counts. It only skips pairs the
// brute-force matcher would reject after a longer search.
func mayContain(pattern, target modelGraph) bool {
	if pattern.g.NumVertices() > target.g.NumVertices() || pattern.g.NumEdges() > target.g.NumEdges() {
		return false
	}
	for l, n := range pattern.labels {
		if target.labels[l] < n {
			return false
		}
	}
	return true
}

// answer returns the sorted IDs of the model graphs that contain q
// (mode sub) or are contained in q (mode super).
func (m *model) answer(q *igq.Graph, mode string) []int32 {
	qg := modelGraph{g: q, labels: q.LabelCounts()}
	var ids []int32
	for _, t := range m.graphs {
		pattern, target := qg, t
		if mode == server.ModeSuper {
			pattern, target = t, qg
		}
		if mayContain(pattern, target) && iso.Reference(pattern.g, target.g) {
			ids = append(ids, int32(t.g.ID))
		}
	}
	slices.Sort(ids)
	return ids
}
