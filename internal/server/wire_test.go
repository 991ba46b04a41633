package server

import (
	"fmt"
	"math/rand"
	"testing"

	igq "repro"
)

// refDecodeGraph is DecodeGraph by AddVertex and AddEdgeLabeled, edge by
// edge.
func refDecodeGraph(w WireGraph) (*igq.Graph, error) {
	g := igq.NewGraph(len(w.Labels))
	for _, l := range w.Labels {
		g.AddVertex(l)
	}
	for _, e := range w.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= len(w.Labels) || v < 0 || v >= len(w.Labels) {
			return nil, fmt.Errorf("edge (%d,%d) outside %d vertices", u, v, len(w.Labels))
		}
		if !g.AddEdgeLabeled(u, v, igq.Label(e[2])) {
			return nil, fmt.Errorf("invalid or duplicate edge (%d,%d)", u, v)
		}
	}
	g.ID = w.ID
	return g, g.Validate()
}

// TestDecodeGraphMatchesAddEdgePath: on random wire graphs with self-loops,
// out-of-range endpoints and duplicates, DecodeGraph returns the error the
// edge-by-edge decoder returns, or the graph it builds.
func TestDecodeGraphMatchesAddEdgePath(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(7)
		w := WireGraph{ID: rng.Intn(9), Labels: make([]igq.Label, n)}
		for i := range w.Labels {
			w.Labels[i] = igq.Label(rng.Intn(3))
		}
		for k := rng.Intn(2*n + 2); k > 0; k-- {
			e := [3]int{rng.Intn(n + 2), rng.Intn(n + 2), 0}
			if trial%2 == 0 {
				e[0], e[1] = e[0]%max(n, 1), e[1]%max(n, 1)
			}
			if rng.Intn(3) == 0 {
				e[2] = 1 + rng.Intn(2)
			}
			if rng.Intn(15) == 0 {
				e[1] = -1
			}
			w.Edges = append(w.Edges, e)
		}
		want, wantErr := refDecodeGraph(w)
		got, err := DecodeGraph(w)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: error %v, want %v (%+v)", trial, err, wantErr, w)
		}
		if err != nil {
			continue
		}
		if fmt.Sprint(EncodeGraph(got)) != fmt.Sprint(EncodeGraph(want)) || got.HasEdgeLabels() != want.HasEdgeLabels() {
			t.Fatalf("trial %d: decoded %+v, want %+v", trial, EncodeGraph(got), EncodeGraph(want))
		}
	}
}
