package features

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// TestRoundNumbersLikeSequential enumerates random graphs, some with edge
// labels, in rounds of chunks spread over several scratches at random: the
// keys must be interned in the order one PathsID per graph interns them,
// the table must reach the same size, and every graph's resolved counts
// must equal its PathsID counts.
func TestRoundNumbersLikeSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	opt := PathOptions{MaxLen: 4}
	for trial := 0; trial < 40; trial++ {
		gs := make([]*graph.Graph, 1+rng.Intn(14))
		for i := range gs {
			gs[i] = tableGraph(rng, 2+rng.Intn(8), 0.35, 4, rng.Intn(3))
		}
		seq, s := NewDict(), NewScratch()
		want := make([]string, len(gs))
		for i, g := range gs {
			want[i] = fmt.Sprint(PathsID(g, opt, seq, s, true).Counts)
		}

		d := NewDict()
		ss := make([]*Scratch, 1+rng.Intn(3))
		for i := range ss {
			ss[i] = NewScratch()
		}
		got := make([]string, len(gs))
		for at := 0; at < len(gs); {
			r := d.Freeze()
			var chunks []Chunk
			var owned [][]int // graphs of each chunk
			for k := 1 + rng.Intn(3); k > 0 && at < len(gs); k-- {
				n := min(1+rng.Intn(3), len(gs)-at)
				c := Chunk{S: ss[rng.Intn(len(ss))]}
				var ends, idx []int
				for i := at; i < at+n; i++ {
					c.Counts = r.AppendPaths(c.S, c.Counts, gs[i], opt, 0, gs[i].NumVertices())
					ends, idx = append(ends, len(c.Counts)), append(idx, i)
				}
				chunks, owned = append(chunks, c), append(owned, append(idx, ends...))
				at += n
			}
			r.Commit(chunks)
			r.Close()
			for ci, c := range chunks {
				n := len(owned[ci]) / 2
				from := 0
				for j := 0; j < n; j++ {
					g, end := owned[ci][j], owned[ci][n+j]
					var counts []IDCount
					for _, f := range c.Counts[from:end] {
						counts = append(counts, IDCount{c.S.Resolve(f.ID), f.Count})
					}
					got[g], from = fmt.Sprint(counts), end
				}
			}
		}
		if !reflect.DeepEqual(d.Keys(), seq.Keys()) || d.TableLen() != seq.TableLen() {
			t.Fatalf("trial %d: %d keys, table %d; sequential %d keys, table %d", trial, d.Len(), d.TableLen(), seq.Len(), seq.TableLen())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: counts\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestRoundCloseUnlocks: a round closed before Commit (its workers
// panicked) releases the dictionary, and Close after Commit does nothing —
// else the Intern below deadlocks.
func TestRoundCloseUnlocks(t *testing.T) {
	d := NewDict()
	d.Freeze().Close()
	r := d.Freeze()
	r.Commit(nil)
	r.Close()
	if d.Intern("p:1"); d.Len() != 1 {
		t.Fatal("intern after the rounds failed")
	}
}
