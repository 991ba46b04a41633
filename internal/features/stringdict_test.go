package features

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// stringDict is the string-map interner the path table replaced, kept as
// the reference: every key is a string in ids and keys, and a walk renders
// the key of every path occurrence (refKey) and interns or looks it up.
type stringDict struct {
	ids  map[string]FeatureID
	keys []string
}

func newStringDict() *stringDict { return &stringDict{ids: make(map[string]FeatureID)} }

func (d *stringDict) intern(key string) FeatureID {
	if id, ok := d.ids[key]; ok {
		return id
	}
	id := FeatureID(len(d.keys))
	d.ids[key] = id
	d.keys = append(d.keys, key)
	return id
}

func (d *stringDict) internAll(keys []string) []FeatureID {
	out := make([]FeatureID, len(keys))
	for i, k := range keys {
		out[i] = d.intern(k)
	}
	return out
}

// paths enumerates g's paths as PathsID does — the same DFS, counts in
// first-visit order, an unknown path not extended by a lookup-only walk.
func (d *stringDict) paths(g *graph.Graph, maxLen int, intern bool) IDSet {
	var set IDSet
	at := make(map[FeatureID]int)
	inPath := make([]bool, g.NumVertices())
	var labels, elabs []graph.Label
	var dfs func(v int)
	dfs = func(v int) {
		key := refKey(labels, elabs)
		id, ok := d.ids[key]
		if !ok && !intern {
			set.Unknown++
			return
		}
		if !ok {
			id = d.intern(key)
		}
		if i, seen := at[id]; seen {
			set.Counts[i].Count++
		} else {
			at[id] = len(set.Counts)
			set.Counts = append(set.Counts, IDCount{id, 1})
		}
		if len(elabs) == maxLen {
			return
		}
		for _, w := range g.Neighbors(v) {
			if inPath[w] {
				continue
			}
			inPath[w] = true
			labels = append(labels, g.Label(int(w)))
			elabs = append(elabs, g.EdgeLabel(v, int(w)))
			dfs(int(w))
			labels, elabs = labels[:len(labels)-1], elabs[:len(elabs)-1]
			inPath[w] = false
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		inPath[v] = true
		labels, elabs = []graph.Label{g.Label(v)}, nil
		dfs(v)
		inPath[v] = false
	}
	return set
}

// diffGraph is a random graph for the differential test. elabels: 0 none,
// 1 all non-zero, 2 a mix of zero and non-zero, 3 every edge labeled 0.
// Labels include negatives and multi-digit ones whose byte order differs
// from their numeric order (10 sorts before 2); palin makes the vertex
// labels a palindrome along the vertex order, so paths along it read the
// same both ways.
func diffGraph(rng *rand.Rand, n int, elabels int, palin bool) *graph.Graph {
	pool := []graph.Label{0, 1, 2, 10, 12, 21, -1, -10, 100, 3}
	g := graph.New(n)
	ls := make([]graph.Label, n)
	for i := range ls {
		ls[i] = pool[rng.Intn(len(pool))]
		if palin && i >= n/2 {
			ls[i] = ls[n-1-i]
		}
		g.AddVertex(ls[i])
	}
	for u := 0; u+1 < n; u++ {
		if palin || rng.Intn(3) > 0 {
			g.AddEdgeLabeled(u, u+1, diffEdgeLabel(rng, elabels))
		}
	}
	for e := rng.Intn(n); e > 0; e-- {
		g.AddEdgeLabeled(rng.Intn(n), rng.Intn(n), diffEdgeLabel(rng, elabels))
	}
	return g
}

func diffEdgeLabel(rng *rand.Rand, elabels int) graph.Label {
	switch elabels {
	case 1:
		return graph.Label(1 + rng.Intn(11))
	case 2:
		return graph.Label(rng.Intn(3))
	}
	return 0
}

// roundBuild interns gs into d in rounds of chunks spread over width
// scratches, returning every graph's resolved counts.
func roundBuild(rng *rand.Rand, d *Dict, gs []*graph.Graph, maxLen, width int) []IDSet {
	ss := make([]*Scratch, width)
	for i := range ss {
		ss[i] = NewScratch()
	}
	opt := PathOptions{MaxLen: maxLen}
	out := make([]IDSet, len(gs))
	for at := 0; at < len(gs); {
		r := d.Freeze()
		var chunks []Chunk
		var spans [][4]int // graph, chunk, from, to in the chunk's counts
		for k := 1 + rng.Intn(3); k > 0 && at < len(gs); k-- {
			c := Chunk{S: ss[rng.Intn(width)]}
			for n := min(1+rng.Intn(3), len(gs)-at); n > 0; n-- {
				from := len(c.Counts)
				c.Counts = r.AppendPaths(c.S, c.Counts, gs[at], opt, 0, gs[at].NumVertices())
				spans = append(spans, [4]int{at, len(chunks), from, len(c.Counts)})
				at++
			}
			chunks = append(chunks, c)
		}
		r.Commit(chunks)
		r.Close()
		for _, sp := range spans {
			c := chunks[sp[1]]
			var set IDSet
			for _, f := range c.Counts[sp[2]:sp[3]] {
				set.Counts = append(set.Counts, IDCount{c.S.Resolve(f.ID), f.Count})
			}
			out[sp[0]] = set
		}
	}
	return out
}

// sameDict compares d with the reference: keys in ID order, and Lookup of
// every reference key and of every probe.
func sameDict(t *testing.T, name string, d *Dict, ref *stringDict, probes []string) {
	t.Helper()
	if got := d.Keys(); !reflect.DeepEqual(got, ref.keys) && len(got)+len(ref.keys) > 0 {
		t.Fatalf("%s: keys\n got %q\nwant %q", name, got, ref.keys)
	}
	for id, k := range ref.keys {
		if got := d.Key(FeatureID(id)); got != k {
			t.Fatalf("%s: Key(%d) = %q, want %q", name, id, got, k)
		}
	}
	for _, k := range append(probes, ref.keys...) {
		id, ok := d.Lookup(k)
		wid, wok := ref.ids[k]
		if ok != wok || id != wid {
			t.Fatalf("%s: Lookup(%q) = %d %v, want %d %v", name, k, id, ok, wid, wok)
		}
	}
}

// TestDictMatchesStringInterner builds random graph sets — with and
// without edge labels, all-zero edge labels, palindromic paths, negative
// and multi-digit labels — into the table dictionary sequentially and in
// rounds of width 1, 2 and 4, then walks further graphs lookup-only, and
// requires of every step the IDs, keys, lookups (absent keys included) and
// unknown counts of the string-map interner.
func TestDictMatchesStringInterner(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	probes := []string{"p:2.1", "p:10.2", "p:2.10", "p:01", "p:-0", "p:!1.0.2", "p:!1", "p:", "p:1..2", "c:3", "", "p:99.98.97"}
	for trial := 0; trial < 40; trial++ {
		maxLen := rng.Intn(5)
		var gs, qs []*graph.Graph
		for i := 0; i < 2+rng.Intn(8); i++ {
			gs = append(gs, diffGraph(rng, 2+rng.Intn(7), rng.Intn(4), rng.Intn(4) == 0))
			qs = append(qs, diffGraph(rng, 2+rng.Intn(7), rng.Intn(4), rng.Intn(4) == 0))
		}
		ref := newStringDict()
		want := make([]IDSet, len(gs))
		for i, g := range gs {
			want[i] = ref.paths(g, maxLen, true)
		}
		var lookups []IDSet
		for _, q := range qs {
			lookups = append(lookups, ref.paths(q, maxLen, false))
		}
		check := func(name string, d *Dict, got []IDSet) {
			for i := range gs {
				if !reflect.DeepEqual(got[i].Counts, want[i].Counts) {
					t.Fatalf("%s: graph %d counts\n got %v\nwant %v", name, i, got[i].Counts, want[i].Counts)
				}
			}
			sameDict(t, name, d, ref, probes)
			s := NewScratch()
			for i, q := range qs {
				set := PathsID(q, PathOptions{MaxLen: maxLen}, d, s, false)
				if set.Unknown != lookups[i].Unknown || !reflect.DeepEqual(set.Counts, lookups[i].Counts) && len(set.Counts)+len(lookups[i].Counts) > 0 {
					t.Fatalf("%s: lookup %d: unknown %d counts %v, want unknown %d counts %v", name, i, set.Unknown, set.Counts, lookups[i].Unknown, lookups[i].Counts)
				}
			}
			sameDict(t, name+" after lookups", d, ref, probes)
		}

		d, s := NewDict(), NewScratch()
		got := make([]IDSet, len(gs))
		for i, g := range gs {
			set := PathsID(g, PathOptions{MaxLen: maxLen}, d, s, true)
			got[i] = IDSet{Counts: append([]IDCount(nil), set.Counts...)}
		}
		check(fmt.Sprintf("trial %d sequential", trial), d, got)
		for _, width := range []int{1, 2, 4} {
			d := NewDict()
			check(fmt.Sprintf("trial %d width %d", trial, width), d, roundBuild(rng, d, gs, maxLen, width))
		}

		// The saved vocabulary, interned into a fresh dictionary as a loader
		// does, walks alike.
		ld := NewDict()
		ld.InternKeys(ref.keys)
		check(fmt.Sprintf("trial %d loaded", trial), ld, want)
	}
}

// TestDictOddKeysMatchStringInterner interns, into both dictionaries in one
// order, keys that are not a path's canonical rendering (reverse
// orientations, leading zeros, an unlabeled key in labeled form, foreign
// families) and canonical keys whose prefix features are absent, then
// walks graphs over them, interning and lookup-only.
func TestDictOddKeysMatchStringInterner(t *testing.T) {
	odd := []string{
		"p:2.1", "C-C", "k07", "gone", "c:3", "p:1.2.3", "p:01", "p:!1.0.2",
		"p:10.2.1", "p:-1.-1", "p:!2.5.1", "p:+1", "p:!3", "p:1.2.3", "p:",
		"p:2.10", "p:3.10.12", "p:99.99",
	}
	for _, intern := range []bool{false, true} {
		rng := rand.New(rand.NewSource(54))
		d, ref := NewDict(), newStringDict()
		for _, k := range odd {
			if got, want := d.Intern(k), ref.intern(k); got != want {
				t.Fatalf("Intern(%q) = %d, want %d", k, got, want)
			}
		}
		if got := NewDict().InternKeys(odd); !reflect.DeepEqual(got, ref.internAll(odd)) {
			t.Fatalf("InternKeys = %v, want %v", got, ref.internAll(odd))
		}
		probes := []string{"p:1", "p:1.2", "p:2", "p:3.2.1", "p:1.02", "p:!5.1.2"}
		sameDict(t, "odd keys", d, ref, probes)
		s := NewScratch()
		for trial := 0; trial < 60; trial++ {
			g := diffGraph(rng, 2+rng.Intn(6), rng.Intn(4), rng.Intn(3) == 0)
			maxLen := rng.Intn(4)
			want := ref.paths(g, maxLen, intern)
			got := PathsID(g, PathOptions{MaxLen: maxLen}, d, s, intern)
			if got.Unknown != want.Unknown || !reflect.DeepEqual(got.Counts, want.Counts) && len(got.Counts)+len(want.Counts) > 0 {
				t.Fatalf("intern %v trial %d: unknown %d counts %v, want unknown %d counts %v", intern, trial, got.Unknown, got.Counts, want.Unknown, want.Counts)
			}
			sameDict(t, fmt.Sprintf("intern %v trial %d", intern, trial), d, ref, probes)
		}
	}
}
