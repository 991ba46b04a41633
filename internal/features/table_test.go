package features

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
)

// tableGraph is a random graph for the table tests. elabels picks the edge
// labels: 0 none, 1 all non-zero, 2 a mix of zero and non-zero (paths mix
// the labeled and the legacy unlabeled key forms).
func tableGraph(rng *rand.Rand, n int, p float64, labels, elabels int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		l := graph.Label(rng.Intn(labels))
		if rng.Intn(5) == 0 {
			l += 10 // multi-digit labels order differently as decimals
		}
		g.AddVertex(l)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() >= p {
				continue
			}
			var el graph.Label
			switch elabels {
			case 1:
				el = graph.Label(1 + rng.Intn(3))
			case 2:
				el = graph.Label(rng.Intn(3))
			}
			g.AddEdgeLabeled(u, v, el)
		}
	}
	return g
}

// internKeys returns a dictionary that knows the given keys through the
// string map only, as a loaded snapshot does: its table is empty.
func internKeys(keys map[string]int) *Dict {
	d := NewDict()
	for k := range keys {
		d.Intern(k)
	}
	return d
}

// TestPathsTableMatchesReference compares the table walk with the string
// reference enumerator, as (key, count) multisets, on random graphs with
// and without edge labels, MaxLen 0–5 and start-vertex ranges: interning
// into a fresh dictionary, looking up over the warm table, and looking up
// over keys interned without a table (the loaded case).
func TestPathsTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		elabels := trial % 3
		g := tableGraph(rng, 4+rng.Intn(9), 0.35, 3, elabels)
		n := g.NumVertices()
		for maxLen := 0; maxLen <= 5; maxLen++ {
			opt := PathOptions{MaxLen: maxLen}
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			for _, r := range [][2]int{{0, n}, {lo, hi}} {
				name := fmt.Sprintf("trial %d elabels %d maxLen %d range %v", trial, elabels, maxLen, r)
				want := refPaths(g, maxLen, r[0], r[1])
				d, s := NewDict(), NewScratch()
				if got := keyCounts(d, PathsIDRange(g, opt, d, s, true, r[0], r[1])); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: interning walk\n got %v\nwant %v", name, got, want)
				}
				warm := PathsIDRange(g, opt, d, s, false, r[0], r[1])
				if got := keyCounts(d, warm); warm.Unknown != 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: warm lookup (unknown %d)\n got %v\nwant %v", name, warm.Unknown, got, want)
				}
				ld := internKeys(want)
				cold := PathsIDRange(g, opt, ld, s, false, r[0], r[1])
				if got := keyCounts(ld, cold); cold.Unknown != 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: lookup over a loaded dictionary (unknown %d)\n got %v\nwant %v", name, cold.Unknown, got, want)
				}
			}
		}
	}
}

// stepSeq follows a path given by its vertex and edge labels through the
// table from the root a walk over a graph of that labeledness starts at,
// and returns the ID at its end (noFeature if the table lacks a step).
func stepSeq(d *Dict, labeled bool, vs, es []graph.Label) FeatureID {
	node, id := uint32(rootPlain), noFeature
	if labeled {
		node = rootLabeled
	}
	step := func(l graph.Label) bool {
		t, ok := d.next[uint64(node)<<32|uint64(uint32(l))]
		node, id = uint32(t), FeatureID(t>>32)
		return ok
	}
	for i, v := range vs {
		if i > 0 && labeled && !step(es[i-1]) {
			return noFeature
		}
		if !step(v) {
			return noFeature
		}
	}
	return id
}

// TestPathsTableOrientationsShareID checks that both orientations of every
// path of a graph reach table nodes with one ID, the ID of the path's key.
func TestPathsTableOrientationsShareID(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		g := tableGraph(rng, 3+rng.Intn(8), 0.4, 3, trial%3)
		d := NewDict()
		PathsID(g, PathOptions{MaxLen: 4}, d, NewScratch(), true)
		labeled := g.HasEdgeLabels()
		var vs, es []graph.Label
		inPath := make([]bool, g.NumVertices())
		var dfs func(v int)
		dfs = func(v int) {
			rv, re := reversed(vs), reversed(es)
			fwd, back := stepSeq(d, labeled, vs, es), stepSeq(d, labeled, rv, re)
			want, ok := d.Lookup(refKey(vs, es))
			if !ok || fwd != want || back != want {
				t.Fatalf("trial %d: path %v/%v: forward ID %d, reverse ID %d, key ID %d (known %v)", trial, vs, es, fwd, back, want, ok)
			}
			if len(es) == 4 {
				return
			}
			for _, w := range g.Neighbors(v) {
				if inPath[w] {
					continue
				}
				inPath[w] = true
				vs, es = append(vs, g.Label(int(w))), append(es, g.EdgeLabel(v, int(w)))
				dfs(int(w))
				vs, es = vs[:len(vs)-1], es[:len(es)-1]
				inPath[w] = false
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			inPath[v] = true
			vs, es = []graph.Label{g.Label(v)}, nil
			dfs(v)
			inPath[v] = false
		}
	}
}

func reversed(ls []graph.Label) []graph.Label {
	out := make([]graph.Label, len(ls))
	for i, l := range ls {
		out[len(ls)-1-i] = l
	}
	return out
}

// TestPathsTableUnknownIffWithheld withholds keys from a dictionary and
// checks that a lookup-only walk reports Unknown > 0 exactly when the
// reference holds a withheld key, whether the dictionary's table is warm
// or empty.
func TestPathsTableUnknownIffWithheld(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		opt := PathOptions{MaxLen: rng.Intn(5)}
		host := tableGraph(rng, 4+rng.Intn(8), 0.35, 3, trial%3)
		q := tableGraph(rng, 2+rng.Intn(5), 0.5, 3, trial%3)
		known := refPaths(host, opt.MaxLen, 0, host.NumVertices())
		withheld := false
		for k := range refPaths(q, opt.MaxLen, 0, q.NumVertices()) {
			if rng.Intn(8) == 0 {
				delete(known, k)
			}
			_, ok := known[k]
			withheld = withheld || !ok
		}
		cold := internKeys(known)
		warm := internKeys(known)
		PathsID(host, opt, warm, NewScratch(), false) // fill the table from the host
		for _, d := range []*Dict{cold, warm} {
			got := PathsID(q, opt, d, NewScratch(), false)
			if (got.Unknown > 0) != withheld {
				t.Fatalf("trial %d: Unknown = %d, reference holds a withheld key: %v", trial, got.Unknown, withheld)
			}
		}
	}
}

// TestPathsTableFilledByWalks checks that a dictionary whose keys were
// interned without a walk has an empty table, and that one lookup-only
// walk adds exactly the transitions it took: one per distinct directed
// label sequence of the graph's paths.
func TestPathsTableFilledByWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := tableGraph(rng, 12, 0.3, 3, 0)
	opt := PathOptions{MaxLen: 3}
	d := internKeys(refPaths(g, opt.MaxLen, 0, g.NumVertices()))
	d.Intern("p:99") // a key no walk reaches
	if n := d.TableLen(); n != 0 {
		t.Fatalf("table of a dictionary filled by Intern has %d transitions", n)
	}
	size := d.SizeBytes()
	PathsID(g, opt, d, NewScratch(), false)
	seqs := make(map[string]bool)
	var walk func(v int, prefix string, depth int, inPath map[int]bool)
	walk = func(v int, prefix string, depth int, inPath map[int]bool) {
		seq := fmt.Sprintf("%s.%d", prefix, g.Label(v))
		seqs[seq] = true
		if depth == opt.MaxLen {
			return
		}
		inPath[v] = true
		for _, w := range g.Neighbors(v) {
			if !inPath[int(w)] {
				walk(int(w), seq, depth+1, inPath)
			}
		}
		delete(inPath, v)
	}
	for v := 0; v < g.NumVertices(); v++ {
		walk(v, "", 0, map[int]bool{})
	}
	if n := d.TableLen(); n != len(seqs) {
		t.Errorf("table has %d transitions after one walk, want the %d the walk took", n, len(seqs))
	}
	if got := d.SizeBytes(); got != size {
		t.Errorf("SizeBytes moved from %d to %d: the table must stay out of it", size, got)
	}
}

// TestPathsTableNumbersInFirstVisitOrder checks that sequential interning
// numbers features in DFS first-visit order: the same graphs interned into
// two fresh dictionaries give identical key orders.
func TestPathsTableNumbersInFirstVisitOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var gs []*graph.Graph
	for i := 0; i < 20; i++ {
		gs = append(gs, tableGraph(rng, 5+rng.Intn(8), 0.3, 4, i%3))
	}
	intern := func() []string {
		d, s := NewDict(), NewScratch()
		for _, g := range gs {
			PathsID(g, PathOptions{MaxLen: 4}, d, s, true)
		}
		return d.Keys()
	}
	a, b := intern(), intern()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two sequential interning runs numbered features differently")
	}
	d := NewDict()
	PathsID(pathGraph(3, 1, 2), PathOptions{MaxLen: 2}, d, NewScratch(), true)
	if got, want := d.Keys(), []string{"p:3", "p:1.3", "p:2.1.3", "p:1", "p:1.2", "p:2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("keys = %v, want first-visit order %v", got, want)
	}
}

// TestPathsTableInstallAfterAnotherWalk runs the window between a walk and
// its install deterministically: a second walk over the same graph
// installs (and interns) first, so the first walk's install finds every
// transition present and must take the IDs that walk interned.
func TestPathsTableInstallAfterAnotherWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	opt := PathOptions{MaxLen: 4}
	for trial := 0; trial < 20; trial++ {
		g := tableGraph(rng, 4+rng.Intn(8), 0.35, 3, trial%3)
		want := refPaths(g, opt.MaxLen, 0, g.NumVertices())
		for _, intern := range []bool{true, false} {
			d := NewDict()
			if !intern {
				d = internKeys(want)
			}
			s := NewScratch()
			gen := s.walk(d, g, opt, intern, 0, g.NumVertices())
			PathsID(g, opt, d, NewScratch(), intern)
			n := d.TableLen()
			if !s.install(gen) {
				t.Fatalf("trial %d: install refused without a Reset", trial)
			}
			if got := keyCounts(d, s.finish()); !reflect.DeepEqual(got, want) || d.TableLen() != n {
				t.Fatalf("trial %d intern %v: table %d -> %d transitions\n got %v\nwant %v", trial, intern, n, d.TableLen(), got, want)
			}
		}
	}
}

// TestPathsTableResetBetweenWalkAndInstall: a Reset between a walk and its
// install leaves the table alone; an interning walk is then run again, a
// lookup-only one keeps its counts.
func TestPathsTableResetBetweenWalkAndInstall(t *testing.T) {
	g := pathGraph(1, 2, 3)
	opt := PathOptions{MaxLen: 2}
	for _, intern := range []bool{true, false} {
		d := internKeys(refPaths(g, 2, 0, 3))
		s := NewScratch()
		gen := s.walk(d, g, opt, intern, 0, 3)
		d.Reset()
		if ok := s.install(gen); ok == intern || d.TableLen() != 0 {
			t.Fatalf("intern %v: install after Reset reported %v, table has %d transitions", intern, ok, d.TableLen())
		}
		s.discard()
		if got := pathCounts(g, 2); !reflect.DeepEqual(keyCounts(d, PathsID(g, opt, d, s, true)), got) {
			t.Fatalf("intern %v: the scratch does not enumerate afresh after a discarded walk", intern)
		}
	}
}

// TestDictSharedByConcurrentWalks runs, on one shared dictionary loaded
// without a table, lookup-only query walks (each installing what it found
// if the write lock is free) at the same time as interning walks of new
// graphs (cache admission, mutation staging) and checks every result
// against a single-threaded run. Run it with -race.
func TestDictSharedByConcurrentWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	opt := PathOptions{MaxLen: 4}
	var queries, admitted []*graph.Graph
	known := make(map[string]int)
	for i := 0; i < 24; i++ {
		q := tableGraph(rng, 4+rng.Intn(6), 0.35, 4, i%3)
		queries = append(queries, q)
		for k, c := range refPaths(q, opt.MaxLen, 0, q.NumVertices()) {
			known[k] += c
		}
		admitted = append(admitted, tableGraph(rng, 4+rng.Intn(6), 0.35, 6, i%3))
	}
	d := internKeys(known)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewScratch()
			for round := 0; round < 20; round++ {
				for i, q := range queries {
					if (i+round+w)%4 != 0 {
						continue
					}
					got := PathsID(q, opt, d, s, false)
					if want := refPaths(q, opt.MaxLen, 0, q.NumVertices()); got.Unknown != 0 || !reflect.DeepEqual(keyCounts(d, got), want) {
						errs <- fmt.Errorf("query %d: unknown %d, counts differ from a single-threaded run", i, got.Unknown)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewScratch()
			for i := w; i < len(admitted); i += 2 {
				g := admitted[i]
				got := keyCounts(d, PathsID(g, opt, d, s, true))
				if want := refPaths(g, opt.MaxLen, 0, g.NumVertices()); !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("admitted graph %d: interned counts differ from a single-threaded run", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzPathsTable decodes a small graph from the input and checks the table
// walk against the reference: interning, warm lookup, lookup over keys
// interned without a table, and a two-way start-vertex split.
func FuzzPathsTable(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 0, 1, 0, 1, 2, 0}, uint8(2))
	f.Add([]byte{4, 1, 1, 1, 1, 0, 1, 5, 1, 2, 0, 2, 3, 7, 3, 0, 0}, uint8(4))
	f.Add([]byte{5, 12, 1, 2, 21, 3, 0, 1, 0, 1, 2, 3, 2, 3, 0, 3, 4, 1, 0, 4, 2}, uint8(5))
	f.Add([]byte{1, 7}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, maxLen uint8) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%9) + 1
		data = data[1:]
		g := graph.New(n)
		for i := 0; i < n; i++ {
			var l graph.Label
			if i < len(data) {
				l = graph.Label(data[i] % 32)
			}
			g.AddVertex(l)
		}
		if len(data) > n {
			data = data[n:]
		} else {
			data = nil
		}
		for ; len(data) >= 3; data = data[3:] {
			g.AddEdgeLabeled(int(data[0])%n, int(data[1])%n, graph.Label(data[2]%4))
		}
		opt := PathOptions{MaxLen: int(maxLen % 6)}
		want := refPaths(g, opt.MaxLen, 0, n)
		d, s := NewDict(), NewScratch()
		if got := keyCounts(d, PathsID(g, opt, d, s, true)); !reflect.DeepEqual(got, want) {
			t.Fatalf("interning walk\n got %v\nwant %v", got, want)
		}
		if set := PathsID(g, opt, d, s, false); set.Unknown != 0 || !reflect.DeepEqual(keyCounts(d, set), want) {
			t.Fatalf("warm lookup differs (unknown %d)", set.Unknown)
		}
		ld := internKeys(want)
		if set := PathsID(g, opt, ld, s, false); set.Unknown != 0 || !reflect.DeepEqual(keyCounts(ld, set), want) {
			t.Fatalf("lookup over a loaded dictionary differs (unknown %d)", set.Unknown)
		}
		split := keyCounts(ld, PathsIDRange(g, opt, ld, s, false, 0, n/2))
		for k, c := range keyCounts(ld, PathsIDRange(g, opt, ld, s, false, n/2, n)) {
			split[k] += c
		}
		if !reflect.DeepEqual(split, want) {
			t.Fatalf("split walk\n got %v\nwant %v", split, want)
		}
	})
}
