package graph

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refFromEdges is FromEdges by AddVertex and AddEdgeLabeled, stopping at
// the first edge they reject.
func refFromEdges(labels []Label, edges []Edge) (*Graph, int) {
	g := New(len(labels))
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i, e := range edges {
		if !g.AddEdgeLabeled(e.U, e.V, e.L) {
			return nil, i
		}
	}
	return g, -1
}

// dumpGraph renders everything observable about g.
func dumpGraph(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v labels=%v edgeLabels=%v fp=%x\n", g, g.Labels(), g.HasEdgeLabels(), Fingerprint(g))
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(&b, "%d: %v %v\n", v, g.Neighbors(v), g.NeighborLabels(v))
	}
	return b.String()
}

// randomEdges draws labels and an edge list with, when malformed is set,
// self-loops, out-of-range endpoints and duplicates (in either direction).
func randomEdges(rng *rand.Rand, malformed bool) ([]Label, []Edge) {
	n := rng.Intn(9)
	labels := make([]Label, n)
	for i := range labels {
		labels[i] = Label(rng.Intn(4))
	}
	var edges []Edge
	labeled := rng.Intn(2) == 0
	seen := map[[2]int]bool{}
	for k := rng.Intn(3 * (n + 1)); k > 0; k-- {
		var e Edge
		if n > 0 {
			e = Edge{U: rng.Intn(n), V: rng.Intn(n)}
		}
		if labeled && rng.Intn(3) == 0 {
			e.L = Label(1 + rng.Intn(3))
		}
		if malformed && rng.Intn(12) == 0 {
			e.V = []int{-1, n, n + 5}[rng.Intn(3)]
		}
		key := [2]int{min(e.U, e.V), max(e.U, e.V)}
		if !malformed && (e.U == e.V || seen[key]) {
			continue
		}
		seen[key] = true
		edges = append(edges, e)
	}
	return labels, edges
}

// TestFromEdgesMatchesAddEdge is the differential test of the bulk
// constructor against AddEdgeLabeled, on valid edge lists and on lists
// with self-loops, out-of-range endpoints and duplicates: the same first
// rejected edge, or the same graph.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3000; trial++ {
		labels, edges := randomEdges(rng, trial%2 == 1)
		want, wantBad := refFromEdges(labels, edges)
		got, bad := FromEdges(labels, edges)
		if bad != wantBad {
			t.Fatalf("trial %d: rejected edge %d, want %d (edges %v)", trial, bad, wantBad, edges)
		}
		if bad >= 0 {
			if got != nil {
				t.Fatalf("trial %d: a graph beside a rejected edge", trial)
			}
			continue
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if (got.elabels == nil) != (want.elabels == nil) {
			t.Fatalf("trial %d: edge labels materialised %v, want %v", trial, got.elabels != nil, want.elabels != nil)
		}
		if a, b := dumpGraph(got), dumpGraph(want); a != b {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, a, b)
		}
		// A later insert must not write into a neighbour's list.
		if n := got.NumVertices(); n >= 2 {
			u, v := rng.Intn(n), rng.Intn(n)
			if got.AddEdgeLabeled(u, v, 2) != want.AddEdgeLabeled(u, v, 2) || dumpGraph(got) != dumpGraph(want) {
				t.Fatalf("trial %d: AddEdgeLabeled(%d,%d) after the bulk build diverges", trial, u, v)
			}
		}
	}
}

// refReadAll is the text decoder by AddVertex and AddEdgeLabeled, edge
// line by edge line.
func refReadAll(r io.Reader) ([]*Graph, error) {
	s := bufio.NewScanner(r)
	line := 0
	next := func() (string, bool) {
		for s.Scan() {
			line++
			if t := strings.TrimSpace(s.Text()); t != "" && !strings.HasPrefix(t, "//") {
				return t, true
			}
		}
		return "", false
	}
	errf := func(format string, args ...any) error {
		return fmt.Errorf("graph codec: line %d: %s", line, fmt.Sprintf(format, args...))
	}
	var out []*Graph
	for {
		head, ok := next()
		if !ok {
			return out, nil
		}
		if !strings.HasPrefix(head, "#") {
			return nil, errf("expected graph header '#<id>', got %q", head)
		}
		id, err := strconv.Atoi(strings.TrimPrefix(head, "#"))
		if err != nil {
			return nil, errf("bad graph id %q: %v", head, err)
		}
		nStr, ok := next()
		if !ok {
			return nil, errf("unexpected EOF reading vertex count")
		}
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			return nil, errf("bad vertex count %q", nStr)
		}
		g := New(0)
		g.ID = id
		for i := 0; i < n; i++ {
			lStr, ok := next()
			if !ok {
				return nil, errf("unexpected EOF reading label %d/%d", i+1, n)
			}
			l, err := strconv.Atoi(lStr)
			if err != nil {
				return nil, errf("bad label %q", lStr)
			}
			g.AddVertex(Label(l))
		}
		mStr, ok := next()
		if !ok {
			return nil, errf("unexpected EOF reading edge count")
		}
		m, err := strconv.Atoi(mStr)
		if err != nil || m < 0 {
			return nil, errf("bad edge count %q", mStr)
		}
		for i := 0; i < m; i++ {
			eStr, ok := next()
			if !ok {
				return nil, errf("unexpected EOF reading edge %d/%d", i+1, m)
			}
			fs := strings.Fields(eStr)
			if len(fs) != 2 && len(fs) != 3 {
				return nil, errf("bad edge line %q", eStr)
			}
			u, err1 := strconv.Atoi(fs[0])
			v, err2 := strconv.Atoi(fs[1])
			if err1 != nil || err2 != nil {
				return nil, errf("bad edge endpoints %q", eStr)
			}
			el := 0
			if len(fs) == 3 {
				if el, err = strconv.Atoi(fs[2]); err != nil {
					return nil, errf("bad edge label %q", eStr)
				}
			}
			if !g.AddEdgeLabeled(u, v, Label(el)) {
				return nil, errf("invalid or duplicate edge (%d,%d)", u, v)
			}
		}
		out = append(out, g)
	}
}

// corruptions are line rewrites that make a graph file malformed in the
// ways the decoder distinguishes.
var corruptions = []func(rng *rand.Rand, line string) string{
	func(_ *rand.Rand, l string) string { return l + " 1 2" },              // too many fields
	func(_ *rand.Rand, l string) string { return "x" + l },                 // not a number
	func(_ *rand.Rand, l string) string { return "+" + l },                 // signed
	func(_ *rand.Rand, l string) string { return "-" + l },                 // negative
	func(_ *rand.Rand, l string) string { return "" },                      // a line lost
	func(_ *rand.Rand, l string) string { return "\u00a0" + l + "\u2003" }, // non-ASCII space
	func(_ *rand.Rand, l string) string { return strings.ReplaceAll(l, " ", "\u00a0") },
	func(_ *rand.Rand, l string) string { return l + "\t// not a comment" },
	func(_ *rand.Rand, l string) string { return "99999999999999999999" },
	func(rng *rand.Rand, l string) string {
		return strconv.Itoa(rng.Intn(4)) + " " + strconv.Itoa(rng.Intn(4))
	},
}

// TestReadAllMatchesAddEdgePath decodes random graph files, intact and
// corrupted line by line, with ReadAll and with the edge-by-edge reference:
// the same graphs, or the same error.
func TestReadAllMatchesAddEdgePath(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 1500; trial++ {
		var gs []*Graph
		for k := rng.Intn(4); k > 0; k-- {
			labels, edges := randomEdges(rng, false)
			g, _ := FromEdges(labels, edges)
			g.ID = rng.Intn(50)
			gs = append(gs, g)
		}
		var b strings.Builder
		if err := WriteAll(&b, gs); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(b.String(), "\n")
		for k := rng.Intn(3); k > 0 && len(lines) > 0; k-- {
			i := rng.Intn(len(lines))
			lines[i] = corruptions[rng.Intn(len(corruptions))](rng, lines[i])
		}
		text := strings.Join(lines, "\n")
		want, wantErr := refReadAll(strings.NewReader(text))
		got, err := ReadAll(strings.NewReader(text))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: error %v, want %v\n%s", trial, err, wantErr, text)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d graphs, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || dumpGraph(got[i]) != dumpGraph(want[i]) {
				t.Fatalf("trial %d graph %d:\n got %s\nwant %s", trial, i, dumpGraph(got[i]), dumpGraph(want[i]))
			}
		}
	}
}
