package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The text codec implements a line-oriented format in the spirit of the
// GraphGrep/Grapes ".gfd" files used by the paper's baselines:
//
//	#<graph-id>
//	<num-vertices>
//	<label of vertex 0>
//	...
//	<label of vertex n-1>
//	<num-edges>
//	<u> <v> [edge-label]
//	...
//
// Edge lines carry an optional third field, the edge label (0 = unlabeled;
// writers emit it only when the graph has labeled edges). Blank lines and
// lines starting with "//" are ignored. Multiple graphs are concatenated;
// ReadAll parses the whole stream.

// Write serialises g to w in the text format above.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#%d\n%d\n", g.ID, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(bw, "%d\n", g.Label(v))
	}
	fmt.Fprintf(bw, "%d\n", g.NumEdges())
	if g.HasEdgeLabels() {
		g.EdgesLabeled(func(u, v int, l Label) { fmt.Fprintf(bw, "%d %d %d\n", u, v, l) })
	} else {
		g.Edges(func(u, v int) { fmt.Fprintf(bw, "%d %d\n", u, v) })
	}
	return bw.Flush()
}

// WriteAll serialises all graphs to w.
func WriteAll(w io.Writer, gs []*Graph) error {
	for _, g := range gs {
		if err := Write(w, g); err != nil {
			return err
		}
	}
	return nil
}

// scanner wraps bufio.Scanner skipping blanks/comments and tracking lines.
type scanner struct {
	s    *bufio.Scanner
	line int
}

func (sc *scanner) next() (string, bool) {
	for sc.s.Scan() {
		sc.line++
		t := strings.TrimSpace(sc.s.Text())
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		return t, true
	}
	return "", false
}

func (sc *scanner) errf(format string, args ...interface{}) error {
	return fmt.Errorf("graph codec: line %d: %s", sc.line, fmt.Sprintf(format, args...))
}

// ReadAll parses every graph in the stream. It validates each graph before
// returning.
func ReadAll(r io.Reader) ([]*Graph, error) {
	sc := &scanner{s: bufio.NewScanner(r)}
	sc.s.Buffer(make([]byte, 1<<16), 1<<24)
	var out []*Graph
	for {
		g, err := readOne(sc)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("graph codec: graph #%d invalid: %w", g.ID, err)
		}
		out = append(out, g)
	}
}

func readOne(sc *scanner) (*Graph, error) {
	head, ok := sc.next()
	if !ok {
		return nil, io.EOF
	}
	if !strings.HasPrefix(head, "#") {
		return nil, sc.errf("expected graph header '#<id>', got %q", head)
	}
	id, err := strconv.Atoi(strings.TrimPrefix(head, "#"))
	if err != nil {
		return nil, sc.errf("bad graph id %q: %v", head, err)
	}
	nStr, ok := sc.next()
	if !ok {
		return nil, sc.errf("unexpected EOF reading vertex count")
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 0 {
		return nil, sc.errf("bad vertex count %q", nStr)
	}
	g := New(min(n, 1<<12)) // a capacity hint only: the count is untrusted input
	g.ID = id
	for i := 0; i < n; i++ {
		lStr, ok := sc.next()
		if !ok {
			return nil, sc.errf("unexpected EOF reading label %d/%d", i+1, n)
		}
		l, err := strconv.Atoi(lStr)
		if err != nil {
			return nil, sc.errf("bad label %q", lStr)
		}
		g.AddVertex(Label(l))
	}
	mStr, ok := sc.next()
	if !ok {
		return nil, sc.errf("unexpected EOF reading edge count")
	}
	m, err := strconv.Atoi(mStr)
	if err != nil || m < 0 {
		return nil, sc.errf("bad edge count %q", mStr)
	}
	for i := 0; i < m; i++ {
		eStr, ok := sc.next()
		if !ok {
			return nil, sc.errf("unexpected EOF reading edge %d/%d", i+1, m)
		}
		fields := strings.Fields(eStr)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, sc.errf("bad edge line %q", eStr)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, sc.errf("bad edge endpoints %q", eStr)
		}
		el := 0
		if len(fields) == 3 {
			el, err = strconv.Atoi(fields[2])
			if err != nil {
				return nil, sc.errf("bad edge label %q", eStr)
			}
		}
		if !g.AddEdgeLabeled(u, v, Label(el)) {
			return nil, sc.errf("invalid or duplicate edge (%d,%d)", u, v)
		}
	}
	return g, nil
}

// SaveFile writes graphs to the named file, creating or truncating it.
func SaveFile(path string, gs []*Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteAll(f, gs); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile reads all graphs from the named file.
func LoadFile(path string) ([]*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

// DOT renders g in Graphviz DOT syntax (undirected), labels shown on nodes.
// Useful for eyeballing small query graphs in the examples.
func DOT(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph g%d {\n", g.ID)
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(&b, "  n%d [label=\"%d\"];\n", v, g.Label(v))
	}
	g.Edges(func(u, v int) { fmt.Fprintf(&b, "  n%d -- n%d;\n", u, v) })
	b.WriteString("}\n")
	return b.String()
}
