package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"unicode/utf8"
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

// scanner wraps bufio.Scanner skipping blanks/comments and tracking lines,
// with the buffers readOne reuses from graph to graph.
type scanner struct {
	s      *bufio.Scanner
	line   int
	labels []Label
	edges  []Edge
	lines  []int // line of each edge
}

// next returns the next line that is neither blank nor a comment, trimmed.
// It is valid until the following call.
func (sc *scanner) next() ([]byte, bool) {
	for sc.s.Scan() {
		sc.line++
		t := bytes.TrimSpace(sc.s.Bytes())
		if len(t) == 0 || bytes.HasPrefix(t, []byte("//")) {
			continue
		}
		return t, true
	}
	return nil, false
}

func (sc *scanner) errf(format string, args ...interface{}) error {
	return fmt.Errorf("graph codec: line %d: %s", sc.line, fmt.Sprintf(format, args...))
}

// atoi is strconv.Atoi over bytes, without a string for plain digits.
func atoi(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.Atoi(string(b))
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(b))
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// fields splits t at white space as strings.Fields does, into at most
// len(dst) fields, and returns how many t has (up to len(dst)+1).
func fields(t []byte, dst [][]byte) int {
	for _, c := range t {
		if c >= utf8.RuneSelf { // possibly non-ASCII white space
			fs := bytes.Fields(t)
			copy(dst, fs)
			return min(len(fs), len(dst)+1)
		}
	}
	n := 0
	for i := 0; i < len(t); {
		for i < len(t) && asciiSpace(t[i]) {
			i++
		}
		if i == len(t) {
			break
		}
		j := i
		for j < len(t) && !asciiSpace(t[j]) {
			j++
		}
		if n == len(dst) {
			return n + 1
		}
		dst[n] = t[i:j]
		n, i = n+1, j
	}
	return n
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// ReadAll parses every graph in the stream. Each graph is built in one pass
// (FromEdges), so it satisfies every invariant Validate checks.
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
		out = append(out, g)
	}
}

func readOne(sc *scanner) (*Graph, error) {
	head, ok := sc.next()
	if !ok {
		return nil, io.EOF
	}
	if !bytes.HasPrefix(head, []byte("#")) {
		return nil, sc.errf("expected graph header '#<id>', got %q", head)
	}
	id, err := atoi(head[1:])
	if err != nil {
		return nil, sc.errf("bad graph id %q: %v", head, err)
	}
	nStr, ok := sc.next()
	if !ok {
		return nil, sc.errf("unexpected EOF reading vertex count")
	}
	n, err := atoi(nStr)
	if err != nil || n < 0 {
		return nil, sc.errf("bad vertex count %q", nStr)
	}
	labels := sc.labels[:0]
	for i := 0; i < n; i++ {
		lStr, ok := sc.next()
		if !ok {
			return nil, sc.errf("unexpected EOF reading label %d/%d", i+1, n)
		}
		l, err := atoi(lStr)
		if err != nil {
			return nil, sc.errf("bad label %q", lStr)
		}
		labels = append(labels, Label(l))
	}
	sc.labels = labels
	mStr, ok := sc.next()
	if !ok {
		return nil, sc.errf("unexpected EOF reading edge count")
	}
	m, err := atoi(mStr)
	if err != nil || m < 0 {
		return nil, sc.errf("bad edge count %q", mStr)
	}
	// Parse every edge line, then build: an invalid edge before a line
	// that does not parse is still the error reported.
	edges, lines := sc.edges[:0], sc.lines[:0]
	var perr error
	var fs [3][]byte
	for i := 0; i < m; i++ {
		eStr, ok := sc.next()
		if !ok {
			perr = sc.errf("unexpected EOF reading edge %d/%d", i+1, m)
			break
		}
		nf := fields(eStr, fs[:])
		if nf != 2 && nf != 3 {
			perr = sc.errf("bad edge line %q", eStr)
			break
		}
		u, err1 := atoi(fs[0])
		v, err2 := atoi(fs[1])
		if err1 != nil || err2 != nil {
			perr = sc.errf("bad edge endpoints %q", eStr)
			break
		}
		el := 0
		if nf == 3 {
			if el, err = atoi(fs[2]); err != nil {
				perr = sc.errf("bad edge label %q", eStr)
				break
			}
		}
		edges = append(edges, Edge{U: u, V: v, L: Label(el)})
		lines = append(lines, sc.line)
	}
	sc.edges, sc.lines = edges, lines
	g, bad := FromEdges(labels, edges)
	if bad >= 0 {
		return nil, fmt.Errorf("graph codec: line %d: invalid or duplicate edge (%d,%d)", lines[bad], edges[bad].U, edges[bad].V)
	}
	if perr != nil {
		return nil, perr
	}
	g.ID = id
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
