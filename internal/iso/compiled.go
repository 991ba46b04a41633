package iso

import (
	"sync"

	"repro/internal/graph"
)

// Program is a pattern compiled for matching against any number of targets.
// Everything the backtracking search needs from the pattern is worked out
// once, from the pattern alone: a connectivity-first matching order, and per
// position of that order the parent whose image's adjacency supplies the
// candidates, the label and degree a candidate must offer, the remaining
// earlier-ordered neighbours (each an edge the candidate must close, with
// its label) and how many neighbours are still to come (the look-ahead
// need). A Program is immutable after Compile and safe for concurrent use;
// the mutable search state lives in a pooled state, one per running test.
type Program struct {
	order  []int32       // position → pattern vertex
	parent []int32       // position → an earlier-ordered pattern neighbour; -1 starts a component
	plabel []graph.Label // position → label of the pattern edge to parent
	label  []graph.Label // position → vertex label required
	degree []int32       // position → minimum target degree
	need   []int32       // position → pattern neighbours ordered later
	bstart []int32       // position → first entry of back; len(order)+1 offsets
	back   []backEdge    // earlier-ordered neighbours other than parent
	labels []labelCount  // label multiset of the pattern
	edges  int

	placed []bool  // compile scratch: vertex is in order
	rank   []int32 // compile scratch: vertex → placed neighbours
}

// backEdge is a pattern edge from the vertex being placed to one placed
// before it: the candidate must be adjacent to w's image over label l.
type backEdge struct {
	w int32
	l graph.Label
}

type labelCount struct {
	l graph.Label
	n int32
}

// Compile builds the matching program of pattern p. The pattern is read
// only here: later changes to p do not affect the program.
func Compile(p *graph.Graph) *Program {
	pr := new(Program)
	pr.compile(p)
	return pr
}

// Recompile makes pr the program of pattern p, reusing its storage: the
// allocation-free Compile for a caller that owns one scratch Program and
// matches one pattern after another. No test may be running pr.
func (pr *Program) Recompile(p *graph.Graph) { pr.compile(p) }

// SizeBytes approximates the program's footprint.
func (pr *Program) SizeBytes() int {
	return 4*(cap(pr.order)+cap(pr.parent)+cap(pr.plabel)+cap(pr.label)+cap(pr.degree)+cap(pr.need)+cap(pr.bstart)+cap(pr.rank)) +
		8*(cap(pr.back)+cap(pr.labels)) + cap(pr.placed) + 11*24 + 8
}

// compile (re)fills pr for pattern p, reusing its slices.
//
// The order is RI's GreatestConstraintFirst reduced to what a pattern alone
// determines: the next vertex is the one with the most neighbours already
// placed (most edges to check, earliest failure), ties going to the label
// the pattern uses least (labels rare in a query tend to be rare in the
// graphs it is asked of, so fewer candidates survive the label check), then
// to the higher degree, then to the lower index. A vertex with no placed
// neighbour starts a new component and draws its candidates from the whole
// target.
func (pr *Program) compile(p *graph.Graph) {
	n := p.NumVertices()
	pr.edges = p.NumEdges()
	pr.order, pr.parent, pr.plabel = pr.order[:0], pr.parent[:0], pr.plabel[:0]
	pr.label, pr.degree, pr.need = pr.label[:0], pr.degree[:0], pr.need[:0]
	pr.bstart, pr.back, pr.labels = pr.bstart[:0], pr.back[:0], pr.labels[:0]
	pr.placed, pr.rank = pr.placed[:0], pr.rank[:0]
	for v := 0; v < n; v++ {
		pr.placed = append(pr.placed, false)
		pr.rank = append(pr.rank, 0)
		pr.countLabel(p.Label(v))
	}
	for d := 0; d < n; d++ {
		best := -1
		for v := 0; v < n; v++ {
			if pr.placed[v] {
				continue
			}
			if best < 0 || pr.before(p, v, best) {
				best = v
			}
		}
		nbrs, els := p.Neighbors(best), p.NeighborLabels(best)
		parent, plabel := int32(-1), graph.Label(0)
		pr.bstart = append(pr.bstart, int32(len(pr.back)))
		for i, w := range nbrs {
			if !pr.placed[w] {
				pr.rank[w]++
				continue
			}
			var l graph.Label
			if els != nil {
				l = els[i]
			}
			if parent < 0 {
				parent, plabel = w, l
			} else {
				pr.back = append(pr.back, backEdge{w: w, l: l})
			}
		}
		pr.placed[best] = true
		pr.order = append(pr.order, int32(best))
		pr.parent = append(pr.parent, parent)
		pr.plabel = append(pr.plabel, plabel)
		pr.label = append(pr.label, p.Label(best))
		pr.degree = append(pr.degree, int32(len(nbrs)))
		pr.need = append(pr.need, int32(len(nbrs))-pr.rank[best])
	}
	pr.bstart = append(pr.bstart, int32(len(pr.back)))
}

// before reports whether unplaced vertex a should be placed before b.
func (pr *Program) before(p *graph.Graph, a, b int) bool {
	if pr.rank[a] != pr.rank[b] {
		return pr.rank[a] > pr.rank[b]
	}
	if na, nb := pr.labelUses(p.Label(a)), pr.labelUses(p.Label(b)); na != nb {
		return na < nb
	}
	return p.Degree(a) > p.Degree(b)
}

// labelUses returns how many pattern vertices carry l; every label asked
// about has been counted.
func (pr *Program) labelUses(l graph.Label) int32 {
	for _, lc := range pr.labels {
		if lc.l == l {
			return lc.n
		}
	}
	return 0
}

func (pr *Program) countLabel(l graph.Label) {
	for i := range pr.labels {
		if pr.labels[i].l == l {
			pr.labels[i].n++
			return
		}
	}
	pr.labels = append(pr.labels, labelCount{l: l, n: 1})
}

// Match reports whether the compiled pattern is subgraph-isomorphic to t,
// stopping at the first embedding. It performs no allocation once the pool
// holds a state large enough for t.
func (pr *Program) Match(t *graph.Graph) bool {
	s := states.Get().(*state)
	ok := s.run(pr, t)
	states.Put(s)
	return ok
}

// state is the mutable side of one running test. States are pooled and
// carry nothing from one test to the next except capacity: a test that
// panics simply never returns its state.
type state struct {
	pr *Program
	t  *graph.Graph

	mapping []int32 // pattern vertex → target vertex, valid for placed vertices
	used    []bool  // target vertex is in the core; all false between tests
	counts  []int32 // labelsFit scratch: uses of Program.labels[i] not yet seen in t

	oneShot Program // compiled in place by the uncompiled entry points
}

var states = sync.Pool{New: func() any { return new(state) }}

// run searches t for an embedding of pr, stops at the first and reports
// whether one exists; mapping then holds it (pattern vertex → target
// vertex).
func (s *state) run(pr *Program, t *graph.Graph) bool {
	n, nt := len(pr.order), t.NumVertices()
	if n == 0 {
		return true // the empty pattern embeds everywhere, by the empty mapping
	}
	if n > nt || pr.edges > t.NumEdges() || !s.labelsFit(pr, t) {
		return false
	}
	if cap(s.mapping) < n {
		s.mapping = make([]int32, n)
	}
	s.mapping = s.mapping[:n]
	if len(s.used) < nt {
		s.used = make([]bool, nt)
	}
	s.pr, s.t = pr, t
	found := s.match(0)
	s.pr, s.t = nil, nil // a pooled state pins no graph
	return found
}

// labelsFit is the label-histogram cut: t must carry every pattern label at
// least as often as the pattern does. The scan stops as soon as it has seen
// enough of every label, which on a graph that contains the pattern is
// usually well before its end.
func (s *state) labelsFit(pr *Program, t *graph.Graph) bool {
	s.counts = s.counts[:0]
	for i := range pr.labels {
		s.counts = append(s.counts, pr.labels[i].n)
	}
	missing := len(pr.order)
	for v, nt := 0, t.NumVertices(); v < nt && missing > 0; v++ {
		l := t.Label(v)
		for i := range pr.labels {
			if pr.labels[i].l == l {
				if s.counts[i] > 0 {
					s.counts[i]--
					missing--
				}
				break
			}
		}
	}
	return missing == 0
}

// match extends the core mapping at position d and reports whether it
// completed an embedding, which stops the whole search.
func (s *state) match(d int) bool {
	pr, t := s.pr, s.t
	if d == len(pr.order) {
		return true
	}
	u := pr.order[d]
	par := pr.parent[d]
	if par < 0 {
		for c, nt := 0, t.NumVertices(); c < nt; c++ {
			if s.feasible(d, c) && s.extend(d, u, c) {
				return true
			}
		}
		return false
	}
	// Candidates are the neighbours of the parent's image over an edge
	// carrying the pattern edge's label.
	pm := int(s.mapping[par])
	want := pr.plabel[d]
	els := t.NeighborLabels(pm)
	if els == nil && want != 0 {
		return false
	}
	for i, c := range t.Neighbors(pm) {
		if els != nil && els[i] != want {
			continue
		}
		if s.feasible(d, int(c)) && s.extend(d, u, int(c)) {
			return true
		}
	}
	return false
}

// extend assigns u→c, recurses and undoes the assignment — also when the
// search is stopping, so that used is all false again once match(0) returns
// and no test has to clear it.
func (s *state) extend(d int, u int32, c int) bool {
	s.mapping[u] = int32(c)
	s.used[c] = true
	stop := s.match(d + 1)
	s.used[c] = false
	return stop
}

// feasible applies the monomorphism rules to placing position d on target
// vertex c: right label, not in the core, enough degree, every earlier-
// ordered pattern neighbour's image adjacent over the right edge label
// (there is no converse requirement for monomorphism), and — one step of
// look-ahead — enough free neighbours for the pattern neighbours still to
// be placed, each of which needs a distinct one.
func (s *state) feasible(d, c int) bool {
	pr, t := s.pr, s.t
	if t.Label(c) != pr.label[d] || s.used[c] {
		return false
	}
	nbrs := t.Neighbors(c)
	if len(nbrs) < int(pr.degree[d]) {
		return false
	}
	if lo, hi := pr.bstart[d], pr.bstart[d+1]; lo < hi {
		els := t.NeighborLabels(c)
		for _, b := range pr.back[lo:hi] {
			i := indexOf(nbrs, s.mapping[b.w])
			if i < 0 {
				return false
			}
			if els == nil {
				if b.l != 0 {
					return false
				}
			} else if els[i] != b.l {
				return false
			}
		}
	}
	if need := int(pr.need[d]); need > 0 {
		for _, x := range nbrs {
			if !s.used[x] {
				if need--; need == 0 {
					break
				}
			}
		}
		if need > 0 {
			return false
		}
	}
	return true
}

// indexOf finds x in the ascending slice a, or returns -1.
func indexOf(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a) && a[lo] == x {
		return lo
	}
	return -1
}

// matchOnce compiles p into a pooled state's own program and runs it: the
// route of the uncompiled entry points (Subgraph, Isomorphic),
// allocation-free like Match once the pool is warm.
func matchOnce(p, t *graph.Graph) bool {
	if p.NumVertices() > t.NumVertices() || p.NumEdges() > t.NumEdges() {
		return false // not worth compiling
	}
	s := states.Get().(*state)
	s.oneShot.compile(p)
	ok := s.run(&s.oneShot, t)
	states.Put(s)
	return ok
}
