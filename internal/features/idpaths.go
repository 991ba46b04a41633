package features

import (
	"bytes"
	"strconv"

	"repro/internal/graph"
)

// Sentinel IDs of path-table nodes that carry no feature.
const (
	noFeature      = ^FeatureID(0) // roots and edge-label nodes
	unknownFeature = noFeature - 1 // a lookup-only walk's node whose key the Dict lacks
)

// ownNode is a node a walk made because the table lacked the transition
// (parent, label) that reaches it.
type ownNode struct {
	parent uint32
	label  graph.Label
	id     FeatureID
}

// Scratch holds the reusable state of an ID-based path enumeration: the DFS
// marks, the per-feature count table indexed by FeatureID, the nodes the
// walk found missing from the path table, and the buffers a key is
// rendered into. One Scratch serves one enumeration at a time; reusing it
// across calls makes a walk over a warm table allocation-free.
type Scratch struct {
	counts  []int32       // occurrence count per FeatureID, reset after each run
	touched []FeatureID   // IDs with non-zero count, in first-visit order
	out     []IDCount     // result buffer returned via IDSet.Counts
	fwd     []byte        // forward canonical rendering
	rev     []byte        // reverse canonical rendering
	seq     []graph.Label // labels of the path being walked (edge labels interleaved)
	inPath  []bool        // DFS visited marks

	// The walk in progress.
	d       *Dict
	g       *graph.Graph
	maxLen  int
	labeled bool
	intern  bool
	unknown int
	// base is the table's node count when the walk began: node base+i is
	// own[i].
	base uint32
	own  []ownNode
	// pend holds the walk's transitions that the table lacks, packed as in
	// Dict.next.
	pend map[uint64]uint64
	// idBase is len(d.keys) when the walk began. An interning walk numbers
	// the keys it finds new idBase, idBase+1, … (newKeys order) until it
	// installs them.
	idBase  FeatureID
	newIDs  map[string]FeatureID
	newKeys []string
	remap   []FeatureID // install: provisional ID - idBase → interned ID
	real    []uint32    // install: own node → table node
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// PathsID enumerates every simple path of 0..MaxLen edges in g (a 0-edge
// path is a single vertex) as interned (FeatureID, count) pairs. Each
// *directed* traversal is found once; because a path and its reverse share
// a canonical key, undirected occurrences are counted twice except single
// vertices — consistently for dataset and query graphs, so count-based
// filter comparisons remain valid.
//
// With intern=true every feature is added to d (index construction); with
// intern=false the dictionary is read-only and IDSet.Unknown is positive
// exactly when some path of g has a key absent from d (query-side
// filtering: one unknown feature already proves an empty candidate set for
// subgraph-style filters, and unknown features are irrelevant to
// containment-style filters). A lookup-only walk does not extend an
// unknown path: d's path keys come from whole enumerations, so every path
// through an unknown one is unknown too, and the known counts are complete.
//
// The walk runs under d's read lock. Transitions missing from the path
// table are resolved against the keys and installed after the walk: an
// interning walk takes the write lock for that (and interns its new keys
// in first-visit order, so a sequential build numbers features
// deterministically), a lookup-only walk installs only if the write lock is
// free at once.
//
// The returned IDSet.Counts slice is owned by s and is valid only until the
// next enumeration with the same scratch.
func PathsID(g *graph.Graph, opt PathOptions, d *Dict, s *Scratch, intern bool) IDSet {
	return PathsIDRange(g, opt, d, s, intern, 0, g.NumVertices())
}

// PathsIDRange is PathsID over the paths whose *start vertex* lies in
// [lo, hi) (clamped to g's vertices). Every directed path is found exactly
// once from its start vertex, so summing the counts of a partition of the
// vertex range reproduces PathsID — the Grapes parallel construction, where
// each thread enumerates a portion of the graph.
func PathsIDRange(g *graph.Graph, opt PathOptions, d *Dict, s *Scratch, intern bool, lo, hi int) IDSet {
	lo, hi = max(lo, 0), min(hi, g.NumVertices())
	for {
		gen := s.walk(d, g, opt, intern, lo, hi)
		if len(s.own) == 0 || s.install(gen) {
			return s.finish()
		}
		s.discard() // a Reset raced the walk: enumerate afresh
	}
}

// walk runs the DFS under d's read lock and returns d's generation.
func (s *Scratch) walk(d *Dict, g *graph.Graph, opt PathOptions, intern bool, lo, hi int) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s.d, s.g, s.intern = d, g, intern
	s.maxLen = max(opt.MaxLen, 0)
	s.labeled = g.HasEdgeLabels()
	s.unknown = 0
	s.base, s.idBase = uint32(len(d.next)+roots), FeatureID(len(d.keys))
	if len(s.counts) < len(d.keys) {
		s.counts = append(s.counts, make([]int32, len(d.keys)-len(s.counts))...)
	}
	if s.pend == nil {
		s.pend = make(map[uint64]uint64)
		s.newIDs = make(map[string]FeatureID)
	}
	n := g.NumVertices()
	if cap(s.inPath) < n {
		s.inPath = make([]bool, n)
	}
	s.inPath = s.inPath[:n]
	clear(s.inPath)
	root := uint32(rootPlain)
	if s.labeled {
		root = rootLabeled
	}
	for v := lo; v < hi; v++ {
		s.seq = append(s.seq[:0], g.Label(v))
		node, id := s.step(root, false)
		if id == unknownFeature {
			s.unknown++
			continue
		}
		s.count(id)
		if s.maxLen > 0 {
			s.inPath[v] = true
			s.extend(v, node, 1)
			s.inPath[v] = false
		}
	}
	return d.gen
}

// extend counts the one-edge extensions of the path that ends at v and
// reaches node; depth is their edge count.
func (s *Scratch) extend(v int, node uint32, depth int) {
	var els []graph.Label
	if s.labeled {
		els = s.g.NeighborLabels(v)
	}
	for i, w := range s.g.Neighbors(v) {
		if s.inPath[w] {
			continue
		}
		n, at := len(s.seq), node
		if s.labeled {
			s.seq = append(s.seq, els[i])
			at, _ = s.step(node, true)
		}
		s.seq = append(s.seq, s.g.Label(int(w)))
		child, id := s.step(at, false)
		if id == unknownFeature {
			s.unknown++
		} else {
			s.count(id)
			if depth < s.maxLen {
				s.inPath[w] = true
				s.extend(int(w), child, depth+1)
				s.inPath[w] = false
			}
		}
		s.seq = s.seq[:n]
	}
}

// step follows the transition from node by the last label of s.seq: one
// table probe when the table has it. edge marks an edge-label step of a
// labeled walk.
func (s *Scratch) step(node uint32, edge bool) (uint32, FeatureID) {
	l := s.seq[len(s.seq)-1]
	k := uint64(node)<<32 | uint64(uint32(l))
	if node < s.base {
		if t, ok := s.d.next[k]; ok {
			return uint32(t), FeatureID(t >> 32)
		}
	}
	if t, ok := s.pend[k]; ok {
		return uint32(t), FeatureID(t >> 32)
	}
	return s.miss(node, l, k, edge)
}

// miss makes the walk's own node for a transition the table lacks,
// resolving its feature by rendering its key.
func (s *Scratch) miss(node uint32, l graph.Label, k uint64, edge bool) (uint32, FeatureID) {
	id := noFeature
	if !edge {
		key := s.render()
		if known, ok := s.d.ids[string(key)]; ok {
			id = known
		} else if !s.intern {
			id = unknownFeature
		} else if seen, ok := s.newIDs[string(key)]; ok {
			id = seen
		} else {
			id = s.idBase + FeatureID(len(s.newKeys))
			str := string(key)
			s.newKeys = append(s.newKeys, str)
			s.newIDs[str] = id
			for int(id) >= len(s.counts) {
				s.counts = append(s.counts, 0)
			}
		}
	}
	c := s.base + uint32(len(s.own))
	s.own = append(s.own, ownNode{node, l, id})
	s.pend[k] = uint64(id)<<32 | uint64(c)
	return c, id
}

// render returns the canonical key of the path in s.seq: the smaller of
// the forward and reverse decimal renderings of its labels, "p:"-prefixed,
// or "p:!" with edge labels interleaved (v0.e0.v1…) when an edge label on
// the path is non-zero. The "!" keeps labeled keys disjoint from unlabeled
// ones (an interleaved sequence could otherwise collide with a longer
// unlabeled path's key); a path whose edge labels are all zero takes the
// unlabeled form, so graphs mixing labeled and unlabeled edges filter
// correctly against each other. The comparison is over the rendered bytes
// (lexicographic over decimals, not numeric). The key is valid until the
// next render.
func (s *Scratch) render() []byte {
	seq := s.seq
	stride, prefix := 1, "p:"
	if s.labeled { // seq alternates vertex and edge labels
		stride = 2
		for i := 1; i < len(seq); i += 2 {
			if seq[i] != 0 {
				stride, prefix = 1, "p:!"
				break
			}
		}
	}
	s.fwd = appendLabels(append(s.fwd[:0], prefix...), seq, stride, false)
	s.rev = appendLabels(append(s.rev[:0], prefix...), seq, stride, true)
	if bytes.Compare(s.rev, s.fwd) < 0 {
		return s.rev
	}
	return s.fwd
}

// appendLabels renders every stride-th label of seq, '.'-separated, from
// the front or from the back.
func appendLabels(b []byte, seq []graph.Label, stride int, rev bool) []byte {
	for i := 0; i < len(seq); i += stride {
		if i > 0 {
			b = append(b, '.')
		}
		l := seq[i]
		if rev {
			l = seq[len(seq)-1-i]
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return b
}

func (s *Scratch) count(id FeatureID) {
	if s.counts[id] == 0 {
		s.touched = append(s.touched, id)
	}
	s.counts[id]++
}

// provisional reports whether id is one an interning walk gave a new key.
func (s *Scratch) provisional(id FeatureID) bool { return id >= s.idBase && id < unknownFeature }

// install adds the walk's own nodes to the table (interning their new
// keys), unless the walk is lookup-only and the write lock is taken. It
// reports false only when an interning walk must run again because a Reset
// came between walk and install.
func (s *Scratch) install(gen uint64) bool {
	d := s.d
	if s.intern {
		d.mu.Lock()
	} else if !d.mu.TryLock() {
		return true
	}
	defer d.mu.Unlock()
	if d.gen != gen {
		return !s.intern
	}
	s.real = s.real[:0]
	for _, n := range s.own {
		if n.id == unknownFeature {
			s.real = append(s.real, 0) // never a parent: unknown paths are not extended
			continue
		}
		if n.parent >= s.base {
			n.parent = s.real[n.parent-s.base]
		}
		k := uint64(n.parent)<<32 | uint64(uint32(n.label))
		t, ok := d.next[k]
		if !ok { // else another walk installed it since, interning its key
			id := n.id
			if s.provisional(id) {
				id = d.internLocked(s.newKeys[id-s.idBase])
			}
			t = uint64(id)<<32 | uint64(len(d.next)+roots)
			d.next[k] = t
		}
		s.real = append(s.real, uint32(t))
	}
	s.remap = s.remap[:0]
	for _, key := range s.newKeys {
		s.remap = append(s.remap, d.ids[key])
	}
	return true
}

// finish returns the walk's counts, with provisional IDs replaced by the
// interned ones, and clears the walk.
func (s *Scratch) finish() IDSet {
	s.out = s.out[:0]
	for _, id := range s.touched {
		c := s.counts[id]
		s.counts[id] = 0
		if s.provisional(id) {
			id = s.remap[id-s.idBase]
		}
		s.out = append(s.out, IDCount{ID: id, Count: c})
	}
	out := IDSet{Counts: s.out, Unknown: s.unknown}
	s.touched = s.touched[:0]
	s.clearWalk()
	return out
}

// discard drops the walk's counts and state.
func (s *Scratch) discard() {
	for _, id := range s.touched {
		s.counts[id] = 0
	}
	s.touched = s.touched[:0]
	s.clearWalk()
}

func (s *Scratch) clearWalk() {
	s.d, s.g = nil, nil
	s.own = s.own[:0]
	if len(s.pend) > 0 {
		clear(s.pend)
	}
	if len(s.newKeys) > 0 {
		clear(s.newIDs)
		clear(s.newKeys)
		s.newKeys = s.newKeys[:0]
	}
}
