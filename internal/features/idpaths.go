package features

import "repro/internal/graph"

// Sentinel IDs of path-table nodes that carry no feature.
const (
	noFeature      = ^FeatureID(0) // roots and edge-label nodes
	unknownFeature = noFeature - 1 // a lookup-only walk's node whose key the Dict lacks
	absentFeature  = noFeature - 2 // a node whose feature is not resolved yet
)

// ownNode is a node a walk made because the table lacked the transition
// (parent, label) that reaches it.
type ownNode struct {
	parent uint32
	label  graph.Label
	id     FeatureID
}

// fixNode is a table node whose ID a walk resolved.
type fixNode struct {
	node uint32
	id   FeatureID
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
	seq     []graph.Label // labels of the path being walked (edge labels interleaved)
	inPath  []bool        // DFS visited marks
	kb      keyBuf

	// The walk in progress.
	d       *Dict
	g       *graph.Graph
	maxLen  int
	labeled bool
	intern  bool
	unknown int
	// base is the table's node count when the walk (or the round) began:
	// node base+i is own[i].
	base uint32
	own  []ownNode
	// pend holds, packed as id<<32 | child, the walk's transitions that the
	// table lacks, and those whose table node lacks the ID the walk
	// resolved (also listed in fixes).
	pend  map[uint64]uint64
	fixes []fixNode
	// idBase is d's key count when the walk (or the round) began. An
	// interning walk numbers the features it finds new idBase, idBase+1, …
	// until they are interned; newNodes[i] is the canonical node of
	// feature idBase+i.
	idBase   FeatureID
	newNodes []uint32
	remap    []FeatureID // provisional ID - idBase → interned ID (noFeature until interned)
	real     []uint32    // install: own node → table node
	// round is the Round whose overlay the scratch holds, nil outside one.
	round *Round
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
// The walk runs under d's read lock. A transition missing from the path
// table, or a node whose feature is not resolved yet, is resolved by
// rendering the path's key both ways and probing the canonical
// orientation's chain; the walk's new nodes and resolved IDs are installed
// after it: an interning walk takes the write lock for that (and numbers
// its new features in first-visit order, so a sequential build numbers
// features deterministically), a lookup-only walk installs only if the
// write lock is free at once.
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
	for {
		gen := s.walk(d, g, opt, intern, lo, hi)
		if len(s.own) == 0 && len(s.fixes) == 0 || s.install(gen) {
			return s.finish()
		}
		s.discard() // a Reset raced the walk: enumerate afresh
	}
}

// walk runs the DFS under d's read lock and returns d's generation.
func (s *Scratch) walk(d *Dict, g *graph.Graph, opt PathOptions, intern bool, lo, hi int) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s.join(d, intern)
	s.dfs(g, opt, lo, hi)
	return d.gen
}

// join starts an overlay over d's current table and keys. The caller holds
// d's lock.
func (s *Scratch) join(d *Dict, intern bool) {
	s.d, s.intern = d, intern
	s.base, s.idBase = uint32(len(d.at)), FeatureID(len(d.canon))
	if len(s.counts) < len(d.canon) {
		s.counts = append(s.counts, make([]int32, len(d.canon)-len(s.counts))...)
	}
	if s.pend == nil {
		s.pend = make(map[uint64]uint64)
	}
}

// dfs counts the paths of g that start in [lo, hi) into s.counts, in
// first-visit order (s.touched), extending the overlay for every
// transition the table lacks.
func (s *Scratch) dfs(g *graph.Graph, opt PathOptions, lo, hi int) {
	lo, hi = max(lo, 0), min(hi, g.NumVertices())
	s.g = g
	s.maxLen = max(opt.MaxLen, 0)
	s.labeled = g.HasEdgeLabels()
	s.unknown = 0
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
	s.g = nil
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
// table probe when the table has it and its node's feature is resolved.
// edge marks an edge-label step of a labeled walk.
func (s *Scratch) step(node uint32, edge bool) (uint32, FeatureID) {
	l := s.seq[len(s.seq)-1]
	if node < s.base {
		if c, id := s.d.get(tkey(node, l)); c != 0 && id != absentFeature {
			return c, id
		}
	}
	return s.slow(node, l, edge)
}

// slow is step through the overlay: it makes the walk's own node for a
// transition the table lacks, and resolves the feature of a node that
// lacks it.
func (s *Scratch) slow(node uint32, l graph.Label, edge bool) (uint32, FeatureID) {
	c, id, ok := s.look(node, l)
	if ok && id != absentFeature {
		return c, id
	}
	if edge {
		return s.add(node, l, noFeature), noFeature
	}
	if !ok {
		c = s.add(node, l, absentFeature)
	}
	id = s.resolve(c)
	s.setID(node, l, c, id)
	return c, id
}

// look returns the node and ID that transition (node, l) reaches in the
// table under the overlay, ok false if neither has it.
func (s *Scratch) look(node uint32, l graph.Label) (c uint32, id FeatureID, ok bool) {
	k := tkey(node, l)
	if node < s.base {
		if c, id = s.d.get(k); c != 0 && id != absentFeature {
			return c, id, true
		}
	}
	if t, ok := s.pend[k]; ok {
		return uint32(t), FeatureID(t >> 32), true
	}
	return c, absentFeature, c != 0
}

// add makes the walk's own node reached by (parent, l).
func (s *Scratch) add(parent uint32, l graph.Label, id FeatureID) uint32 {
	c := s.base + uint32(len(s.own))
	s.own = append(s.own, ownNode{parent, l, id})
	s.pend[tkey(parent, l)] = uint64(id)<<32 | uint64(c)
	return c
}

// setID gives node c, reached by (parent, l), the feature id.
func (s *Scratch) setID(parent uint32, l graph.Label, c uint32, id FeatureID) {
	if c >= s.base {
		s.own[c-s.base].id = id
	} else if id != unknownFeature {
		s.fixes = append(s.fixes, fixNode{c, id})
	}
	s.pend[tkey(parent, l)] = uint64(id)<<32 | uint64(c)
}

// resolve returns the feature of the path in s.seq, whose node is self:
// the ID its canonical node carries. When that node has none (or is
// missing), the feature is unknown to a lookup-only walk; an interning
// walk gives it a provisional ID, making the canonical chain's missing
// nodes in the overlay — at most 2·MaxLen+1 probes and steps from the
// canonical root.
func (s *Scratch) resolve(self uint32) FeatureID {
	root, cseq, isSelf := s.kb.canonical(s.seq, s.labeled)
	if isSelf {
		return s.newFeature(self)
	}
	n, parent, id := root, root, absentFeature
	for i, l := range cseq {
		c, cid, ok := s.look(n, l)
		if !ok {
			if !s.intern {
				return unknownFeature
			}
			c, cid = s.add(n, l, chainID(root, i)), chainID(root, i)
		}
		n, parent, id = c, n, cid
	}
	if id != absentFeature {
		return id
	}
	if id = s.newFeature(n); id != unknownFeature {
		s.setID(parent, cseq[len(cseq)-1], n, id)
	}
	return id
}

// newFeature numbers the feature whose canonical node is n, which has no
// ID: the next provisional ID in an interning walk, unknownFeature in a
// lookup-only one.
func (s *Scratch) newFeature(n uint32) FeatureID {
	if !s.intern {
		return unknownFeature
	}
	id := s.idBase + FeatureID(len(s.newNodes))
	s.newNodes = append(s.newNodes, n)
	for int(id) >= len(s.counts) {
		s.counts = append(s.counts, 0)
	}
	return id
}

func (s *Scratch) count(id FeatureID) {
	if s.counts[id] == 0 {
		s.touched = append(s.touched, id)
	}
	s.counts[id]++
}

// provisional reports whether id is one an interning walk gave a new
// feature.
func (s *Scratch) provisional(id FeatureID) bool { return id >= s.idBase && id < absentFeature }

// install adds the walk's own nodes to the table and numbers its new
// features in first-visit order, unless the walk is lookup-only and the
// write lock is taken. It reports false only when an interning walk must
// run again because a Reset came between walk and install.
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
	s.installNodes()
	s.remap = s.remap[:0]
	for i := range s.newNodes {
		s.remap = append(s.remap, s.number(i))
	}
	s.installIDs()
	return true
}

// installNodes adds the overlay's nodes that the table still lacks, with
// their known IDs; provisional ones wait for installIDs. The caller holds
// d's write lock.
func (s *Scratch) installNodes() {
	d := s.d
	s.real = s.real[:0]
	for _, n := range s.own {
		if n.id == unknownFeature {
			s.real = append(s.real, 0) // never a parent: unknown paths are not extended
			continue
		}
		if n.parent >= s.base {
			n.parent = s.real[n.parent-s.base]
		}
		id := n.id
		if s.provisional(id) {
			id = absentFeature
		}
		k := tkey(n.parent, n.label)
		c, was := d.get(k)
		if c == 0 {
			c = d.add(k, id)
		} else if was == absentFeature && id != absentFeature { // else another walk installed it since
			d.setNodeID(c, id)
		}
		s.real = append(s.real, c)
	}
	for len(s.remap) < len(s.newNodes) {
		s.remap = append(s.remap, noFeature)
	}
}

// number interns new feature i of the walk: the ID its canonical node
// carries if another walk interned it since, else the next dense ID. The
// caller holds d's write lock, after installNodes.
func (s *Scratch) number(i int) FeatureID {
	d, c := s.d, s.newNodes[i]
	if c >= s.base {
		c = s.real[c-s.base]
	}
	if id := d.nodeID(c); id != absentFeature {
		return id
	}
	id := FeatureID(len(d.canon))
	d.canon = append(d.canon, c)
	d.setNodeID(c, id)
	return id
}

// installIDs gives the installed nodes that still lack an ID the one the
// walk resolved, provisional IDs through s.remap.
func (s *Scratch) installIDs() {
	set := func(c uint32, id FeatureID) {
		if s.d.nodeID(c) == absentFeature {
			s.d.setNodeID(c, s.Resolve(id))
		}
	}
	for i, n := range s.own {
		if s.provisional(n.id) {
			set(s.real[i], n.id)
		}
	}
	for _, f := range s.fixes {
		set(f.node, f.id)
	}
}

// Resolve maps an ID a walk with s returned to the interned one: for an
// AppendPaths walk, valid from its round's Commit until s walks in another
// round.
func (s *Scratch) Resolve(id FeatureID) FeatureID {
	if s.provisional(id) {
		return s.remap[id-s.idBase]
	}
	return id
}

// drain appends the walk's counts to dst in first-visit order — with
// provisional IDs resolved when resolve is set — and clears them.
func (s *Scratch) drain(dst []IDCount, resolve bool) []IDCount {
	for _, id := range s.touched {
		c := s.counts[id]
		s.counts[id] = 0
		if resolve {
			id = s.Resolve(id)
		}
		dst = append(dst, IDCount{ID: id, Count: c})
	}
	s.touched = s.touched[:0]
	return dst
}

// finish returns the walk's counts, with provisional IDs replaced by the
// interned ones, and clears the walk.
func (s *Scratch) finish() IDSet {
	s.out = s.drain(s.out[:0], true)
	out := IDSet{Counts: s.out, Unknown: s.unknown}
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
	s.d, s.round = nil, nil
	s.own, s.fixes, s.newNodes = s.own[:0], s.fixes[:0], s.newNodes[:0]
	if len(s.pend) > 0 {
		clear(s.pend)
	}
}
