package features

import (
	"bytes"
	"strconv"

	"repro/internal/graph"
)

// Scratch holds the reusable state of an ID-based path enumeration: the
// canonical-key byte buffers, the DFS stacks, and the per-feature count
// table indexed by FeatureID. One Scratch serves one enumeration at a time;
// reusing it across calls makes the whole hot path allocation-free once the
// buffers have warmed up.
type Scratch struct {
	counts  []int32     // occurrence count per FeatureID, reset after each run
	touched []FeatureID // IDs with non-zero count, in first-visit order
	out     []IDCount   // result buffer returned via IDSet.Counts
	fwd     []byte      // forward canonical rendering
	rev     []byte      // reverse canonical rendering
	inPath  []bool      // DFS visited marks
	labels  []graph.Label
	elabs   []graph.Label
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// buildKey renders the canonical key of the current path into one of the
// scratch buffers and returns it (valid until the next buildKey call). The
// bytes are identical to pathKey/pathKeyLabeled's output: the smaller of the
// forward and reverse decimal renderings, "p:"- or "p:!"-prefixed. The
// comparison is over the rendered bytes, matching the string comparison of
// the legacy path (lexicographic over decimals, not numeric).
func (s *Scratch) buildKey(labels, elabs []graph.Label, labeled bool) []byte {
	if labeled && allZero(elabs) {
		labeled = false
	}
	if !labeled {
		s.fwd = append(s.fwd[:0], 'p', ':')
		s.rev = append(s.rev[:0], 'p', ':')
		for i, l := range labels {
			if i > 0 {
				s.fwd = append(s.fwd, '.')
			}
			s.fwd = strconv.AppendInt(s.fwd, int64(l), 10)
		}
		for i := len(labels) - 1; i >= 0; i-- {
			if i < len(labels)-1 {
				s.rev = append(s.rev, '.')
			}
			s.rev = strconv.AppendInt(s.rev, int64(labels[i]), 10)
		}
	} else {
		n := len(labels)
		s.fwd = append(s.fwd[:0], 'p', ':', '!')
		for i, v := range labels {
			if i > 0 {
				s.fwd = append(s.fwd, '.')
				s.fwd = strconv.AppendInt(s.fwd, int64(elabs[i-1]), 10)
				s.fwd = append(s.fwd, '.')
			}
			s.fwd = strconv.AppendInt(s.fwd, int64(v), 10)
		}
		s.rev = append(s.rev[:0], 'p', ':', '!')
		for i := 0; i < n; i++ {
			if i > 0 {
				s.rev = append(s.rev, '.')
				s.rev = strconv.AppendInt(s.rev, int64(elabs[n-1-i]), 10)
				s.rev = append(s.rev, '.')
			}
			s.rev = strconv.AppendInt(s.rev, int64(labels[n-1-i]), 10)
		}
	}
	if bytes.Compare(s.rev, s.fwd) < 0 {
		return s.rev
	}
	return s.fwd
}

// PathsID enumerates the same simple-path features as Paths but yields
// interned (FeatureID, count) pairs instead of a string-keyed map, touching
// the allocator only when dictionary entries or scratch buffers must grow.
//
// With intern=true every feature is added to d (index construction); with
// intern=false the dictionary is read-only and occurrences of keys absent
// from d are tallied in IDSet.Unknown (query-side filtering: one unknown
// feature already proves an empty candidate set for subgraph-style filters,
// and unknown features are irrelevant to containment-style filters).
//
// The returned IDSet.Counts slice is owned by s and is valid only until the
// next enumeration with the same scratch.
//
// Interning runs lookup-only first and only retries under the write lock
// when genuinely new keys appeared, so steady-state rebuilds (whose
// features are all interned already) never block concurrent readers.
func PathsID(g *graph.Graph, opt PathOptions, d *Dict, s *Scratch, intern bool) IDSet {
	if intern {
		if out := pathsID(g, opt, d, s, false); out.Unknown == 0 {
			return out
		}
		return pathsID(g, opt, d, s, true)
	}
	return pathsID(g, opt, d, s, false)
}

func pathsID(g *graph.Graph, opt PathOptions, d *Dict, s *Scratch, intern bool) IDSet {
	if opt.MaxLen < 0 {
		opt.MaxLen = 0
	}
	n := g.NumVertices()

	if intern {
		d.mu.Lock()
		defer d.mu.Unlock()
	} else {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if len(s.counts) < len(d.keys) {
		s.counts = append(s.counts, make([]int32, len(d.keys)-len(s.counts))...)
	}
	if cap(s.inPath) < n {
		s.inPath = make([]bool, n)
	}
	inPath := s.inPath[:n]
	for i := range inPath {
		inPath[i] = false
	}
	labels := s.labels[:0]
	elabs := s.elabs[:0]
	labeled := g.HasEdgeLabels()

	unknown := 0
	emit := func() {
		key := s.buildKey(labels, elabs, labeled)
		var id FeatureID
		var ok bool
		if intern {
			id, ok = d.internBytesLocked(key), true
		} else {
			id, ok = d.lookupBytesLocked(key)
		}
		if !ok {
			unknown++
			return
		}
		for int(id) >= len(s.counts) {
			s.counts = append(s.counts, 0)
		}
		if s.counts[id] == 0 {
			s.touched = append(s.touched, id)
		}
		s.counts[id]++
	}

	var dfs func(v int)
	dfs = func(v int) {
		emit()
		if len(labels) == opt.MaxLen+1 {
			return
		}
		for _, w := range g.Neighbors(v) {
			if inPath[w] {
				continue
			}
			inPath[w] = true
			labels = append(labels, g.Label(int(w)))
			if labeled {
				elabs = append(elabs, g.EdgeLabel(v, int(w)))
			}
			dfs(int(w))
			labels = labels[:len(labels)-1]
			if labeled {
				elabs = elabs[:len(elabs)-1]
			}
			inPath[w] = false
		}
	}
	for v := 0; v < n; v++ {
		inPath[v] = true
		labels = append(labels[:0], g.Label(v))
		elabs = elabs[:0]
		dfs(v)
		inPath[v] = false
	}
	s.labels, s.elabs = labels[:0], elabs[:0]

	s.out = s.out[:0]
	for _, id := range s.touched {
		s.out = append(s.out, IDCount{ID: id, Count: s.counts[id]})
		s.counts[id] = 0
	}
	s.touched = s.touched[:0]
	return IDSet{Counts: s.out, Unknown: unknown}
}
