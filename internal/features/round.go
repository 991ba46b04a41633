package features

import "repro/internal/graph"

// A Round is one step of a parallel interning enumeration that numbers
// features exactly as a sequential one does: in DFS first-visit order over
// the graphs taken in order.
//
// Freeze starts a round and holds the dictionary's read lock until Commit,
// so the keys and the path table stay as they were. Workers then enumerate
// contiguous chunks of the input (AppendPaths), each with a Scratch of its
// own: table reads take no lock, and every transition the table lacks goes
// to the scratch's private overlay, its feature given a provisional ID if
// the dictionary lacks it too. Commit installs every overlay into the
// table, which merges the scratches' nodes for one path into one node, and
// then numbers the new features chunk by chunk, in the order their chunk
// first visited them, by their canonical nodes — which is the order a
// sequential enumeration of the same input meets them, since a feature is
// new to the round exactly when no earlier chunk of an earlier round
// visited it. Scratch.Resolve then maps a provisional ID to the interned
// one.
//
// The round's numbering and its table are independent of how the chunks
// were spread over scratches, or how large they are.
type Round struct {
	d      *Dict
	frozen bool
}

// Chunk is the work Commit orders: the scratch that enumerated one chunk
// and the counts its AppendPaths calls returned, concatenated in input
// order.
type Chunk struct {
	S      *Scratch
	Counts []IDCount
}

// Freeze starts a Round over d. The round holds d's read lock until
// Commit or Close: other walks may read d meanwhile, nothing may write it.
func (d *Dict) Freeze() *Round {
	d.mu.RLock()
	return &Round{d: d, frozen: true}
}

// AppendPaths enumerates, with s, the paths of g that start in [lo, hi)
// (as PathsIDRange) and appends their counts to dst in first-visit order.
// IDs of keys the dictionary lacks are provisional until Commit; they are
// s's own, so a chunk must be enumerated with one scratch. A scratch is
// used by one goroutine at a time; it may enumerate several chunks of a
// round.
func (r *Round) AppendPaths(s *Scratch, dst []IDCount, g *graph.Graph, opt PathOptions, lo, hi int) []IDCount {
	if s.round != r {
		s.clearWalk()
		s.join(r.d, true)
		s.remap = s.remap[:0]
		s.round = r
	}
	s.dfs(g, opt, lo, hi)
	return s.drain(dst, false)
}

// Commit ends the round: it installs every scratch's overlay into the
// path table, then numbers the new features of chunks in their order, each
// by its canonical node. chunks must list every chunk of the round, in
// input order. Afterwards the scratches resolve their provisional IDs
// (Scratch.Resolve) until they enumerate in another round.
func (r *Round) Commit(chunks []Chunk) {
	d := r.d
	d.mu.RUnlock()
	r.frozen = false
	d.mu.Lock()
	defer d.mu.Unlock()
	var ss []*Scratch
	for _, c := range chunks {
		if c.S.round == r { // not installed yet
			c.S.installNodes()
			c.S.round = nil
			ss = append(ss, c.S)
		}
	}
	for _, c := range chunks {
		s := c.S
		for _, f := range c.Counts {
			if s.provisional(f.ID) {
				if i := f.ID - s.idBase; s.remap[i] == noFeature {
					s.remap[i] = s.number(int(i))
				}
			}
		}
	}
	for _, s := range ss {
		s.installIDs()
	}
}

// Close releases the read lock of a round that did not reach Commit (a
// worker panicked); after Commit it does nothing.
func (r *Round) Close() {
	if r.frozen {
		r.frozen = false
		r.d.mu.RUnlock()
	}
}
