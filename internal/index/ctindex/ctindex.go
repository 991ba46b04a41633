// Package ctindex reimplements CT-Index (Klein, Kriege, Mutzel, ICDE 2011),
// the fingerprint-based baseline of the paper.
//
// CT-Index derives string canonical forms for two feature families whose
// canonization is linear-time — trees (up to 6 vertices) and simple cycles
// (up to 8 edges) — and hashes them into a fixed-width bitmap (4096 bits)
// per graph. Filtering is a bitwise subset test: q can only be contained in
// G if bitmap(q) ⊆ bitmap(G). Verification is a subgraph isomorphism test
// of the query against the candidate graph (the paper's CT-Index uses a
// modified VF2; here it is package iso's one compiled matcher).
//
// Deviation note (also in DESIGN.md): tree/cycle enumeration explodes on
// dense graphs, so enumeration accepts per-graph budgets. A dataset graph
// that overflows its budget gets a *saturated* fingerprint (always passes
// filtering — sound); a query graph that overflows simply stops adding
// features (fewer query bits — also sound). Both directions only ever relax
// the filter, preserving the no-false-negative guarantee.
package ctindex

import (
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/iso"
)

// Options configures a CT-Index.
type Options struct {
	TreeSize    int // max tree vertices (paper default 6; Fig 18 also 7)
	CycleSize   int // max cycle edges (paper default 8; Fig 18 also 9)
	Bits        int // bitmap width (paper default 4096; Fig 18 also 8192)
	HashCount   int // bits set per feature (Bloom k; 2 by default)
	TreeBudget  int // per-graph tree enumeration cap; <=0 unlimited
	CycleBudget int // per-graph cycle enumeration cap; <=0 unlimited
}

// DefaultOptions mirrors the paper's configuration, with generous budgets
// sized for the sparse datasets CT-Index is evaluated on (AIDS, PDBS).
func DefaultOptions() Options {
	return Options{
		TreeSize:    6,
		CycleSize:   8,
		Bits:        4096,
		HashCount:   2,
		TreeBudget:  2_000_000,
		CycleBudget: 500_000,
	}
}

// Index is the CT-Index method. Create with New, then Build.
type Index struct {
	opt Options
	db  []*graph.Graph
	fps []Bitmap
}

var (
	_ index.Method   = (*Index)(nil)
	_ index.Preparer = (*Index)(nil)
)

// New returns an unbuilt CT-Index.
func New(opt Options) *Index {
	if opt.TreeSize <= 0 {
		opt.TreeSize = 6
	}
	if opt.CycleSize <= 0 {
		opt.CycleSize = 8
	}
	if opt.Bits <= 0 {
		opt.Bits = 4096
	}
	if opt.HashCount <= 0 {
		opt.HashCount = 2
	}
	return &Index{opt: opt}
}

// Name implements index.Method.
func (x *Index) Name() string { return "CT-Index" }

// Build implements index.Method: fingerprint every dataset graph.
func (x *Index) Build(db []*graph.Graph) {
	x.db = db
	x.fps = make([]Bitmap, len(db))
	for i, g := range db {
		x.fps[i] = x.fingerprint(g, true)
	}
}

// fingerprint computes the tree+cycle bitmap of g. When dataset is true and
// enumeration overflows its budget, the bitmap saturates (sound for dataset
// graphs); query-side overflow truncates instead.
func (x *Index) fingerprint(g *graph.Graph, dataset bool) Bitmap {
	bm := NewBitmap(x.opt.Bits)
	ts := features.Trees(g, features.TreeOptions{
		MaxVertices: x.opt.TreeSize,
		Budget:      x.opt.TreeBudget,
	})
	if ts.Overflowed && dataset {
		bm.Saturate()
		return bm
	}
	for k := range ts.Counts {
		bm.AddFeature(k, x.opt.HashCount)
	}
	cs := features.Cycles(g, features.CycleOptions{
		MaxLen: x.opt.CycleSize,
		Budget: x.opt.CycleBudget,
	})
	if cs.Overflowed && dataset {
		bm.Saturate()
		return bm
	}
	for k := range cs.Counts {
		bm.AddFeature(k, x.opt.HashCount)
	}
	return bm
}

// Filter implements index.Method via the bitwise subset test.
func (x *Index) Filter(q *graph.Graph) []int32 {
	qf := x.fingerprint(q, false)
	var out []int32
	for i, fp := range x.fps {
		if qf.SubsetOf(fp) {
			out = append(out, int32(i))
		}
	}
	return out
}

// Verify implements index.Method with a first-match test.
func (x *Index) Verify(q *graph.Graph, id int32) bool {
	return iso.Subgraph(q, x.db[id])
}

// Prepare implements index.Preparer.
func (x *Index) Prepare(q *graph.Graph) index.Verifier {
	return index.PrepareSubgraph(x.db, q)
}

// SizeBytes implements index.Method: the fingerprints dominate.
func (x *Index) SizeBytes() int {
	sz := 0
	for _, fp := range x.fps {
		sz += 24 + 8*len(fp)
	}
	return sz
}
