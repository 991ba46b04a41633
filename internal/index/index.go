// Package index defines the common contract for the filter-then-verify
// subgraph query processing methods the paper evaluates (the "method M" of
// the iGQ framework), plus a brute-force reference used as a ground-truth
// oracle in tests and experiments.
//
// A Method indexes a fixed dataset of graphs and answers subgraph queries in
// two stages:
//
//	Filter(q)  → candidate set CS(q): ids of graphs that may contain q
//	             (guaranteed superset of the true answer — no false
//	             negatives; false positives allowed),
//	Verify(q, id) → subgraph isomorphism test of q against one candidate.
//
// A query is verified against many candidates, so a method may also offer
// Prepare(q) (the optional Preparer capability): the query is compiled once
// and the handle's Verify(id) tests one dataset graph in place.
// VerifyCandidates is the one verification loop; it uses the capability
// where offered and plain Verify otherwise.
//
// iGQ (package core) wraps any Method, pruning CS(q) with knowledge from
// previously executed queries before verification.
package index

import (
	"context"

	"repro/internal/graph"
	"repro/internal/iso"
)

// Method is a subgraph query processing method over a fixed graph dataset.
//
// Concurrency contract: after Build has returned, the read path — Filter,
// Verify, SizeBytes, and the optional DictProvider/CountFilterer/Preparer
// extensions — MUST be safe for concurrent use by any number of
// goroutines. The engine and iGQ serve queries concurrently by default and
// rely on this: implementations keep per-call state in pooled scratch
// buffers (the count filter, the matcher) or allocate it per call, and
// hold no per-query state in the index itself.
//
// Build itself may parallelise *internally* — the path methods fan feature
// enumeration out over build workers and merge into the postings store
// (package trie) — but externally it remains strictly exclusive: it
// must be called exactly once, by one goroutine, and no other method of the
// index may run until it returns. Implementations that build in parallel
// must join every build goroutine before returning, so that Build's return
// establishes a happens-before edge to every subsequent Filter/Verify call
// and the read path needs no synchronisation of its own. Parallel builds
// must also be deterministic: the same dataset must yield the same index
// state (postings, walk order, filter results) at any worker count.
type Method interface {
	// Name identifies the method in experiment output (e.g. "Grapes(6)").
	Name() string
	// Build constructs the dataset index. It must be called exactly once,
	// before any queries.
	Build(db []*graph.Graph)
	// Filter returns the candidate set for query q as sorted dataset
	// positions. It must never omit a true answer.
	Filter(q *graph.Graph) []int32
	// Verify performs the subgraph isomorphism test of q against the
	// dataset graph at position id, stopping at the first embedding.
	Verify(q *graph.Graph, id int32) bool
	// SizeBytes reports the approximate index footprint (paper Fig 18).
	SizeBytes() int
}

// Verifier is one query prepared for verification against one dataset
// generation. Verify(id) gives exactly the answer of the preparing method's
// Verify(q, id) for the q as it was at Prepare time, and MUST be safe for
// concurrent use: a handle holds only immutable state (the compiled query,
// the dataset slice) and each test draws its scratch from a pool.
type Verifier interface {
	Verify(id int32) bool
}

// Preparer is the optional capability of methods whose verification is a
// test of the query against the dataset graph itself, which all the
// subgraph methods' is: the query-side work is done once per query instead
// of once per candidate. A handle is cheap to make and is not retained
// beyond the query.
//
// A wrapper that embeds a concrete method to override Verify inherits that
// method's Prepare, which bypasses the override; it must override Prepare
// too, or embed only the Method interface (which drops the capability and
// sends every test through Verify).
type Preparer interface {
	Prepare(q *graph.Graph) Verifier
}

// compiled is the Verifier of every method that tests q ⊆ db[id]: the
// query's matching program over the dataset generation it was prepared on.
type compiled struct {
	prog *iso.Program
	db   []*graph.Graph
}

func (c *compiled) Verify(id int32) bool { return c.prog.Match(c.db[id]) }

// PrepareSubgraph returns the Verifier testing q ⊆ db[id].
func PrepareSubgraph(db []*graph.Graph, q *graph.Graph) Verifier {
	return &compiled{prog: iso.Compile(q), db: db}
}

// unprepared adapts a method without the capability.
type unprepared struct {
	m Method
	q *graph.Graph
}

func (u unprepared) Verify(id int32) bool { return u.m.Verify(u.q, id) }

// VerifyCandidates tests q against every candidate, on the calling
// goroutine and in candidate order, and returns those that pass (nil if
// none). The query is prepared once when m is a Preparer; otherwise each
// candidate goes through m.Verify, with identical results. ctx is checked
// before every test; a cancelled call returns ctx's error and no result.
// The number of isomorphism tests a completed call ran is len(cands).
func VerifyCandidates(ctx context.Context, m Method, q *graph.Graph, cands []int32) ([]int32, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	var v Verifier = unprepared{m: m, q: q}
	if p, ok := m.(Preparer); ok {
		v = p.Prepare(q)
	}
	var passed []int32
	for _, id := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if v.Verify(id) {
			passed = append(passed, id)
		}
	}
	return passed, nil
}

// Answer runs the full filter-then-verify pipeline and returns the sorted
// answer set of q.
func Answer(m Method, q *graph.Graph) []int32 {
	ans, _ := VerifyCandidates(context.Background(), m, q, m.Filter(q))
	return ans
}

// BruteForce is the index-free reference method: every graph is a candidate
// and verification is a plain subgraph test. It is the ground-truth oracle for
// the correctness properties of the real methods.
type BruteForce struct {
	db []*graph.Graph
}

// NewBruteForce returns an unbuilt brute-force method.
func NewBruteForce() *BruteForce { return &BruteForce{} }

// Name implements Method.
func (b *BruteForce) Name() string { return "BruteForce" }

// Build implements Method.
func (b *BruteForce) Build(db []*graph.Graph) { b.db = db }

// Filter implements Method: all graphs are candidates.
func (b *BruteForce) Filter(q *graph.Graph) []int32 {
	out := make([]int32, len(b.db))
	for i := range b.db {
		out[i] = int32(i)
	}
	return out
}

// Verify implements Method.
func (b *BruteForce) Verify(q *graph.Graph, id int32) bool {
	return iso.Subgraph(q, b.db[id])
}

// Prepare implements Preparer.
func (b *BruteForce) Prepare(q *graph.Graph) Verifier { return PrepareSubgraph(b.db, q) }

// SizeBytes implements Method: no index.
func (b *BruteForce) SizeBytes() int { return 0 }

// IntersectSorted returns the intersection of two ascending id slices.
func IntersectSorted(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// SubtractSorted returns a \ b for ascending id slices.
func SubtractSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// UnionSorted returns a ∪ b for ascending id slices.
func UnionSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
