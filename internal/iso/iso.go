// Package iso implements exact subgraph isomorphism (monomorphism) testing
// for labeled undirected graphs — the verification-stage workhorse of every
// filter-then-verify graph query method in the paper.
//
// Semantics follow Definition 2 of the paper: pattern P is subgraph-
// isomorphic to target T (P ⊆ T) iff there is an injection φ: V(P) → V(T)
// with l(u) = l(φ(u)) for every vertex and (φ(u), φ(v)) ∈ E(T) for every
// (u, v) ∈ E(P). The embedding is NOT required to be induced: T may have
// extra edges among the image vertices. This is the semantics used by
// GraphGrepSX, Grapes and CT-Index, whose verification stages the paper
// builds on.
//
// One engine serves every caller: a backtracking search in the RI family
// (Bonnici et al., the matcher inside Grapes) — a static connectivity-first
// matching order, candidates drawn from the adjacency of an already matched
// neighbour's image, label/degree/adjacency feasibility checks and one step
// of free-neighbour look-ahead. The pattern side of that work is compiled
// once (Compile → Program) and the per-test state is pooled, so a query is
// compiled once and then tested against each candidate graph in place,
// without allocating. The uncompiled entry points below compile into the
// pooled state and are allocation-free as well. On the benchmark's
// (query, candidate) pairs RI's order beat VF2's terminal-set look-ahead,
// which is why there is no second engine; bruteForceExists (Reference) is
// the independent oracle the engine is tested against.
//
// Every search stops at the first embedding, which matches the paper's
// alteration of Grapes ("stop query processing when the first match was
// found").
package iso

import (
	"repro/internal/graph"
)

// Subgraph reports whether pattern ⊆ target.
func Subgraph(pattern, target *graph.Graph) bool {
	return matchOnce(pattern, target)
}

// Isomorphic reports whether a and b are isomorphic labeled graphs.
//
// With equal vertex counts an injection is a bijection, and with equal edge
// counts an edge-preserving bijection is edge-bijective, so monomorphism in
// one direction plus equal counts decides isomorphism. This is exactly the
// paper's §4.3 identical-query detection rule (g ⊆ G with equal node and
// edge counts).
func Isomorphic(a, b *graph.Graph) bool {
	if !graph.SameSignature(a, b) {
		return false
	}
	return matchOnce(a, b)
}
