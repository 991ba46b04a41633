package core

// Copy-on-write mutation of the containment index. The trie already
// mutates copy-on-write, page by page (trie.Mutation: append postings,
// scrub a removed graph's keys, re-home a swapped graph); the only containment-
// specific state is the NF table, which the caller maintains alongside the
// staged trie ops and hands to ApplyMutation. The receiver is never
// touched — it keeps answering Algorithm 2 over the pre-mutation dataset
// while the new generation is installed by the caller's snapshot swap —
// which is exactly the discipline index.Mutable methods and iGQ's cache
// maintenance already follow.

import "repro/internal/trie"

// NewMutation stages a copy-on-write mutation against the index's trie.
// Stage appended graphs' features and swap-removal steps exactly as for
// the subgraph tries, then ApplyMutation with the matching NF table.
func (ci *ContainmentIndex) NewMutation() *trie.Mutation { return ci.tr.NewMutation() }

// NFTable returns a private copy of the NF table, indexed by graph id, with
// growth room for extra more graphs — the starting point for a mutation's NF
// bookkeeping: appended graphs append their distinct-feature counts,
// swap-removals re-home the last position's count into the vacated slot and
// drop the last.
func (ci *ContainmentIndex) NFTable(extra int) []int32 {
	return append(make([]int32, 0, len(ci.nf)+extra), ci.nf...)
}

// ApplyMutation builds the post-mutation index: mut.Apply()'s trie plus nf
// as the new NF table. Untouched table pages and posting containers are
// shared with the receiver, which remains valid and immutable. Cost is the
// touched features' postings plus their pages, independent of the
// vocabulary.
func (ci *ContainmentIndex) ApplyMutation(mut *trie.Mutation, nf []int32) *ContainmentIndex {
	return newContainmentIndex(ci.maxPathLen, mut.Apply(), nf)
}
