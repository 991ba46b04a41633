package trie

// Incremental maintenance. A built Trie is immutable on its read path
// (lock-free GetByID/Walk), so dataset mutation cannot touch it in
// place while queries are in flight. Instead a Mutation stages a batch of
// dataset changes — appended graphs and swap-removals — against a base trie
// and Apply produces a *new* Trie holding the post-mutation state:
//
//   - the postings table is copied page by page: a batch that writes any
//     list gets a private copy of the page directory (8 B per 64 lists),
//     and each page holding a written list is copied once (64 list headers,
//     3 KB); every other page stays shared with the base, so a batch costs
//     O(touched pages + directory pointers), not O(vocabulary);
//   - only the features actually touched are re-allocated: the first edit
//     copies a feature's list (container and counts),
//     and every edit then goes through the same in-place add/remove the
//     build path uses, which keep the canonical form and re-choose the
//     encoding exactly where a feature crosses a density threshold — so a
//     batch costs one list copy per touched feature plus its edits.
//     Untouched features keep sharing the base's containers;
//   - the dead set is shared with the base until the batch drains or
//     resurrects a feature, and copied then.
//
// The base trie is never written, so readers holding it are unaffected;
// installing the new trie is the caller's snapshot swap (the engine's
// mutation discipline). The staged ops double as the on-disk delta journal
// (see journal.go): recording them into a Journal and replaying that
// journal through this same Apply path is what makes a journaled snapshot
// land byte-identically on the live in-memory state.
//
// Feature identity across removals: the table entry of a drained feature
// (no occurrences left after a removal) becomes the zero list, but its
// dictionary entry cannot be reclaimed — FeatureIDs are
// dense process-local handles and other index generations may still hold
// them. The trie instead tracks such features in a dead set: they are
// excluded from size accounting (LiveDictSizeBytes) and from persisted
// snapshots (WriteTo compacts the dictionary), so observable state always
// matches a from-scratch build over the surviving dataset. A later append
// that re-introduces the feature resurrects it.

import (
	"maps"
	"slices"

	"repro/internal/features"
)

// GraphFeature is one feature occurrence record of a single graph: the
// canonical key and the occurrence count. Mutations and journals are keyed
// by canonical strings, not FeatureIDs — IDs are process-local, strings are
// the stable identity.
type GraphFeature struct {
	Key   string
	Count int32
}

// op kinds of a staged mutation / journal entry.
const (
	opAppend byte = 1
	opRemove byte = 2
)

// mutOp is one staged dataset operation.
type mutOp struct {
	kind    byte
	graph   int32          // append: the new graph's id; remove: the vacated position
	swapped int32          // remove: the old id of the graph moved into `graph` (== graph when none)
	feats   []GraphFeature // append: new graph's features; remove: the swapped graph's features
	scrub   []string       // remove: the removed graph's feature keys
}

// Mutation stages a batch of dataset changes against a base trie. Stage ops
// with AppendGraph/RemoveGraph (in dataset-op order), then Apply. A
// Mutation is single-goroutine state; the produced trie is as concurrency-
// safe as any built trie.
type Mutation struct {
	base *Trie
	ops  []mutOp
}

// NewMutation returns an empty mutation staged against t.
func (t *Trie) NewMutation() *Mutation { return &Mutation{base: t} }

// AppendGraph stages the postings of a newly appended graph: id must not
// hold any posting in the base trie (dataset positions grow monotonically
// within one mutation batch).
func (m *Mutation) AppendGraph(id int32, feats []GraphFeature) {
	m.ops = append(m.ops, mutOp{kind: opAppend, graph: id, feats: feats})
}

// RemoveGraph stages one swap-removal step: the postings of the graph at
// position `removed` (feature keys in scrubKeys) are deleted, and — when
// swappedFrom != removed — the graph previously at position swappedFrom is
// re-homed to position `removed` (its full feature records in swappedFeats;
// its old postings are deleted and re-inserted at the new id).
func (m *Mutation) RemoveGraph(removed, swappedFrom int32, scrubKeys []string, swappedFeats []GraphFeature) {
	m.ops = append(m.ops, mutOp{
		kind:    opRemove,
		graph:   removed,
		swapped: swappedFrom,
		feats:   swappedFeats,
		scrub:   scrubKeys,
	})
}

// RecordTo appends the staged ops to a delta journal (persisted later via
// AppendJournalSection). Ops are shared, not copied — stage, record, Apply,
// then discard the Mutation.
func (m *Mutation) RecordTo(j *Journal) { j.ops = append(j.ops, m.ops...) }

// Apply builds the post-mutation trie. The base is left untouched and keeps
// answering over the pre-mutation dataset; untouched pages, posting
// containers and the dead set are shared between the two. Cost is one copy
// of each touched feature's list, of each page holding one and of the page
// directory, independent of the vocabulary.
func (m *Mutation) Apply() *Trie {
	// A partially-resident base cannot be copy-on-written page by page
	// (absent lists have nothing to share); a lazily-opened base faults
	// everything in first. The produced trie is always eager.
	m.base.ensureMaterialized()
	a := newApplier(m.base)
	for _, op := range m.ops {
		a.apply(op)
	}
	a.seal()
	return a.t
}

// applier is the working state of one Apply: the trie under construction
// plus ownership tracking for copy-on-write.
type applier struct {
	t       *Trie
	ownDir  bool               // t.pages is private to t
	owned   map[*page]struct{} // pages private to t
	ownDead bool               // t.dead is private to t

	// editing holds this applier's private copies of the lists it has
	// touched; seal() installs the survivors.
	editing map[features.FeatureID]*PostingList
}

func newApplier(base *Trie) *applier {
	t := &Trie{
		dict:      base.dict,
		pages:     base.pages,
		segments:  base.segments,
		dead:      base.dead,
		policy:    base.policy,
		probeCost: base.probeCost,
	}
	return &applier{
		t:       t,
		owned:   map[*page]struct{}{},
		editing: map[features.FeatureID]*PostingList{},
	}
}

// seal installs every surviving edited list in its (applier-owned) page.
func (a *applier) seal() {
	for id, pl := range a.editing {
		*a.entry(id) = *pl
	}
	a.editing = nil
}

// edit returns this applier's private copy of id's list, copying the
// base's on first touch.
func (a *applier) edit(id features.FeatureID) *PostingList {
	pl, ok := a.editing[id]
	if !ok {
		cp := a.t.pages.get(id).clone()
		pl = &cp
		a.editing[id] = pl
	}
	return pl
}

// entry returns id's table entry in a page private to this applier: the
// directory is copied on the first write, and the page on its first write
// (or allocated, where the base has none).
func (a *applier) entry(id features.FeatureID) *PostingList {
	tb := &a.t.pages
	if !a.ownDir {
		*tb = slices.Clone(*tb)
		a.ownDir = true
	}
	p := int(id >> pageShift)
	if p < len(*tb) && (*tb)[p] != nil {
		if _, mine := a.owned[(*tb)[p]]; !mine {
			cp := *(*tb)[p]
			(*tb)[p] = &cp
		}
	}
	pl := tb.at(id) // allocates the page where there is none
	a.owned[(*tb)[p]] = struct{}{}
	return pl
}

// markDead and revive edit the dead set, copying the base's on first write.
func (a *applier) markDead(id features.FeatureID) {
	a.ownDeadSet()
	a.t.dead[id] = struct{}{}
}

func (a *applier) revive(id features.FeatureID) {
	if _, dead := a.t.dead[id]; dead {
		a.ownDeadSet()
		delete(a.t.dead, id)
	}
}

func (a *applier) ownDeadSet() {
	if !a.ownDead {
		a.t.dead = maps.Clone(a.t.dead)
		if a.t.dead == nil {
			a.t.dead = make(map[features.FeatureID]struct{})
		}
		a.ownDead = true
	}
}

func (a *applier) apply(op mutOp) {
	switch op.kind {
	case opAppend:
		for _, f := range op.feats {
			a.insert(f.Key, Posting{Graph: op.graph, Count: f.Count})
		}
	case opRemove:
		for _, k := range op.scrub {
			a.removePosting(k, op.graph)
		}
		if op.swapped != op.graph {
			for _, f := range op.feats {
				a.removePosting(f.Key, op.swapped)
			}
			for _, f := range op.feats {
				a.insert(f.Key, Posting{Graph: op.graph, Count: f.Count})
			}
		}
	}
}

// insert adds one posting for key, interning it and resurrecting it from
// the dead set when the feature is new to (or was drained from) this trie.
func (a *applier) insert(key string, p Posting) {
	id := a.t.dict.Intern(key)
	pl := a.edit(id)
	if pl.ids == nil {
		a.revive(id)
	}
	pl.add(a.t.policy, p)
}

// removePosting drops the posting of graph g under key, if present. A
// feature drained to zero postings gets the zero list and its ID is
// retired to the dead set.
func (a *applier) removePosting(key string, g int32) {
	id, ok := a.t.dict.Lookup(key)
	if !ok {
		return
	}
	if _, editing := a.editing[id]; !editing && a.t.pages.get(id).CountOf(g) == 0 {
		return // avoid copying a list this op does not touch
	}
	if _, drained := a.edit(id).remove(a.t.policy, g); drained {
		*a.entry(id) = PostingList{}
		delete(a.editing, id)
		a.markDead(id)
	}
}
