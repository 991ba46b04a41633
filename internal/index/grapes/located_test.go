package grapes

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/index/ggsx"
	"repro/internal/trie"
)

// locatedSnapshot is a Grapes index saved by the last writer that stored
// per-posting vertex locations (commit e57e015): Build over randomDB(12, 51)
// with Options{MaxPathLen: 3, Shards: 4}, SaveIndex, then one AppendDelta
// journaling an append of randomDB(3, 52) and the removal of positions 2
// and 5. Every segment and journal op of it carries locations.
const locatedSnapshot = "testdata/located-v3.snap"

// locatedLineage replays that lineage with the current code.
func locatedLineage(t *testing.T) *Index {
	t.Helper()
	x := New(Options{MaxPathLen: 3, Shards: 4})
	x.Build(randomDB(12, 51))
	m1, _, err := x.AppendGraphs(randomDB(3, 52))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, _, err := m1.(*Index).RemoveGraphs([]int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	return m2.(*Index)
}

// save returns x's index snapshot split into its method envelope and its
// trie section.
func save(t *testing.T, x index.Persistable) (env, snap []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := x.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	cr := &index.CountingScanner{R: index.AsByteScanner(bytes.NewReader(buf.Bytes()))}
	if _, err := index.ReadIndexEnvelope(cr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[:cr.N], buf.Bytes()[cr.N:]
}

// renumbered writes src's postings under the feature IDs and segment count of
// the trie section snap. Equal postings make equal bytes only under equal
// IDs, and a build numbers features in map iteration order; a writer that
// emitted anything besides the postings would not match its renumbering.
func renumbered(t *testing.T, snap []byte, src *trie.Trie) []byte {
	t.Helper()
	ids := trie.New()
	if _, err := ids.ReadFrom(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	tr := trie.New()
	tr.SetSegments(ids.Segments())
	for _, k := range ids.Dict().Keys() {
		tr.Dict().Intern(k)
	}
	src.Walk(func(k string, ps []trie.Posting) {
		for _, p := range ps {
			tr.Insert(k, p)
		}
	})
	var out bytes.Buffer
	if _, err := tr.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestLocatedSnapshotLoads: a location-bearing Grapes snapshot loads,
// eagerly and lazily, into an index that answers like a fresh Build over
// the same dataset, with equal Walk and SizeBytes, and re-saves to the
// bytes of that fresh Build's save (under the snapshot's feature IDs).
func TestLocatedSnapshotLoads(t *testing.T) {
	golden, err := os.ReadFile(locatedSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	db := locatedLineage(t).Dataset()
	fresh := New(Options{MaxPathLen: 3, Shards: 4})
	fresh.Build(db)
	wantEnv, _ := save(t, fresh)

	eager := New(Options{MaxPathLen: 3, Shards: 4})
	if rep, err := eager.LoadIndex(bytes.NewReader(golden), db); err != nil || rep.RecoveredTail != nil {
		t.Fatalf("eager load: %v, recovered tail %+v", err, rep.RecoveredTail)
	}
	lazy := New(Options{MaxPathLen: 3})
	if rep, err := lazy.LoadIndexLazy(bytes.NewReader(golden), db, 4<<10); err != nil || rep.RecoveredTail != nil {
		t.Fatalf("lazy load: %v, recovered tail %+v", err, rep.RecoveredTail)
	}
	qs := randomQueries(db, 25, 53)
	for name, x := range map[string]*Index{"eager": eager, "lazy": lazy} {
		for i, q := range qs {
			if !reflect.DeepEqual(x.Filter(q), fresh.Filter(q)) || !reflect.DeepEqual(index.Answer(x, q), index.Answer(fresh, q)) {
				t.Fatalf("%s: query %d answers differ from a fresh Build", name, i)
			}
		}
		if err := x.Materialize(); err != nil {
			t.Fatal(err)
		}
		if dumpTrie(x.Trie()) != dumpTrie(fresh.Trie()) {
			t.Errorf("%s: Walk differs from a fresh Build", name)
		}
		if x.SizeBytes() != fresh.SizeBytes() {
			t.Errorf("%s: SizeBytes %d, fresh Build %d", name, x.SizeBytes(), fresh.SizeBytes())
		}
		env, snap := save(t, x)
		if !bytes.Equal(env, wantEnv) || !bytes.Equal(snap, renumbered(t, snap, fresh.Trie())) {
			t.Errorf("%s: re-save differs from a fresh Build's save", name)
		}
	}
}

// TestIndexIsGGSXIndex pins Grapes' index to GGSX's: built over the same
// dataset, by either Grapes build strategy, and put through the same append
// and swap-remove batch, the two hold the same postings — equal Walk,
// SizeBytes and trie bytes — so no per-posting payload can creep back into
// one of them.
func TestIndexIsGGSXIndex(t *testing.T) {
	db := randomDB(30, 61)
	mutate := func(x index.Mutable) index.Mutable {
		x.Build(db)
		m, _, err := x.AppendGraphs(randomDB(4, 62))
		if err != nil {
			t.Fatal(err)
		}
		if m, _, _, err = m.RemoveGraphs([]int{0, 7, 33}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, opt := range []Options{
		{MaxPathLen: 4, Threads: 1, Shards: 4},
		{MaxPathLen: 4, Threads: 6, BuildWorkers: 1, Shards: 4},
	} {
		gr := mutate(New(opt)).(*Index)
		gg := mutate(ggsx.New(ggsx.Options{MaxPathLen: 4, Shards: 4})).(*ggsx.Index)
		if gr.SizeBytes() != gg.SizeBytes() {
			t.Errorf("threads=%d: SizeBytes Grapes %d, GGSX %d", opt.Threads, gr.SizeBytes(), gg.SizeBytes())
		}
		_, grSnap := save(t, gr)
		_, ggSnap := save(t, gg)
		ggTrie := trie.New()
		if _, err := ggTrie.ReadFrom(bytes.NewReader(ggSnap)); err != nil {
			t.Fatal(err)
		}
		if dumpTrie(gr.Trie()) != dumpTrie(ggTrie) {
			t.Errorf("threads=%d: Walk differs", opt.Threads)
		}
		if !bytes.Equal(grSnap, renumbered(t, grSnap, ggTrie)) || !bytes.Equal(ggSnap, renumbered(t, ggSnap, gr.Trie())) {
			t.Errorf("threads=%d: trie bytes differ", opt.Threads)
		}
	}
}
