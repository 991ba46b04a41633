package ggsx

import (
	"bytes"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
)

// TestLoadIndexLazyDifferential: a lazily opened GGSX index must answer
// every query identically to the eager load of the same snapshot, touch
// only the shards the queries route to, and materialise into the identical
// fully-resident index.
func TestLoadIndexLazyDifferential(t *testing.T) {
	db := randomDB(40, 1)
	qs := randomQueries(db, 25, 2)
	built := New(Options{MaxPathLen: 3, Shards: 16, BuildWorkers: 2})
	built.Build(db)
	var buf bytes.Buffer
	if err := built.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}

	eager := New(Options{MaxPathLen: 3})
	if _, err := eager.LoadIndex(bytes.NewReader(buf.Bytes()), db); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 2 << 10} { // unbounded; under half the lists these queries touch
		lazy := New(Options{MaxPathLen: 3, BuildWorkers: 2})
		rep, err := lazy.LoadIndexLazy(bytes.NewReader(buf.Bytes()), db, budget)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Bytes != int64(buf.Len()) {
			t.Errorf("LoadIndexLazy reported %d bytes, snapshot is %d", rep.Bytes, buf.Len())
		}
		res := lazy.Residency()
		if !res.Lazy || res.ResidentShards != 0 {
			t.Fatalf("post-open residency %+v: want lazy with no directory open (O(touched) TTFQ)", res)
		}
		for i, q := range qs {
			if !reflect.DeepEqual(eager.Filter(q), lazy.Filter(q)) {
				t.Fatalf("budget %d, query %d: lazy filter diverges", budget, i)
			}
			if !reflect.DeepEqual(index.Answer(eager, q), index.Answer(lazy, q)) {
				t.Fatalf("budget %d, query %d: lazy answers diverge", budget, i)
			}
		}
		res = lazy.Residency()
		if res.Faults == 0 || res.ResidentShards == 0 {
			t.Errorf("queries answered without a posting decode or an open directory: %+v", res)
		}
		// 40-graph lists are a few hundred bytes: none is let through over
		// the 2 KiB budget, so it holds outright.
		if budget > 0 && res.ResidentBytes > budget {
			t.Errorf("resident %d bytes over budget %d: %+v", res.ResidentBytes, budget, res)
		}
		if budget > 0 && res.Evictions == 0 {
			t.Errorf("budget %d never evicted a list: %+v", budget, res)
		}
		if err := lazy.Materialize(); err != nil {
			t.Fatal(err)
		}
		if res := lazy.Residency(); res.Lazy && !res.Materialized {
			t.Errorf("residency after Materialize: %+v", res)
		}
		if eager.SizeBytes() != lazy.SizeBytes() {
			t.Errorf("SizeBytes %d != eager %d after materialise", lazy.SizeBytes(), eager.SizeBytes())
		}
		var esave, lsave bytes.Buffer
		if err := eager.SaveIndex(&esave); err != nil {
			t.Fatal(err)
		}
		if err := lazy.SaveIndex(&lsave); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(esave.Bytes(), lsave.Bytes()) {
			t.Error("materialised lazy index re-saves different bytes")
		}
	}
}

// TestLoadIndexLazyFailureLeavesIndexIntact: the rollback contract carries
// over to the lazy path — a dataset mismatch must leave a live index (and
// its dictionary IDs) untouched.
func TestLoadIndexLazyFailureLeavesIndexIntact(t *testing.T) {
	db := randomDB(20, 8)
	qs := randomQueries(db, 10, 9)
	x := New(Options{MaxPathLen: 3, Shards: 4})
	x.Build(db)
	want := make([][]int32, len(qs))
	for i, q := range qs {
		want[i] = x.Filter(q)
	}
	var buf bytes.Buffer
	if err := x.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	other := randomDB(20, 99)
	if _, err := x.LoadIndexLazy(bytes.NewReader(buf.Bytes()), other, 0); !errors.Is(err, index.ErrDatasetMismatch) {
		t.Fatalf("LoadIndexLazy against the wrong dataset = %v, want ErrDatasetMismatch", err)
	}
	for i, q := range qs {
		if !reflect.DeepEqual(x.Filter(q), want[i]) {
			t.Fatalf("query %d answers changed after failed lazy load", i)
		}
	}
}

// TestLoadersShareTheSegmentRule: an explicit Shards option sets the next
// save's segment count whether the snapshot was opened eagerly or lazily,
// so the same options re-save the same file either way; without the option
// both keep the snapshot's count and re-save it unchanged.
func TestLoadersShareTheSegmentRule(t *testing.T) {
	db := randomDB(40, 1)
	save := func(x *Index) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := x.SaveIndex(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// segments reads the count from the trie header: magic, version, K.
	segments := func(snap []byte) int {
		at := bytes.Index(snap, []byte("IGQTRIE"))
		return int(snap[at+len("IGQTRIE")+1])
	}
	built := New(Options{MaxPathLen: 3, Shards: 16})
	built.Build(db)
	snap := save(built)
	if segments(snap) != 16 {
		t.Fatalf("premise: the build saved %d segments", segments(snap))
	}
	for _, tc := range []struct{ shards, want int }{{0, 16}, {4, 4}} {
		var resaved [][]byte
		for _, lazyOpen := range []bool{false, true} {
			x := New(Options{MaxPathLen: 3, Shards: tc.shards})
			var err error
			if lazyOpen {
				_, err = x.LoadIndexLazy(bytes.NewReader(snap), db, 0)
			} else {
				_, err = x.LoadIndex(bytes.NewReader(snap), db)
			}
			if err != nil {
				t.Fatal(err)
			}
			resaved = append(resaved, save(x))
		}
		for i, got := range resaved {
			if k := segments(got); k != tc.want {
				t.Errorf("Shards %d, lazy=%v: re-saved %d segments, want %d", tc.shards, i == 1, k, tc.want)
			}
		}
		if !bytes.Equal(resaved[0], resaved[1]) {
			t.Errorf("Shards %d: the eager and lazy loads re-save different bytes", tc.shards)
		}
		if tc.shards == 0 && !bytes.Equal(resaved[0], snap) {
			t.Error("a load without Shards re-saves different bytes")
		}
	}
}

// TestLoadedTableHoldsCanonicalChains: loaders intern the snapshot's keys
// as their canonical chains, so a lazily opened (or eagerly loaded) index
// has exactly one path-table node per distinct prefix of a key's label
// sequence until a query walks it.
func TestLoadedTableHoldsCanonicalChains(t *testing.T) {
	db := randomDB(40, 1)
	buf := savedIndex(t, db)
	lazy := New(Options{MaxPathLen: 3})
	if _, err := lazy.LoadIndexLazy(bytes.NewReader(buf), db, 0); err != nil {
		t.Fatal(err)
	}
	eager := New(Options{MaxPathLen: 3})
	if _, err := eager.LoadIndex(bytes.NewReader(buf), db); err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*Index{"lazy": lazy, "eager": eager} {
		want := chainSeqs(t, x.FeatureDict().Keys())
		if n := x.FeatureDict().TableLen(); n != len(want) {
			t.Errorf("%s load: %d table transitions before the first query, want the %d of the keys' chains", name, n, len(want))
		}
	}
}

// chainSeqs returns the distinct prefixes of the label sequences of
// unlabeled path keys, rendered ".l0.l1…".
func chainSeqs(t *testing.T, keys []string) map[string]bool {
	t.Helper()
	seqs := make(map[string]bool)
	for _, k := range keys {
		rest, ok := strings.CutPrefix(k, "p:")
		if !ok || strings.HasPrefix(rest, "!") {
			t.Fatalf("key %q is not an unlabeled path key", k)
		}
		seq := ""
		for _, l := range strings.Split(rest, ".") {
			seq += "." + l
			seqs[seq] = true
		}
	}
	return seqs
}

// TestLazyIndexTableHoldsWhatOneQueryWalked: after one query over a lazily
// opened index, the path table holds the loaded keys' chains and exactly
// the transitions that query walked: one per distinct directed label
// sequence of its known paths (the query's out-of-vocabulary vertex ends
// every path through it).
func TestLazyIndexTableHoldsWhatOneQueryWalked(t *testing.T) {
	db := randomDB(40, 1)
	lazy := New(Options{MaxPathLen: 3})
	if _, err := lazy.LoadIndexLazy(bytes.NewReader(savedIndex(t, db)), db, 0); err != nil {
		t.Fatal(err)
	}
	seqs := chainSeqs(t, lazy.FeatureDict().Keys())
	q := db[7].Clone()
	q.AddVertex(95)
	q.AddEdge(0, q.NumVertices()-1)
	if got := lazy.Filter(q); len(got) != 0 {
		t.Fatalf("a query with an unknown label matched %v", got)
	}
	var walk func(v int, prefix string, depth int, inPath []bool)
	walk = func(v int, prefix string, depth int, inPath []bool) {
		if q.Label(v) == 95 {
			return
		}
		seq := prefix + "." + strconv.Itoa(int(q.Label(v)))
		seqs[seq] = true
		if depth == 3 {
			return
		}
		inPath[v] = true
		for _, w := range q.Neighbors(v) {
			if !inPath[w] {
				walk(int(w), seq, depth+1, inPath)
			}
		}
		inPath[v] = false
	}
	for v := 0; v < q.NumVertices(); v++ {
		walk(v, "", 0, make([]bool, q.NumVertices()))
	}
	if n := lazy.FeatureDict().TableLen(); n != len(seqs) {
		t.Errorf("table holds %d transitions after one query, want the %d of the chains and the walk", n, len(seqs))
	}
}

// savedIndex builds db into a 16-segment snapshot.
func savedIndex(t *testing.T, db []*graph.Graph) []byte {
	t.Helper()
	x := New(Options{MaxPathLen: 3, Shards: 16})
	x.Build(db)
	var buf bytes.Buffer
	if err := x.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
