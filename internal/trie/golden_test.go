package trie

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/features"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-*.trie from the current writer")

// goldenTrie builds a fixed small trie holding every container kind
// (array, bitmap, runs), non-unit counts, and a feature drained by a
// removal, so a save compacts the dictionary.
func goldenTrie(segments int) *Trie {
	tr := newSegmented(features.NewDict(), segments)
	for g := int32(0); g < 300; g++ {
		tr.Insert("C", Posting{Graph: g, Count: 1}) // one run
		if g%3 != 0 {
			tr.Insert("C-C", Posting{Graph: g, Count: 1 + g%2}) // dense: bitmap, with counts
		}
		if g%37 == 0 {
			tr.Insert("C-N", Posting{Graph: g, Count: 1}) // sparse: array
		}
		if g >= 100 && g < 140 {
			tr.Insert("N-O", Posting{Graph: g, Count: 2})
		}
	}
	for i := 0; i < 40; i++ {
		tr.Insert(fmt.Sprintf("k%02d", i), Posting{Graph: int32(i * 7 % 300), Count: int32(1 + i%3)})
	}
	tr.Insert("gone", Posting{Graph: 299, Count: 4})
	tr.RemoveGraph(299) // drains "gone": its key is dead and not written
	return tr
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wrote %d bytes that differ from the %d golden bytes", name, len(got), len(want))
	}
}

// TestSnapshotBytesGolden pins the on-disk format byte for byte: the same
// trie written at several segment counts, and a journaled snapshot plus
// the re-save of its eager and lazy loads, must reproduce the committed
// files.
func TestSnapshotBytesGolden(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		var buf bytes.Buffer
		if _, err := goldenTrie(k).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("golden-k%d.trie", k), buf.Bytes())
	}

	// Journaled: the K=4 base plus one section holding an append and a
	// swap-removal.
	base := goldenTrie(4)
	path := filepath.Join(t.TempDir(), "j.trie")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	mut := base.NewMutation()
	mut.AppendGraph(299, []GraphFeature{{Key: "C", Count: 1}, {Key: "new", Count: 3}})
	mut.RemoveGraph(37, 299, []string{"C", "C-C", "C-N"}, []GraphFeature{{Key: "C", Count: 1}, {Key: "new", Count: 3}})
	var j Journal
	mut.RecordTo(&j)
	if _, err := AppendJournalSection(f, &j, JournalStamp{DBChecksum: 7, NumGraphs: 299}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	journaled, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden-journaled.trie", journaled)

	eager := newSegmented(features.NewDict(), 1)
	if _, err := eager.ReadFrom(bytes.NewReader(journaled)); err != nil {
		t.Fatal(err)
	}
	lazy := newSegmented(features.NewDict(), 1)
	if _, _, err := lazy.OpenLazy(bytes.NewReader(journaled), LazyOptions{}); err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Trie{"eager": eager, "lazy": lazy} {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if *updateGolden && name == "lazy" {
			continue // the eager re-save writes the file; lazy must match it
		}
		checkGolden(t, "golden-journaled-resave.trie", buf.Bytes())
	}
}
