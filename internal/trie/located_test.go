package trie

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"repro/internal/features"
)

// Older writers stored Grapes' per-posting vertex locations: flag bit 3 of
// a v3 posting list, the nlocs field of legacy postings and of journal
// feature records. Readers validate those payloads and discard them, so a
// located snapshot loads into exactly the trie its postings describe.

// locatedSnapshot is testdata/located-v3.trie, written by the last writer
// that stored locations (commit e57e015): locatedBase() with the locations
// of locatedLocs, saved over 4 shards, plus one journal section holding
// locatedMutation() with located feature records.
const locatedSnapshot = "testdata/located-v3.trie"

// locatedBase builds the golden snapshot's base postings, interned in the
// order the generator inserted them (block, evens, sparse, solo, gone).
func locatedBase() *Trie {
	tr := newSegmented(features.NewDict(), 4)
	for g := int32(0); g < 300; g++ {
		tr.Insert("block", Posting{Graph: g, Count: 1})
	}
	for g := int32(0); g < 600; g += 2 {
		c := int32(1)
		if g%4 == 0 {
			c = 2
		}
		tr.Insert("evens", Posting{Graph: g, Count: c})
	}
	tr.Insert("sparse", Posting{Graph: 9, Count: 3})
	tr.Insert("sparse", Posting{Graph: 412, Count: 1})
	tr.Insert("solo", Posting{Graph: 5, Count: 1})
	tr.Insert("gone", Posting{Graph: 7, Count: 1})
	return tr
}

// locatedLocs is the location list the generator stored for graph g under
// key (nil: none).
func locatedLocs(key string, g int32) []int32 {
	switch {
	case key == "block" && g%3 == 0:
		return []int32{g % 5}
	case key == "sparse" && g == 9:
		return []int32{2, 5}
	case key == "solo":
		return []int32{0, 1, 2}
	case key == "gone":
		return []int32{3}
	}
	return nil
}

// locatedMutation applies the golden journal's ops: graph 600 is appended,
// then graph 7 is removed and 600 re-homed into its slot, draining "gone".
// The generator staged "block" and "new" with locations {1, 4} and {0}.
func locatedMutation(base *Trie) *Trie {
	feats := []GraphFeature{{Key: "block", Count: 2}, {Key: "new", Count: 1}, {Key: "sparse", Count: 1}}
	mut := base.NewMutation()
	mut.AppendGraph(600, feats)
	mut.RemoveGraph(7, 600, []string{"block", "gone"}, feats)
	return mut.Apply()
}

// encodeLocatedSnapshot hand-writes tr as a v3 snapshot the way writers
// that stored locations did: a posting list with any located member sets
// flag bit 3 and appends card × {nlocs, nlocs × locΔ} after its counts.
// tr must hold no dead features.
func encodeLocatedSnapshot(tr *Trie, locsOf func(key string, g int32) []int32) []byte {
	keys, k := tr.dict.Keys(), tr.Segments()
	buf := append([]byte(persistMagic), uv(persistVersion, uint64(k), uint64(len(keys)))...)
	for _, k := range keys {
		buf = append(append(buf, uv(uint64(len(k)))...), k...)
	}
	bodies := make([][]byte, k)
	nfeat := make([]uint64, k)
	prev := make([]features.FeatureID, k)
	tr.each(func(id features.FeatureID, pl *PostingList) {
		s := uint32(id) & uint32(k-1)
		list := appendPostingList(nil, *pl)
		var locs []byte
		located := false
		pl.Range(func(_ int, g int32) bool {
			ls := locsOf(tr.dict.Key(id), g)
			located = located || len(ls) > 0
			locs = append(locs, uv(uint64(len(ls)))...)
			prevL := int32(0)
			for _, l := range ls {
				locs = append(locs, uv(uint64(l-prevL))...)
				prevL = l
			}
			return true
		})
		if located {
			list[0] |= segFlagLocs
			list = append(list, locs...)
		}
		bodies[s] = append(append(bodies[s], uv(uint64(id-prev[s]))...), list...)
		prev[s] = id
		nfeat[s]++
	})
	for s, body := range bodies {
		body = append(uv(nfeat[s]), body...)
		buf = append(buf, uv(uint64(len(body)))...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
		buf = append(buf, body...)
	}
	return append(buf, sectionEnd)
}

// withJournal appends one journal section with the given raw body to a
// snapshot, the way AppendJournalSection frames it.
func withJournal(snap, body []byte) []byte {
	out := append([]byte(nil), snap[:len(snap)-1]...)
	out = append(out, sectionJournal)
	out = append(out, uv(uint64(len(body)))...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = append(out, body...)
	return append(out, sectionEnd)
}

// locatedJournalBody encodes one append of graph 0 with feature "new"
// carrying the given location deltas.
func locatedJournalBody(locΔ ...uint64) []byte {
	body := binary.LittleEndian.AppendUint64(nil, 1)
	body = append(body, uv(1, 1, 3)...) // ngraphs, nkeys, klen
	body = append(body, "new"...)
	body = append(body, uv(1)...) // nops
	body = append(body, opAppend)
	body = append(body, uv(0, 1, 0, 1, uint64(len(locΔ)))...) // graph, nfeat, keyIdx, count, nlocs
	return append(body, uv(locΔ...)...)
}

// TestLocatedSnapshotLoads: a snapshot the location-storing writer produced
// — located v3 segments and a journal whose ops carry locations — loads
// eagerly and lazily into the trie a current build of the same postings and
// mutation yields: same lists, Walk, SizeBytes and re-saved bytes.
func TestLocatedSnapshotLoads(t *testing.T) {
	golden, err := os.ReadFile(locatedSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	base := locatedBase()
	// The hand encoder reproduces the old writer's base byte for byte, so
	// the round trips below cover what that writer really emitted.
	enc := encodeLocatedSnapshot(base, locatedLocs)
	if !bytes.HasPrefix(golden, enc[:len(enc)-1]) || golden[len(enc)-1] != sectionJournal {
		t.Fatal("encodeLocatedSnapshot does not reproduce the golden base")
	}
	want := locatedMutation(base)
	var wantBytes bytes.Buffer
	if _, err := want.WriteTo(&wantBytes); err != nil {
		t.Fatal(err)
	}

	eager := newSegmented(features.NewDict(), 0)
	if _, _, err := eager.ReadFromOptions(bytes.NewReader(golden), LoadOptions{Strict: true}); err != nil {
		t.Fatal(err)
	}
	lazy := newSegmented(features.NewDict(), 0)
	if _, _, err := lazy.OpenLazy(bytes.NewReader(golden), LazyOptions{Strict: true}); err != nil {
		t.Fatal(err)
	}
	if st := eager.JournalStamp(); st == nil || *st != (JournalStamp{DBChecksum: 11, NumGraphs: 600}) {
		t.Fatalf("journal stamp %+v", st)
	}
	for name, got := range map[string]*Trie{"eager": eager, "lazy": lazy} {
		for _, k := range []string{"block", "evens", "sparse", "solo", "new", "gone"} {
			id, _ := got.dict.Lookup(k)
			wid, _ := want.dict.Lookup(k)
			if !reflect.DeepEqual(got.GetByID(id).Postings(), want.GetByID(wid).Postings()) {
				t.Errorf("%s: postings of %q differ from a current build", name, k)
			}
		}
		if err := got.Materialize(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dump(got), dump(want)) {
			t.Errorf("%s: Walk differs from a current build", name)
		}
		if got.SizeBytes() != want.SizeBytes() {
			t.Errorf("%s: SizeBytes %d, current build %d", name, got.SizeBytes(), want.SizeBytes())
		}
		var resave bytes.Buffer
		if _, err := got.WriteTo(&resave); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resave.Bytes(), wantBytes.Bytes()) {
			t.Errorf("%s: re-save differs from a current build's save", name)
		}
	}
}

// TestCorruptLocationsRejected: location payloads in legacy postings and
// journal feature records are still validated (TestCorruptV3ContainersRejected
// covers v3 segments).
func TestCorruptLocationsRejected(t *testing.T) {
	var empty bytes.Buffer
	if _, err := newSegmented(features.NewDict(), 1).WriteTo(&empty); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"legacy duplicate":  encodeLegacySnapshot(2, 1, map[string][]legacyPosting{"k": {{Graph: 1, Count: 1, Locs: []int32{4, 4}}}}),
		"journal duplicate": withJournal(empty.Bytes(), locatedJournalBody(4, 0)),
		"journal overflow":  withJournal(empty.Bytes(), locatedJournalBody(1<<31)),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := New().ReadFromOptions(bytes.NewReader(data), LoadOptions{Strict: true})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
	// Control: the same journal with valid locations loads.
	tr := New()
	if _, _, err := tr.ReadFromOptions(bytes.NewReader(withJournal(empty.Bytes(), locatedJournalBody(4, 1))), LoadOptions{Strict: true}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Get("new"); !reflect.DeepEqual(got, []Posting{{Graph: 0, Count: 1}}) {
		t.Errorf("journaled postings = %+v", got)
	}
}
