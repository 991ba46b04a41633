package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/features"
)

// newSegmented returns an empty trie over d that saves k segments.
func newSegmented(d *features.Dict, k int) *Trie {
	tr := NewWithDict(d)
	tr.SetSegments(k)
	return tr
}

// randomTrie builds a trie with nKeys random features over nGraphs graphs,
// deterministically from seed, saving shards segments.
func randomTrie(t *testing.T, shards, nKeys, nGraphs int, seed int64) *Trie {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := newSegmented(features.NewDict(), shards)
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("p:%d.%d", rng.Intn(50), rng.Intn(50))
		for g := 0; g < nGraphs; g++ {
			if rng.Intn(3) != 0 {
				continue
			}
			tr.Insert(key, Posting{Graph: int32(g), Count: int32(1 + rng.Intn(5))})
		}
	}
	return tr
}

// dump flattens a trie into a comparable structure: Walk order, keys,
// postings (graphs, counts).
func dump(tr *Trie) []string {
	var out []string
	tr.Walk(func(key string, posts []Posting) {
		out = append(out, fmt.Sprintf("%s=%v", key, posts))
	})
	return out
}

// TestTrieRoundTrip loads what WriteTo wrote and, with locs, the same trie
// as writers that stored Grapes locations wrote it: both must load into the
// saved trie, and a re-save must emit WriteTo's bytes.
func TestTrieRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16} {
		for _, locs := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("shards=%d/locs=%v/workers=%d", shards, locs, workers)
				t.Run(name, func(t *testing.T) {
					tr := randomTrie(t, shards, 200, 30, 42)
					var buf bytes.Buffer
					n, err := tr.WriteTo(&buf)
					if err != nil {
						t.Fatal(err)
					}
					if n != int64(buf.Len()) {
						t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
					}
					data := buf.Bytes()
					if locs {
						data = encodeLocatedSnapshot(tr, func(_ string, g int32) []int32 {
							return []int32{g % 7, g%7 + 3}[:1+g%2]
						})
					}

					got := newSegmented(features.NewDict(), 1) // the snapshot's count replaces it
					rn, _, err := got.ReadFromOptions(bytes.NewReader(data), LoadOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if rn != int64(len(data)) {
						t.Errorf("ReadFrom consumed %d bytes, snapshot is %d", rn, len(data))
					}
					var resave bytes.Buffer
					if _, err := got.WriteTo(&resave); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(resave.Bytes(), buf.Bytes()) {
						t.Error("re-save differs from WriteTo's bytes")
					}
					if got.Segments() != tr.Segments() {
						t.Errorf("loaded segment count %d, saved %d", got.Segments(), tr.Segments())
					}
					if got.Len() != tr.Len() || got.SizeBytes() != tr.SizeBytes() {
						t.Errorf("loaded Len/SizeBytes = %d/%d, want %d/%d",
							got.Len(), got.SizeBytes(), tr.Len(), tr.SizeBytes())
					}
					if !reflect.DeepEqual(dump(got), dump(tr)) {
						t.Error("loaded trie contents differ from saved")
					}
					// The dictionary round-trips to identical IDs, so the
					// ID-keyed read path answers identically.
					for _, k := range tr.dict.Keys() {
						id, ok := got.dict.Lookup(k)
						if !ok {
							t.Fatalf("key %q missing after load", k)
						}
						wid, _ := tr.dict.Lookup(k)
						if id != wid {
							t.Fatalf("key %q interned as %d, saved as %d", k, id, wid)
						}
						if !reflect.DeepEqual(got.GetByID(id).Postings(), tr.GetByID(wid).Postings()) {
							t.Fatalf("postings for %q differ after load", k)
						}
					}
				})
			}
		}
	}
}

func TestTrieRoundTripEmpty(t *testing.T) {
	tr := newSegmented(features.NewDict(), 4)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got := New()
	if _, err := got.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || len(dump(got)) != 0 {
		t.Errorf("empty trie round-tripped to Len=%d, Walk %v", got.Len(), dump(got))
	}
}

// Loading into a trie whose dictionary already holds other keys remaps the
// postings to the freshly interned IDs; contents stay identical.
func TestTrieRoundTripRemap(t *testing.T) {
	tr := randomTrie(t, 4, 100, 20, 7)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d := features.NewDict()
	d.Intern("z:pre-existing-0")
	d.Intern("z:pre-existing-1")
	got := newSegmented(d, 4)
	if _, err := got.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dump(got), dump(tr)) {
		t.Error("remapped load differs from saved contents")
	}
	// Postings must be reachable through the *new* IDs.
	tr.Walk(func(key string, posts []Posting) {
		id, ok := d.Lookup(key)
		if !ok {
			t.Fatalf("key %q missing from destination dictionary", key)
		}
		if !reflect.DeepEqual(got.GetByID(id).Postings(), posts) {
			t.Fatalf("postings for %q differ under remapped ID", key)
		}
	})
}

// TestNormalizeShards pins how a requested snapshot segment count (the
// "shard count" of the -shards era) is rounded: up to a power of two,
// capped at 64, with 0 meaning one per CPU.
func TestNormalizeShards(t *testing.T) {
	for in, want := range map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 64: 64, 65: 64, 1000: 64} {
		if got := normalizeSegments(in); got != want {
			t.Errorf("normalizeSegments(%d) = %d, want %d", in, got, want)
		}
	}
	if got := normalizeSegments(0); got < 1 || got&(got-1) != 0 {
		t.Errorf("normalizeSegments(0) = %d, want a positive power of two", got)
	}
}

// segmentFiles saves src once at each segment count in ks.
func segmentFiles(t *testing.T, src *Trie, ks []int) map[int][]byte {
	t.Helper()
	files := map[int][]byte{}
	for _, k := range ks {
		src.SetSegments(k)
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		files[k] = buf.Bytes()
	}
	return files
}

// loadBoth opens one snapshot eagerly and lazily.
func loadBoth(t *testing.T, data []byte) map[string]*Trie {
	t.Helper()
	eager := New()
	if _, err := eager.ReadFrom(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	lazy := New()
	if _, _, err := lazy.OpenLazy(bytes.NewReader(data), LazyOptions{}); err != nil {
		t.Fatal(err)
	}
	return map[string]*Trie{"eager": eager, "lazy": lazy}
}

// TestShardCountInvisible pins that a snapshot's segment count K shapes
// only the file: the same trie saved at any K loads — eagerly or lazily —
// into the same Walk, the same per-feature postings and the same
// SizeBytes, and adopts K for its next save.
func TestShardCountInvisible(t *testing.T) {
	src := randomTrie(t, 1, 300, 40, 11)
	want, size := dump(src), src.SizeBytes()
	for k, data := range segmentFiles(t, src, []int{1, 2, 16, 64}) {
		for name, tr := range loadBoth(t, data) {
			for _, key := range src.dict.Keys() {
				id, _ := tr.dict.Lookup(key)
				if !reflect.DeepEqual(tr.GetByID(id).Postings(), src.Get(key)) {
					t.Fatalf("K=%d %s: postings of %q differ", k, name, key)
				}
			}
			if got := dump(tr); !reflect.DeepEqual(got, want) {
				t.Errorf("K=%d %s: Walk differs from the saved trie", k, name)
			}
			if got := tr.SizeBytes(); got != size {
				t.Errorf("K=%d %s: SizeBytes %d, saved trie %d", k, name, got, size)
			}
			if tr.Segments() != k {
				t.Errorf("K=%d %s: adopted %d segments", k, name, tr.Segments())
			}
		}
	}
}

// TestTrieReshard pins re-saving at another segment count, which replaced
// in-memory resharding: a trie loaded at K re-saves at the adopted K byte
// for byte, and after SetSegments exactly as a direct save at the new K.
func TestTrieReshard(t *testing.T) {
	src := randomTrie(t, 1, 300, 40, 11)
	files := segmentFiles(t, src, []int{1, 2, 16, 64})
	for k, data := range files {
		for name, tr := range loadBoth(t, data) {
			for _, to := range []int{k, 16} {
				tr.SetSegments(to)
				var buf bytes.Buffer
				if _, err := tr.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), files[to]) {
					t.Errorf("K=%d %s: re-save at %d segments differs from a direct save", k, name, to)
				}
			}
		}
	}
}

func TestTrieReadFromRejectsCorruption(t *testing.T) {
	tr := randomTrie(t, 2, 50, 10, 3)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ok := buf.Bytes()

	cases := map[string][]byte{
		"bad magic":  append([]byte("NOTATRIE"), ok[8:]...),
		"truncated":  ok[:len(ok)/2],
		"bit flip":   flipByte(ok, len(ok)-3), // lands in the last segment body → CRC
		"empty":      {},
		"crc damage": flipByte(ok, len(ok)-len(lastSegment(ok))-2), // flips the stored CRC
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			got := New()
			if _, err := got.ReadFrom(bytes.NewReader(data)); err == nil {
				t.Error("corrupt snapshot loaded without error")
			}
		})
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// lastSegment is a rough helper for test construction only: returns a tail
// slice no larger than the final segment.
func lastSegment(b []byte) []byte {
	if len(b) < 8 {
		return b
	}
	return b[len(b)-4:]
}

// A version newer than the reader must be rejected with a version error.
func TestTrieReadFromRejectsNewerVersion(t *testing.T) {
	tr := newSegmented(features.NewDict(), 1)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[len(persistMagic)] = persistVersion + 1 // version byte follows the magic
	got := New()
	if _, err := got.ReadFrom(bytes.NewReader(data)); err == nil {
		t.Error("newer snapshot version loaded without error")
	}
}
