package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/features"
)

// randomTrie builds a trie with nKeys random features over nGraphs graphs,
// deterministically from seed.
func randomTrie(t *testing.T, shards, nKeys, nGraphs int, seed int64) *Trie {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := NewSharded(features.NewDict(), shards)
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

					got := NewSharded(features.NewDict(), 1) // layout is overwritten by the snapshot
					rn, err := got.ReadFromWorkers(bytes.NewReader(data), workers)
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
					if got.ShardCount() != tr.ShardCount() {
						t.Errorf("loaded shard count %d, saved %d", got.ShardCount(), tr.ShardCount())
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
	tr := NewSharded(features.NewDict(), 4)
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
	got := NewSharded(d, 4)
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

func TestTrieReshard(t *testing.T) {
	tr := randomTrie(t, 8, 150, 25, 11)
	before := dump(tr)
	size := tr.SizeBytes() - 24*tr.ShardCount() // directory headers scale with K
	for _, k := range []int{1, 2, 16, 64} {
		tr.Reshard(k)
		if tr.ShardCount() != k {
			t.Fatalf("Reshard(%d) left %d shards", k, tr.ShardCount())
		}
		if !reflect.DeepEqual(dump(tr), before) {
			t.Fatalf("Reshard(%d) changed contents", k)
		}
		if got := tr.SizeBytes() - 24*tr.ShardCount(); got != size {
			t.Fatalf("Reshard(%d) changed postings size: %d != %d", k, got, size)
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
	tr := NewSharded(features.NewDict(), 1)
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
