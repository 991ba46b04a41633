package trie

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"sort"
	"testing"
)

// legacyPosting is a posting as older writers stored it: with the Grapes
// vertex locations that the reader now validates and discards.
type legacyPosting struct {
	Graph, Count int32
	Locs         []int32
}

// encodeLegacySnapshot hand-writes a version-1 or version-2 snapshot (the
// flat posting-run grammar) over ds — the current writer only emits v3, so
// backward-compat coverage needs its own encoder. Keys are interned in
// sorted order; shard = id mod shards.
func encodeLegacySnapshot(version int, shards int, ds map[string][]legacyPosting) []byte {
	keys := make([]string, 0, len(ds))
	for k := range ds {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var buf []byte
	buf = append(buf, persistMagic...)
	buf = binary.AppendUvarint(buf, uint64(version))
	buf = binary.AppendUvarint(buf, uint64(shards))
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	for s := 0; s < shards; s++ {
		var body []byte
		var ids []int
		for id := range keys {
			if id%shards == s {
				ids = append(ids, id)
			}
		}
		body = binary.AppendUvarint(body, uint64(len(ids)))
		prevID := 0
		for _, id := range ids {
			body = binary.AppendUvarint(body, uint64(id-prevID))
			prevID = id
			ps := append([]legacyPosting(nil), ds[keys[id]]...)
			sort.Slice(ps, func(i, j int) bool { return ps[i].Graph < ps[j].Graph })
			body = binary.AppendUvarint(body, uint64(len(ps)))
			prevG := int32(0)
			for _, p := range ps {
				body = binary.AppendUvarint(body, uint64(p.Graph-prevG))
				prevG = p.Graph
				body = binary.AppendUvarint(body, uint64(p.Count))
				body = binary.AppendUvarint(body, uint64(len(p.Locs)))
				prevL := int32(0)
				for _, l := range p.Locs {
					body = binary.AppendUvarint(body, uint64(l-prevL))
					prevL = l
				}
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(body)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
		buf = append(buf, body...)
	}
	if version >= 2 {
		buf = append(buf, sectionEnd)
	}
	return buf
}

// legacyDataset mixes the container regimes so the promotion path has
// something to promote: a contiguous block (runs territory), an even-id
// scatter (bitmap territory) and a sparse handful (stays an array).
func legacyDataset() map[string][]legacyPosting {
	ds := map[string][]legacyPosting{}
	var block, evens []legacyPosting
	for g := int32(0); g < 400; g++ {
		block = append(block, legacyPosting{Graph: g, Count: 1})
	}
	for g := int32(0); g < 1000; g += 2 {
		evens = append(evens, legacyPosting{Graph: g, Count: 1})
	}
	ds["dense.block"] = block
	ds["dense.evens"] = evens
	ds["sparse"] = []legacyPosting{
		{Graph: 3, Count: 2, Locs: []int32{1, 4}},
		{Graph: 250, Count: 1},
		{Graph: 251, Count: 1},
		{Graph: 700, Count: 3},
		{Graph: 999, Count: 1},
	}
	return ds
}

// TestLegacySnapshotsPromoteOnLoad: version-1 and version-2 snapshots (flat
// posting runs) must still load, matching a fresh build of the same content
// — and the decoder must promote dense features out of arrays, the
// "arrays first, re-encoded where density warrants" migration path.
func TestLegacySnapshotsPromoteOnLoad(t *testing.T) {
	ds := legacyDataset()
	fresh := New()
	for k, ps := range ds {
		for _, p := range ps {
			fresh.Insert(k, Posting{Graph: p.Graph, Count: p.Count})
		}
	}
	for _, version := range []int{1, 2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			data := encodeLegacySnapshot(version, 4, ds)
			got := New()
			if _, err := got.ReadFrom(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dump(got), dump(fresh)) {
				t.Fatal("legacy snapshot contents diverge from a fresh build")
			}
			wantKinds := map[string]ContainerKind{
				"dense.block": KindRuns,
				"dense.evens": KindBitmap,
				"sparse":      KindArray,
			}
			for key, want := range wantKinds {
				id, ok := got.dict.Lookup(key)
				if !ok {
					t.Fatalf("key %q missing", key)
				}
				if kind := got.GetByID(id).IDs().Kind(); kind != want {
					t.Errorf("%q promoted to %v, want %v", key, kind, want)
				}
			}
			// An array-only reader of the same legacy bytes keeps flat arrays.
			flat := New()
			flat.SetContainerPolicy(ArrayOnlyContainers)
			if _, err := flat.ReadFrom(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			id, _ := flat.dict.Lookup("dense.block")
			if kind := flat.GetByID(id).IDs().Kind(); kind != KindArray {
				t.Errorf("array-only policy loaded %v", kind)
			}
		})
	}
}

// v3Snapshot wraps one hand-crafted posting-list payload (for the feature
// id 0, key "k") in a structurally valid single-shard v3 snapshot: correct
// magic, dictionary, segment length and CRC — so the bytes reach
// decodePostingList instead of dying at the frame checks.
func v3Snapshot(postingList []byte) []byte {
	var buf []byte
	buf = append(buf, persistMagic...)
	buf = binary.AppendUvarint(buf, persistVersion)
	buf = binary.AppendUvarint(buf, 1) // shards
	buf = binary.AppendUvarint(buf, 1) // nkeys
	buf = binary.AppendUvarint(buf, 1)
	buf = append(buf, 'k')
	var body []byte
	body = binary.AppendUvarint(body, 1) // nfeat
	body = binary.AppendUvarint(body, 0) // idΔ
	body = append(body, postingList...)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	buf = append(buf, body...)
	return append(buf, sectionEnd)
}

func uv(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestCorruptV3ContainersRejected drives structurally invalid container
// payloads — every tag, plus truncations and denormalised forms — through
// the decoder: each must fail with ErrCorrupt (never panic), and a failed
// load must leave the destination trie's previous contents intact.
func TestCorruptV3ContainersRejected(t *testing.T) {
	le64 := func(w uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		return b[:]
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := map[string][]byte{
		"reserved tag 3":       cat([]byte{3}, uv(2, 1, 1)),
		"reserved high flags":  cat([]byte{0x40}, uv(2, 1, 1)),
		"zero cardinality":     cat([]byte{segTagArray}, uv(0)),
		"array duplicate id":   cat([]byte{segTagArray}, uv(3, 5, 0, 1)),
		"array truncated":      cat([]byte{segTagArray}, uv(3, 5, 1)),
		"bitmap zero words":    cat([]byte{segTagBitmap}, uv(1, 0, 0)),
		"bitmap popcount":      cat([]byte{segTagBitmap}, uv(3, 0, 1), le64(0xFF)), // 8 bits ≠ card 3
		"bitmap zero edge":     cat([]byte{segTagBitmap}, uv(2, 0, 2), le64(3), le64(0)),
		"bitmap truncated":     cat([]byte{segTagBitmap}, uv(64, 0, 2), le64(^uint64(0))),
		"bitmap span absurd":   cat([]byte{segTagBitmap}, uv(2, 1<<30, 2), le64(1), le64(1)),
		"runs zero runs":       cat([]byte{segTagRuns}, uv(4, 0)),
		"runs length mismatch": cat([]byte{segTagRuns}, uv(4, 1, 0, 2)), // covers 3 ids, card 4
		"runs more than card":  cat([]byte{segTagRuns}, uv(1, 2, 0, 0, 0, 0)),
		"counts all ones":      cat([]byte{segTagArray | segFlagCounts}, uv(2, 1, 1, 1, 1)),
		"locs all empty":       cat([]byte{segTagArray | segFlagLocs}, uv(2, 1, 1, 0, 0)),
		"locs duplicate":       cat([]byte{segTagArray | segFlagLocs}, uv(2, 1, 1, 2, 3, 0, 0)),
		"locs truncated":       cat([]byte{segTagArray | segFlagLocs}, uv(2, 1, 1, 1)),
		"locs overflow":        cat([]byte{segTagArray | segFlagLocs}, uv(1, 5, 1, 1<<31)),
		"counts truncated":     cat([]byte{segTagArray | segFlagCounts}, uv(2, 1, 1, 2)),
	}
	for name, pl := range cases {
		t.Run(name, func(t *testing.T) {
			pre := New()
			pre.Insert("keep", Posting{Graph: 1, Count: 2})
			before := dump(pre)
			_, err := pre.ReadFrom(bytes.NewReader(v3Snapshot(pl)))
			if err == nil {
				t.Fatal("corrupt container payload loaded without error")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			if !reflect.DeepEqual(dump(pre), before) {
				t.Error("failed load did not leave the trie intact")
			}
		})
	}
	// Control: a well-formed hand-built payload of each tag decodes.
	valid := map[string][]byte{
		"array":  cat([]byte{segTagArray}, uv(2, 5, 3)),
		"bitmap": cat([]byte{segTagBitmap}, uv(9, 0, 2), le64(0xFF), le64(1)),
		"runs":   cat([]byte{segTagRuns}, uv(12, 2, 0, 5, 2, 5)),
	}
	for name, pl := range valid {
		t.Run("valid "+name, func(t *testing.T) {
			tr := New()
			if _, err := tr.ReadFrom(bytes.NewReader(v3Snapshot(pl))); err != nil {
				t.Fatalf("well-formed %s payload rejected: %v", name, err)
			}
			id, ok := tr.dict.Lookup("k")
			if !ok || tr.GetByID(id).Len() == 0 {
				t.Fatal("decoded feature missing")
			}
		})
	}
}

// TestNonCanonicalV3Promoted: the reader accepts any structurally valid
// container and re-encodes it canonically — a sparse set arriving as a
// bitmap must come back as an array, and dense runs arriving as an array
// must be promoted.
func TestNonCanonicalV3Promoted(t *testing.T) {
	le64 := func(w uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		return b[:]
	}
	// Two distant ids {0, 640} encoded as a sprawling (valid) bitmap.
	pl := append([]byte{segTagBitmap}, uv(2, 0, 11)...)
	pl = append(pl, le64(1)...)
	for i := 0; i < 9; i++ {
		pl = append(pl, le64(0)...)
	}
	pl = append(pl, le64(1)...)
	tr := New()
	if _, err := tr.ReadFrom(bytes.NewReader(v3Snapshot(pl))); err != nil {
		t.Fatal(err)
	}
	id, _ := tr.dict.Lookup("k")
	got := tr.GetByID(id)
	if got.IDs().Kind() != KindArray {
		t.Errorf("sparse bitmap not demoted to array: %v", got.IDs().Kind())
	}
	if got.Len() != 2 {
		t.Errorf("cardinality %d after promotion, want 2", got.Len())
	}

	// A contiguous block of 300 ids encoded as a (valid) flat array.
	arr := append([]byte{segTagArray}, uv(300)...)
	arr = append(arr, uv(7)...) // first id 7
	for i := 1; i < 300; i++ {
		arr = append(arr, uv(1)...)
	}
	tr2 := New()
	if _, err := tr2.ReadFrom(bytes.NewReader(v3Snapshot(arr))); err != nil {
		t.Fatal(err)
	}
	id2, _ := tr2.dict.Lookup("k")
	if kind := tr2.GetByID(id2).IDs().Kind(); kind != KindRuns {
		t.Errorf("contiguous array not promoted to runs: %v", kind)
	}
}
