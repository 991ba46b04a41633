package trie

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/features"
)

// fuzzSeedTrie builds a small representative trie: multi-shard postings,
// a removal (dead-key compaction on write) and a pending resurrection
// case.
func fuzzSeedTrie() *Trie {
	tr := newSegmented(features.NewDict(), 4)
	tr.Insert("ab", Posting{Graph: 0, Count: 2})
	tr.Insert("abc", Posting{Graph: 0, Count: 1})
	tr.Insert("abd", Posting{Graph: 1, Count: 4})
	tr.Insert("b", Posting{Graph: 2, Count: 1})
	tr.Insert("zz", Posting{Graph: 1, Count: 1})
	tr.RemoveGraph(1) // drains "abd" and "zz": exercises dict compaction
	return tr
}

// fuzzDenseSeedTrie exercises every v3 container tag in one snapshot: a
// contiguous block (runs), an even-id scatter (bitmap), a sparse array and
// a dense feature with counts riding along.
func fuzzDenseSeedTrie() *Trie {
	tr := newSegmented(features.NewDict(), 2)
	for g := int32(0); g < 300; g++ {
		tr.Insert("block", Posting{Graph: g, Count: 1})
	}
	for g := int32(0); g < 600; g += 2 {
		tr.Insert("evens", Posting{Graph: g, Count: 1})
	}
	tr.Insert("sparse", Posting{Graph: 9, Count: 3})
	tr.Insert("sparse", Posting{Graph: 412, Count: 1})
	for g := int32(100); g < 260; g++ {
		tr.Insert("sides", Posting{Graph: g, Count: 1 + g%3})
	}
	return tr
}

// FuzzTrieReadFrom feeds arbitrary bytes — seeded with valid snapshots of
// every version (current v3 with all three container tags, hand-encoded
// v1/v2 legacy grammars), journaled snapshots, truncations, bit flips and
// hand-crafted corrupt container payloads — into the snapshot decoder. The
// decoder must return an error or a valid trie; it must never panic, the
// sanity bounds must keep a lying length field from forcing an absurd
// allocation, and a failed load must leave the destination untouched.
func FuzzTrieReadFrom(f *testing.F) {
	// Seed: plain v3 snapshot (with a compacted dictionary).
	var v2 bytes.Buffer
	if _, err := fuzzSeedTrie().WriteTo(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())

	// Seed: v3 snapshot carrying all three container tags (bitmap words,
	// run intervals, arrays and counts).
	var dense bytes.Buffer
	if _, err := fuzzDenseSeedTrie().WriteTo(&dense); err != nil {
		f.Fatal(err)
	}
	f.Add(dense.Bytes())
	f.Add(dense.Bytes()[:len(dense.Bytes())*2/3]) // truncated mid-container
	dflip := append([]byte(nil), dense.Bytes()...)
	dflip[len(dflip)/2] ^= 0x04
	f.Add(dflip)

	// Seeds: hand-encoded legacy v1/v2 snapshots (flat posting runs) over
	// mixed-density data — the promotion path.
	f.Add(encodeLegacySnapshot(1, 2, legacyDataset()))
	f.Add(encodeLegacySnapshot(2, 4, legacyDataset()))

	// Seeds: structurally invalid v3 container payloads behind valid frame
	// CRCs, so the mutation engine starts from bytes that reach the
	// container decoder (not just the envelope checks).
	f.Add(v3Snapshot(append([]byte{3}, uv(2, 1, 1)...)))             // reserved tag
	f.Add(v3Snapshot(append([]byte{segTagBitmap}, uv(3, 0, 0)...)))  // zero words
	f.Add(v3Snapshot(append([]byte{segTagRuns}, uv(4, 1, 0, 2)...))) // length mismatch

	// Seed: current-version snapshot with a journal section holding both op
	// kinds.
	tr := fuzzSeedTrie()
	mut := tr.NewMutation()
	mut.AppendGraph(3, []GraphFeature{{Key: "abd", Count: 2}, {Key: "q", Count: 1}})
	mut.RemoveGraph(0, 3,
		[]string{"ab", "abc"},
		[]GraphFeature{{Key: "abd", Count: 2}, {Key: "q", Count: 1}})
	var j1 Journal
	mut.RecordTo(&j1)
	f.Add(journaledSeed(f, &j1))

	// Seed: version-1 snapshot (v2 bytes with the version field patched and
	// the section terminator stripped; the v1 grammar has no sections).
	v1 := append([]byte(nil), v2.Bytes()...)
	v1[len(persistMagic)] = 1
	v1 = v1[:len(v1)-1]
	f.Add(v1)

	// Seeds: truncation and bit flips of the valid v2 snapshot.
	f.Add(v2.Bytes()[:len(v2.Bytes())/2])
	flip := append([]byte(nil), v2.Bytes()...)
	flip[len(flip)/3] ^= 0x20
	f.Add(flip)

	// Seeds: torn journal tails — the crash-mid-append signature the
	// recovery mode must salvage. Truncations at several byte boundaries
	// of the journaled region plus a bit flip inside the journal body.
	journaled := journaledSeed(f, &j1)
	baseLen := len(v2.Bytes())
	for _, cut := range []int{0, 1, (len(journaled) - baseLen) / 2, len(journaled) - baseLen - 1} {
		f.Add(journaled[:baseLen+cut])
	}
	jflip := append([]byte(nil), journaled...)
	jflip[(baseLen+len(jflip))/2] ^= 0x08
	f.Add(jflip)

	// Seed: snapshot truncated inside the segment directory (mid-header of a
	// later shard), so the lazy open's eager phase hits EOF while walking
	// per-shard headers rather than inside a body.
	probe := newSegmented(features.NewDict(), 0)
	if _, _, err := probe.OpenLazy(bytes.NewReader(dense.Bytes()), LazyOptions{}); err != nil {
		f.Fatal(err)
	}
	f.Add(dense.Bytes()[:probe.lazyLive.Load().segs[1].off-2])

	// Seeds: a snapshot of the writer that stored Grapes locations — located
	// segments plus a journal whose ops carry locations — intact and with a
	// bit flipped inside a located list.
	located, err := os.ReadFile(locatedSnapshot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(located)
	lflip := append([]byte(nil), located...)
	lflip[len(lflip)/3] ^= 0x02
	f.Add(lflip)

	// Seeds: both segment-count extremes — one segment holding every
	// feature, and 64 segments, most of them empty.
	for _, k := range []int{1, 64} {
		f.Add(segmentedSeed(f, k))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := newSegmented(features.NewDict(), 0)
		// Error, success, or tail recovery — never a panic, never
		// unbounded allocation, never a half-applied delta.
		n, rec, err := tr.ReadFromOptions(bytes.NewReader(data), LoadOptions{})

		// Lazy leg: the deferred-decode loader must agree with the eager
		// loader on accept/reject — corruption it defers to fault-in has to
		// surface by Materialize, and it must never reject bytes the eager
		// loader accepts.
		lz := newSegmented(features.NewDict(), 0)
		ln, lrec, lerr := lz.OpenLazy(bytes.NewReader(data), LazyOptions{})
		if lerr == nil {
			lerr = lz.Materialize()
		}
		if (err == nil) != (lerr == nil) {
			t.Fatalf("lazy/eager accept disagreement: eager err=%v, lazy err=%v", err, lerr)
		}
		if err != nil {
			return
		}
		if ln != n {
			t.Fatalf("lazy consumed %d bytes, eager %d", ln, n)
		}
		if (rec == nil) != (lrec == nil) || (rec != nil && *rec != *lrec) {
			t.Fatalf("lazy/eager recovery disagreement: eager %+v, lazy %+v", rec, lrec)
		}
		var esave, lsave bytes.Buffer
		if _, err := tr.WriteTo(&esave); err != nil {
			t.Fatal(err)
		}
		if _, err := lz.WriteTo(&lsave); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(esave.Bytes(), lsave.Bytes()) {
			t.Fatal("lazy load re-saves different bytes than eager load")
		}
		if rec == nil {
			// A clean load must agree with strict mode.
			str := newSegmented(features.NewDict(), 0)
			if _, rec2, err2 := str.ReadFromOptions(bytes.NewReader(data), LoadOptions{Strict: true}); err2 != nil || rec2 != nil {
				t.Fatalf("clean load disagrees with strict mode: err=%v rec=%+v", err2, rec2)
			}
			return
		}
		// Tail recovery: a strict load must reject the same bytes, and the
		// committed prefix plus a terminator must be a well-formed snapshot
		// decoding to the identical trie (the committed-prefix oracle — the
		// recovered state contains exactly the fully-committed sections).
		if _, _, err := newSegmented(features.NewDict(), 0).ReadFromOptions(bytes.NewReader(data), LoadOptions{Strict: true}); err == nil {
			t.Fatal("strict mode accepted a snapshot the default mode had to recover")
		}
		if rec.CommittedBytes < 0 || rec.CommittedBytes > int64(len(data)) || n < rec.CommittedBytes {
			t.Fatalf("recovery offsets out of range: %+v (n=%d len=%d)", rec, n, len(data))
		}
		prefix := append(append([]byte(nil), data[:rec.CommittedBytes]...), sectionEnd)
		oracle := newSegmented(features.NewDict(), 0)
		if _, rec2, err := oracle.ReadFromOptions(bytes.NewReader(prefix), LoadOptions{Strict: true}); err != nil || rec2 != nil {
			t.Fatalf("committed prefix fails strict load: err=%v rec=%+v", err, rec2)
		}
		var got, want bytes.Buffer
		if _, err := tr.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("recovered trie diverges from committed-prefix oracle")
		}
	})
}

// journaledSeed encodes seedTrie's base snapshot plus one journal section.
func journaledSeed(f *testing.F, j *Journal) []byte {
	f.Helper()
	var base bytes.Buffer
	if _, err := fuzzSeedTrie().WriteTo(&base); err != nil {
		f.Fatal(err)
	}
	rw := &memFile{b: append([]byte(nil), base.Bytes()...)}
	if _, err := AppendJournalSection(rw, j, JournalStamp{DBChecksum: 7, NumGraphs: 4}); err != nil {
		f.Fatal(err)
	}
	return rw.b
}

// memFile is a minimal in-memory io.ReadWriteSeeker for seed construction.
type memFile struct {
	b   []byte
	off int64
}

func (m *memFile) Read(p []byte) (int, error) {
	if m.off >= int64(len(m.b)) {
		return 0, bytes.ErrTooLarge // unused in practice
	}
	n := copy(p, m.b[m.off:])
	m.off += int64(n)
	return n, nil
}

func (m *memFile) Write(p []byte) (int, error) {
	need := m.off + int64(len(p))
	for int64(len(m.b)) < need {
		m.b = append(m.b, 0)
	}
	copy(m.b[m.off:], p)
	m.off = need
	return len(p), nil
}

func (m *memFile) Truncate(size int64) error {
	for int64(len(m.b)) < size {
		m.b = append(m.b, 0)
	}
	m.b = m.b[:size]
	return nil
}

func (m *memFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case 0:
		m.off = offset
	case 1:
		m.off += offset
	case 2:
		m.off = int64(len(m.b)) + offset
	}
	return m.off, nil
}

// segmentBodies returns the segment bodies of a well-formed snapshot.
func segmentBodies(f *testing.F, snap []byte) [][]byte {
	f.Helper()
	tr := newSegmented(features.NewDict(), 0)
	if _, _, err := tr.OpenLazy(bytes.NewReader(snap), LazyOptions{}); err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	segs := tr.lazyLive.Load().segs
	for s := range segs {
		out = append(out, snap[segs[s].off:segs[s].off+int64(segs[s].len)])
	}
	return out
}

// segmentedSeed is the dense seed trie's snapshot written at k segments.
func segmentedSeed(f *testing.F, k int) []byte {
	f.Helper()
	tr := fuzzDenseSeedTrie()
	tr.SetSegments(k)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// scanFuzzKeys is the dictionary size of FuzzLazySegmentScan's wrapper.
const scanFuzzKeys = 64

// scanFuzzSnapshot frames body as segment 0 of a two-shard v3 snapshot over
// a fixed dictionary (segment 1 is empty), with a correct length and CRC,
// so arbitrary bytes reach the framing scan and the posting decoders. It
// also returns the body's extent within the snapshot.
func scanFuzzSnapshot(body []byte) (snap []byte, lo, hi int64) {
	snap = append(snap, persistMagic...)
	snap = append(snap, uv(persistVersion, 2, scanFuzzKeys)...)
	for i := 0; i < scanFuzzKeys; i++ {
		snap = append(snap, 2, 'k', byte('0'+i))
	}
	snap = append(snap, uv(uint64(len(body)))...)
	snap = binary.LittleEndian.AppendUint32(snap, crc32.ChecksumIEEE(body))
	lo = int64(len(snap))
	snap = append(snap, body...)
	hi = int64(len(snap))
	snap = append(snap, 1) // segment 1: one byte,
	snap = binary.LittleEndian.AppendUint32(snap, crc32.ChecksumIEEE([]byte{0}))
	snap = append(snap, 0) // nfeat = 0
	return append(snap, sectionEnd), lo, hi
}

// boundedReader fails the test on any read that leaves [lo, hi) once armed.
type boundedReader struct {
	*bytes.Reader
	t      *testing.T
	lo, hi int64 // armed when hi > 0
}

func (b *boundedReader) ReadAt(p []byte, off int64) (int, error) {
	if b.hi > 0 && (off < b.lo || off+int64(len(p)) > b.hi) {
		b.t.Fatalf("lazy phase read [%d, %d) outside the segment body [%d, %d)", off, off+int64(len(p)), b.lo, b.hi)
	}
	return b.Reader.ReadAt(p, off)
}

// FuzzLazySegmentScan feeds arbitrary segment bodies to the lazy loader's
// two-step path — the open-time framing scan, then one posting-list decode
// per probe from the recorded byte span — and holds it to the whole-segment
// decoder: it must never panic (other than the contractual
// *ShardFaultError), never read outside the body, reject with ErrCorrupt
// exactly the bodies decodeSegment rejects, and decode every list of an
// accepted body identically, re-decodes after eviction included.
func FuzzLazySegmentScan(f *testing.F) {
	var seed, dense bytes.Buffer
	if _, err := fuzzSeedTrie().WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	if _, err := fuzzDenseSeedTrie().WriteTo(&dense); err != nil {
		f.Fatal(err)
	}
	located, err := os.ReadFile(locatedSnapshot)
	if err != nil {
		f.Fatal(err)
	}
	for _, snap := range [][]byte{seed.Bytes(), dense.Bytes(), encodeLegacySnapshot(2, 4, legacyDataset()), located} {
		for _, body := range segmentBodies(f, snap) {
			f.Add(body)
			f.Add(body[:len(body)*2/3]) // truncated mid-list
			if len(body) > 2 {
				flip := append([]byte(nil), body...)
				flip[len(flip)/2] ^= 0x04
				f.Add(flip)
			}
		}
	}
	// The corpus' structurally invalid container payloads, as feature 0.
	for _, payload := range [][]byte{
		append([]byte{3}, uv(2, 1, 1)...),             // reserved tag
		append([]byte{segTagBitmap}, uv(3, 0, 0)...),  // zero words
		append([]byte{segTagRuns}, uv(4, 1, 0, 2)...), // length mismatch
	} {
		f.Add(append(uv(1, 0), payload...))
	}
	f.Add(uv(2, 0, 0))                                                              // duplicate feature ID
	f.Add(append(uv(1, 1), append([]byte{segTagArray}, uv(1, 5)...)...))            // odd ID in the even segment
	f.Add(append(uv(1, scanFuzzKeys), append([]byte{segTagArray}, uv(1, 5)...)...)) // ID outside the dictionary
	f.Add(append(append(uv(1, 0), append([]byte{segTagArray}, uv(1, 5)...)...), 0)) // trailing byte
	// The non-empty segment bodies of both segment-count extremes.
	for _, k := range []int{1, 64} {
		for _, body := range segmentBodies(f, segmentedSeed(f, k)) {
			if len(body) > 1 {
				f.Add(body)
			}
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		snap, lo, hi := scanFuzzSnapshot(body)
		remap := make([]features.FeatureID, scanFuzzKeys)
		for i := range remap {
			remap[i] = features.FeatureID(i)
		}
		want := make(map[features.FeatureID]PostingList)
		wantErr := decodeSegment(body, remap, 1, 0, persistVersion, AdaptiveContainers, func(id features.FeatureID, pl PostingList) { want[id] = pl })

		src := &boundedReader{Reader: bytes.NewReader(snap), t: t}
		lz := openLazy(t, src, 1) // one byte: every probe evicts the last list
		src.lo, src.hi = lo, hi
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < scanFuzzKeys; i += 2 { // shard 0 holds the even IDs
				id := features.FeatureID(i)
				pl, sfe := probeFault(t, lz, id)
				switch {
				case wantErr != nil && (sfe == nil || !errors.Is(sfe, ErrCorrupt)):
					t.Fatalf("decodeSegment rejects the body (%v) but probe %d got %v", wantErr, id, sfe)
				case wantErr == nil && sfe != nil:
					t.Fatalf("decodeSegment accepts the body but probe %d failed: %v", id, sfe)
				case wantErr == nil && !plEqual(pl, want[id]):
					t.Fatalf("probe %d decodes %v, decodeSegment %v", id, pl.Postings(), want[id].Postings())
				}
			}
		}
		src.hi = 0 // Materialize reads the other segment too
		if err := lz.Materialize(); (err == nil) != (wantErr == nil) {
			t.Fatalf("Materialize = %v, decodeSegment = %v", err, wantErr)
		}
	})
}
