package trie

// On-disk segment format (version 3)
//
// A persisted trie is one header, K postings segments, and —
// since version 2 — a trailing *section stream* that carries O(delta)
// journal appends. Everything scalar is an unsigned varint
// (encoding/binary) unless noted; everything ordered is delta-encoded
// against the previous value, so the sorted postings lists and ID-ordered
// dictionaries that the in-memory store already maintains shrink to
// near-entropy on disk. Since version 3 each feature's graph-ID set is
// stored in its in-memory container encoding directly (container.go):
// dense features persist as raw bitmap words and clustered features as
// run intervals, so the densest posting lists — the ones that dominated
// version-2 files — shrink by the same factor on disk as in RAM and
// decode without re-encoding.
//
//	header:
//	  magic   "IGQTRIE" (7 bytes)
//	  version uvarint   (currently 3)
//	  K       uvarint   (segment count, a power of two in [1, 64])
//	  nkeys   uvarint   (dictionary size; live vocabulary only — see below)
//	  nkeys × { klen uvarint, key bytes }   — keys in FeatureID order
//	segment, one per residue class s in [0, K) — the features with
//	ID mod K = s:
//	  seglen  uvarint   (byte length of the segment body)
//	  crc     uint32 LE (IEEE CRC-32 of the segment body)
//	  body:
//	    nfeat uvarint
//	    nfeat × {           — features in ascending FeatureID order
//	      idΔ    uvarint    (delta to the previous feature's ID)
//	      posting list      (version ≥ 3 form below; see "Legacy postings"
//	                         for the version ≤ 2 form)
//	    }
//	  }
//	sections (version ≥ 2):
//	  { 'J' seclen uvarint, crc uint32 LE, journal body }*   — see journal.go
//	  'E'               — terminator
//
//	posting list (version ≥ 3):
//	  flags byte        — bits 0–1: container tag (0 array, 1 bitmap,
//	                      2 runs; 3 reserved), bit 2: counts present,
//	                      bit 3: locations present (never written; read,
//	                      validated, discarded), bits 4–7 reserved (0)
//	  card  uvarint     (cardinality, ≥ 1)
//	  payload by tag:
//	    array:  card × graphΔ uvarint    — strictly ascending graph ids
//	    bitmap: baseword uvarint         (first word index = min graph ÷ 64)
//	            nwords   uvarint         (≥ 1)
//	            nwords × uint64 LE       — raw bitmap words; first and last
//	                                       non-zero, total popcount = card
//	    runs:   nruns uvarint            (≥ 1)
//	            nruns × { gap uvarint, len uvarint }
//	                — run i covers [start, start+len] inclusive, where
//	                  start = prevEnd + 2 + gap (prevEnd = -2 before the
//	                  first run): gaps are stored minus the structural
//	                  minimum of 2, so adjacent or overlapping runs are
//	                  unrepresentable; Σ(len+1) must equal card
//	  counts, iff flag bit 2:
//	    card × count uvarint             — at least one ≠ 1 (an all-1 count
//	                                       array is stored by omission)
//	  locations, iff flag bit 3 (older writers' Grapes vertex sets):
//	    card × { nlocs uvarint, nlocs × locΔ uvarint }
//	                                     — at least one entry non-empty
//
//	Legacy postings (version ≤ 2), for each feature:
//	  nposts uvarint   (≥ 1 in version-2 snapshots; 0 legal in version 1)
//	  nposts × {       — postings in ascending graph-id order
//	    graphΔ uvarint (delta to the previous posting's graph id)
//	    count  uvarint
//	    nlocs  uvarint
//	    nlocs × locΔ uvarint   — sorted, deduplicated vertex ids; validated
//	                             and discarded like flag bit 3 above
//	  }
//
// Container canonicalisation: a well-formed writer always emits the
// canonical encoding (kindFor — a pure function of the member set under
// the writer's container policy), so byte-identical logical state yields
// byte-identical files. The *reader* does not require canonical input:
// any structurally valid container is accepted and promoted to the
// reader's canonical kind on decode — which is also how version-1/2
// snapshots load: their flat posting runs decode and are promoted
// ("arrays first, re-encoded where density warrants") with no separate
// migration step.
//
// Design notes:
//
//   - The dictionary is serialised in full, in ID order, so re-interning
//     the keys into an empty dictionary reproduces the exact FeatureIDs the
//     postings are keyed by — the same round-trip property the iGQ cache
//     snapshot relies on. If the destination dictionary is *not* empty the
//     loader transparently remaps old IDs to the freshly interned ones
//     (IDs are process-local handles; canonical strings are the stable
//     identity).
//   - The written dictionary is *compacted*: features retired by removals
//     (the in-memory dead set) are skipped and segment feature IDs are
//     remapped to the compact numbering, so a snapshot of an incrementally
//     maintained trie is indistinguishable from one of a fresh build over
//     the surviving dataset.
//   - Each segment is length-prefixed, CRC-guarded and self-contained:
//     given the header's dictionary, any segment decodes independently of
//     the others, which is what lets ReadFrom fan the segment decodes out
//     over worker goroutines — and what the lazy loader (OpenLazy,
//     lazy.go) exploits: its eager phase parses only the segment *table*
//     — each segment's {offset, length, CRC} frame, bodies skipped with a
//     positioned seek — plus the header, dictionary and full section
//     stream. The lazy contract per segment: the table is valid only if
//     every body lies inside the file (bounds are verified at open, so
//     base truncation still fails the open, exactly like ReadFrom). The
//     first probe of a segment reads its body once, verifies the CRC and
//     scans the framing with the decoders below in skip mode — the same
//     checks, nothing allocated — recording where each feature's entry
//     starts; silent on-disk rot present then surfaces as ErrCorrupt on
//     that segment and poisons no other. From there on the unit of decoding
//     is the posting list: a probe re-reads just its entry's byte span and
//     decodes it with decodePostingList, with no second CRC — damage
//     arriving after the scan is caught only where it breaks that list's
//     structure. Entries are self-delimiting and carry no cross-entry
//     state beyond the idΔ the scan already resolved, which is what makes
//     a single list decodable from its span on this unchanged format; and
//     journal ops project per segment (a feature's ops route by its ID), so
//     replaying a segment's overlay when its directory opens yields lists
//     bit-identical to the streaming loader's whole-file replay.
//   - The section stream is what makes an on-disk snapshot *appendable*:
//     AppendJournalSection (journal.go) replaces the trailing terminator
//     with one more CRC-guarded journal section plus a fresh terminator,
//     so persisting a mutation batch costs O(delta) instead of a full
//     rewrite. ReadFrom replays journals in order through the same
//     Mutation.Apply path live mutation uses. WriteTo itself always emits
//     a compact base (zero journal sections); folding accumulated journals
//     back into base segments is exactly a WriteTo of the loaded state,
//     which is how the method-level compaction threshold is implemented.
//   - Forward compatibility: readers reject versions newer than their own
//     and segment counts outside [1, 64]; version-1 snapshots (no section
//     stream, possibly empty postings lists) still load. Writers must only
//     append new trailing sections behind a version bump, never
//     reinterpret existing fields.
//
// K is a property of the file, not of the loaded trie: the in-memory page
// table is not serialised, a load fills it in ID order from the segments,
// and any K yields the same trie. The writer takes K from SetSegments, else
// from the snapshot the trie was loaded from, else one segment per CPU.
//
// # Durability & crash safety
//
// The format splits into a *base* (header, dictionary, segments) and the
// trailing *section stream* (journals + terminator), and the two have
// different failure contracts:
//
//   - Base corruption always fails the load hard (ErrCorrupt): the base is
//     written only by full saves, which callers make atomic
//     (persistio.AtomicWriteFile / AtomicRewriter), so a damaged base
//     means external corruption, not a torn write — nothing can be
//     salvaged safely.
//   - Section-stream corruption is, by default, *recovered*: journal
//     appends are the one in-place mutation of a snapshot file, so a
//     crash mid-append legitimately leaves a valid prefix followed by a
//     torn final section (or just a missing terminator). ReadFrom loads
//     every fully-committed journal section, drops the torn tail, and
//     reports a TailRecovery describing what was discarded; nothing of
//     the torn section is applied (sections decode fully before any
//     replay). LoadOptions.Strict restores the historical
//     fail-on-anything behavior.
//
// A recovered load leaves the *file* untouched; callers that own the file
// repair it by rewriting it whole, atomically (igq.LoadEngineFile does),
// so the next AppendJournalSection finds a well-formed snapshot. Writers
// fsync after the bytes that commit an
// operation: full saves sync before their rename (persistio), journal
// appends sync after the new terminator lands (index.AppendIndexDelta).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/features"
)

const (
	persistMagic   = "IGQTRIE"
	persistVersion = 3

	// Container tags and flag bits of a version ≥ 3 posting list.
	segTagArray   = 0
	segTagBitmap  = 1
	segTagRuns    = 2
	segTagMask    = 0x03
	segFlagCounts = 1 << 2
	segFlagLocs   = 1 << 3

	// Section tags of the version ≥ 2 trailing stream.
	sectionJournal = 'J'
	sectionEnd     = 'E'

	// Decode-time sanity bounds: a corrupt length field must fail cleanly,
	// not attempt an absurd allocation. Length-prefixed bulk reads
	// additionally grow their buffers incrementally (readFullCapped), so a
	// lying length costs at most the bytes actually present in the stream.
	maxKeyLen     = 1 << 16
	maxDictLen    = 1 << 24
	maxSegmentLen = 1 << 30
)

// ErrCorrupt reports a snapshot that failed structural validation (bad
// magic, truncated data, CRC mismatch, out-of-range field).
var ErrCorrupt = errors.New("trie: corrupt snapshot")

// WriteTo serialises the trie in the segment format above, implementing
// io.WriterTo. The trie must not be mutated during the call (the usual
// read-path contract).
func (t *Trie) WriteTo(w io.Writer) (int64, error) {
	// A lazily-opened trie (OpenLazy) is faulted fully resident first, so
	// re-saving a partially-resident index emits exactly the bytes an
	// eager load of the same snapshot would.
	if err := t.Materialize(); err != nil {
		return 0, err
	}
	var n int64
	write := func(p []byte) error {
		m, err := w.Write(p)
		n += int64(m)
		return err
	}

	// Compacted dictionary: retired (dead) features are skipped and the
	// surviving IDs renumbered densely, so the snapshot carries exactly the
	// live vocabulary a fresh build over the same postings would intern.
	keys := t.dict.Keys()
	var remap []features.FeatureID // nil = identity (no dead features)
	live := keys
	if len(t.dead) > 0 {
		remap = make([]features.FeatureID, len(keys))
		live = make([]string, 0, len(keys)-len(t.dead))
		for i, k := range keys {
			if _, gone := t.dead[features.FeatureID(i)]; gone {
				continue
			}
			remap[i] = features.FeatureID(len(live))
			live = append(live, k)
		}
	}
	hdr := make([]byte, 0, 16+len(live)*8)
	hdr = append(hdr, persistMagic...)
	hdr = binary.AppendUvarint(hdr, persistVersion)
	k := t.Segments()
	hdr = binary.AppendUvarint(hdr, uint64(k))
	hdr = binary.AppendUvarint(hdr, uint64(len(live)))
	for _, k := range live {
		hdr = binary.AppendUvarint(hdr, uint64(len(k)))
		hdr = append(hdr, k...)
	}
	if err := write(hdr); err != nil {
		return n, err
	}

	var seg, pre []byte
	writeSeg := func(feats []segFeature) error {
		seg = appendSegment(seg[:0], feats)
		pre = binary.AppendUvarint(pre[:0], uint64(len(seg)))
		pre = binary.LittleEndian.AppendUint32(pre, crc32.ChecksumIEEE(seg))
		if err := write(pre); err != nil {
			return err
		}
		return write(seg)
	}
	// Each feature goes to the segment its *written* ID selects (segment =
	// id mod K — the invariant the parallel identity-remap decode and the
	// lazy loader rely on; compaction may move IDs across segments). The
	// table is walked in ascending ID order and compaction preserves order,
	// so every segment fills already sorted.
	buckets := make([][]segFeature, k)
	t.each(func(id features.FeatureID, pl *PostingList) {
		if remap != nil {
			id = remap[id]
		}
		b := uint32(id) & uint32(k-1)
		buckets[b] = append(buckets[b], segFeature{id: id, pl: *pl})
	})
	for _, feats := range buckets {
		if err := writeSeg(feats); err != nil {
			return n, err
		}
	}
	if err := write([]byte{sectionEnd}); err != nil {
		return n, err
	}
	return n, nil
}

// segFeature pairs one feature's written ID with its postings.
type segFeature struct {
	id features.FeatureID
	pl PostingList
}

// appendSegment encodes one segment's features (pre-sorted by written ID).
func appendSegment(buf []byte, feats []segFeature) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(feats)))
	prev := features.FeatureID(0)
	for _, f := range feats {
		buf = binary.AppendUvarint(buf, uint64(f.id-prev))
		prev = f.id
		buf = appendPostingList(buf, f.pl)
	}
	return buf
}

// appendPostingList encodes one feature's posting list in the version-3
// container form: the in-memory container serialises directly, which is
// what makes equal logical state byte-identical on disk (the container
// kind is a pure function of the member set).
func appendPostingList(buf []byte, pl PostingList) []byte {
	flags := byte(segTagArray)
	switch pl.ids.Kind() {
	case KindBitmap:
		flags = segTagBitmap
	case KindRuns:
		flags = segTagRuns
	}
	if pl.counts != nil {
		flags |= segFlagCounts
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(pl.ids.Len()))
	switch c := pl.ids.(type) {
	case *ArrayContainer:
		prevG := int32(0)
		for _, g := range c.ids {
			buf = binary.AppendUvarint(buf, uint64(g-prevG))
			prevG = g
		}
	case *BitmapContainer:
		buf = binary.AppendUvarint(buf, uint64(c.base)>>6)
		buf = binary.AppendUvarint(buf, uint64(len(c.words)))
		for _, w := range c.words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	case *RunContainer:
		buf = binary.AppendUvarint(buf, uint64(len(c.runs)))
		prevEnd := int64(-2)
		for _, run := range c.runs {
			buf = binary.AppendUvarint(buf, uint64(int64(run.Start)-prevEnd-2))
			buf = binary.AppendUvarint(buf, uint64(run.End-run.Start))
			prevEnd = int64(run.End)
		}
	}
	for _, c := range pl.counts {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf
}

// byteScanner is the reader shape the decoder needs: streaming reads for
// bulk sections plus single-byte reads for varints.
type byteScanner interface {
	io.Reader
	io.ByteReader
}

// asByteScanner returns r itself when it already supports byte reads, or a
// bufio wrapper otherwise. Callers loading several sections from one stream
// must wrap once and pass the same scanner to each loader, or the wrapper's
// read-ahead would swallow the next section's bytes.
func asByteScanner(r io.Reader) byteScanner {
	if bs, ok := r.(byteScanner); ok {
		return bs
	}
	return bufio.NewReader(r)
}

// countingScanner counts consumed bytes for the io.ReaderFrom return value.
type countingScanner struct {
	r byteScanner
	n int64
}

func (c *countingScanner) Read(p []byte) (int, error) {
	m, err := c.r.Read(p)
	c.n += int64(m)
	return m, err
}

func (c *countingScanner) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// LoadOptions configures a snapshot load.
type LoadOptions struct {
	// Workers is the segment-decode parallelism (≤ 0 selects GOMAXPROCS;
	// the decode is deterministic at any worker count).
	Workers int
	// Strict fails the load on *any* structural damage, including a torn
	// trailing journal section that the default mode would recover from.
	Strict bool
}

// TailRecovery reports a salvaged snapshot tail: the load succeeded by
// dropping a torn trailing portion of the journal section stream (the
// aftermath of a crash mid-append). Offsets are relative to the start of
// the trie snapshot within the stream handed to ReadFrom; envelope-level
// loaders translate them to absolute file offsets.
type TailRecovery struct {
	// CommittedBytes is the length of the valid snapshot prefix — the
	// base plus every fully-committed journal section, *excluding* the
	// section terminator. A file truncated to this length plus a
	// terminator byte is a well-formed snapshot holding exactly the
	// loaded state.
	CommittedBytes int64
	// DiscardedBytes counts the torn tail bytes dropped beyond the
	// committed prefix.
	DiscardedBytes int64
	// DroppedOps is the best-effort count of mutation ops the torn
	// section claimed to carry (0 when its header was unreadable).
	DroppedOps int
}

// ReadFrom replaces the trie's contents with a snapshot previously written
// by WriteTo, implementing io.ReaderFrom; segment decodes run on one worker
// per CPU and a torn journal tail is recovered (see ReadFromOptions for
// the full contract, and for the report of a recovery).
func (t *Trie) ReadFrom(r io.Reader) (int64, error) {
	n, _, err := t.ReadFromOptions(r, LoadOptions{})
	return n, err
}

// ReadFromOptions is the full-contract snapshot load.
//
// The trie adopts the snapshot's segment count for its next WriteTo
// (SetSegments afterwards overrides it). The snapshot's dictionary keys are
// interned through the trie's dictionary in ID order: into an empty
// dictionary this reproduces the saved IDs exactly, and into a non-empty
// one the postings are remapped to the freshly assigned IDs. Any previous
// postings of t are discarded.
//
// Corruption in the base (header, dictionary, segments) fails the load
// with ErrCorrupt. A torn *trailing* journal section — the signature of a
// crash mid-append — is recovered unless opt.Strict: the load succeeds
// with every fully-committed section replayed, the torn tail is consumed
// and discarded, and the returned *TailRecovery describes the damage. The byte
// count covers everything consumed, including a discarded tail.
//
// If r is not an io.ByteReader it is wrapped in a buffered reader, which
// may read past the snapshot's end; pass a bufio.Reader (or bytes.Reader)
// when trailing data matters.
func (t *Trie) ReadFromOptions(r io.Reader, opt LoadOptions) (int64, *TailRecovery, error) {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	cr := &countingScanner{r: asByteScanner(r)}
	rec, err := t.readFrom(cr, opt)
	return cr.n, rec, err
}

func (t *Trie) readFrom(cr *countingScanner, opt LoadOptions) (*TailRecovery, error) {
	workers := opt.Workers
	version, k, remap, identity, err := readPreamble(cr, t.dict)
	if err != nil {
		return nil, err
	}

	// Read the segment bodies (CRC-checked) before decoding anything, so a
	// truncated stream cannot leave the trie half-replaced.
	segs := make([][]byte, k)
	for s := 0; s < k; s++ {
		body, err := readSection(cr, fmt.Sprintf("segment %d", s))
		if err != nil {
			return nil, err
		}
		segs[s] = body
	}

	// Version ≥ 2 snapshots carry a trailing section stream. Read and
	// decode every journal section before installing anything, so a corrupt
	// journal fails the load with the trie untouched (apart from dictionary
	// interning, as documented).
	var journals []journalRec
	var rec *TailRecovery
	if version >= 2 {
		if journals, rec, err = readSectionStream(cr, func() int64 { return cr.n }, opt.Strict); err != nil {
			return nil, err
		}
		if rec != nil {
			// Consume the rest of the torn tail so the byte count (and a
			// combined-snapshot loader's stream position) reflects that
			// nothing after the committed prefix is trustworthy.
			_, _ = io.Copy(io.Discard, cr)
			rec.DiscardedBytes = cr.n - rec.CommittedBytes
		}
	}

	// Decode into one table. With the identity remap segment s holds
	// exactly the IDs ≡ s (mod k) — walkSegment checks it — so, with the
	// table pre-sized to the dictionary, the segment decodes fill disjoint
	// entries and run in parallel; with a remap (pre-populated dictionary)
	// the decode runs sequentially — correctness is identical either way.
	// Version-1 snapshots may carry features with zero postings (drained by
	// the old RemoveGraph); version ≥ 2 writers never emit them, so the
	// decoder rejects them there.
	var tb table
	put := func(id features.FeatureID, pl PostingList) { *tb.at(id) = pl }
	if identity {
		tb.grow(len(remap))
		errs := make([]error, k) // one slot per segment: no cross-worker writes
		ParallelFor(k, workers, func(_ int, claim func() int) {
			for s := claim(); s >= 0; s = claim() {
				errs[s] = decodeSegment(segs[s], remap, uint32(k-1), uint32(s), version, t.policy, put)
			}
		})
		for s, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("segment %d: %w", s, err)
			}
		}
	} else {
		for s := 0; s < k; s++ {
			if err := decodeSegment(segs[s], remap, 0, 0, version, t.policy, put); err != nil {
				return nil, fmt.Errorf("segment %d: %w", s, err)
			}
		}
	}

	t.lazyLive.Store(nil)
	t.lazyOrigin = nil
	t.pages = tb
	t.segments = k
	t.dead = nil
	t.stamp = nil
	// Replay the journals in append order through the live mutation path
	// (decode above already validated them; Apply itself cannot fail).
	for _, j := range journals {
		t.replayJournal(j.stamp, j.ops)
	}
	return rec, nil
}

// readPreamble reads a snapshot's header and dictionary — the part both
// loaders decode eagerly — interning the saved keys through dict in ID
// order, in one bulk pass (Dict.InternKeys), and building the old→new ID
// remap. identity reports that every key landed on its saved ID (a fresh
// dictionary), which keeps each segment's residue class intact: the
// streaming loader's parallel decode and the whole of the lazy loader
// depend on it. The key buffers grow as keys
// actually arrive, so a lying count cannot force a large allocation.
func readPreamble(r byteScanner, dict *features.Dict) (version uint64, segments int, remap []features.FeatureID, identity bool, err error) {
	fail := func(format string, args ...any) (uint64, int, []features.FeatureID, bool, error) {
		return 0, 0, nil, false, fmt.Errorf(format, args...)
	}
	var magic [len(persistMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fail("%w: reading magic: %v", ErrCorrupt, err)
	}
	if string(magic[:]) != persistMagic {
		return fail("%w: bad magic %q", ErrCorrupt, magic)
	}
	if version, err = binary.ReadUvarint(r); err != nil {
		return fail("%w: reading version: %v", ErrCorrupt, err)
	}
	if version < 1 || version > persistVersion {
		return fail("trie: snapshot version %d unsupported (this build reads ≤ %d)", version, persistVersion)
	}
	saved, err := binary.ReadUvarint(r)
	if err != nil {
		return fail("%w: reading segment count: %v", ErrCorrupt, err)
	}
	k := int(saved)
	if k < 1 || k > maxSegments || k&(k-1) != 0 {
		return fail("%w: segment count %d not a power of two in [1, %d]", ErrCorrupt, k, maxSegments)
	}
	nKeys, err := binary.ReadUvarint(r)
	if err != nil || nKeys > maxDictLen {
		return fail("%w: dictionary size", ErrCorrupt)
	}
	var arena []byte
	ends := make([]int, 0, min(nKeys, 1<<16))
	for i := uint64(0); i < nKeys; i++ {
		klen, err := binary.ReadUvarint(r)
		if err != nil || klen > maxKeyLen {
			return fail("%w: dictionary key length", ErrCorrupt)
		}
		at := len(arena)
		arena = slices.Grow(arena, int(klen))[:at+int(klen)]
		if _, err := io.ReadFull(r, arena[at:]); err != nil {
			return fail("%w: reading dictionary key: %v", ErrCorrupt, err)
		}
		ends = append(ends, len(arena))
	}
	all := string(arena)
	keys := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		keys[i], start = all[start:end], end
	}
	remap = dict.InternKeys(keys)
	identity = true
	for i, id := range remap {
		identity = identity && id == features.FeatureID(i)
	}
	return version, k, remap, identity, nil
}

// journalRec is one decoded journal section of the trailing stream.
type journalRec struct {
	stamp JournalStamp
	ops   []mutOp
}

// readSectionStream reads the trailing section stream up to its terminator,
// decoding every journal section in full (nothing of a section is applied
// unless all of it decodes). offset reports the bytes consumed from r so
// far. A structural failure anywhere marks everything from the last
// fully-committed section onward as a torn tail — the crash-mid-append
// signature, see the Durability section above: fatal under strict,
// otherwise reported as a TailRecovery whose DiscardedBytes the caller
// fills in, since only it knows how the tail is consumed.
func readSectionStream(r byteScanner, offset func() int64, strict bool) ([]journalRec, *TailRecovery, error) {
	var journals []journalRec
	committed := offset() // end of the valid prefix (terminator excluded)
	for {
		var dropped []byte
		tag, err := r.ReadByte()
		switch {
		case err != nil:
			err = fmt.Errorf("%w: reading section tag: %v", ErrCorrupt, err)
		case tag == sectionEnd:
			return journals, nil, nil
		case tag != sectionJournal:
			err = fmt.Errorf("%w: unknown section tag %q", ErrCorrupt, tag)
		default:
			var body []byte
			if body, dropped, err = readSectionPartial(r, "journal"); err == nil {
				var j journalRec
				if j.stamp, j.ops, err = decodeJournalBody(body); err == nil {
					journals = append(journals, j)
					committed = offset()
					continue
				}
				dropped = body
			}
		}
		if strict {
			return nil, nil, err
		}
		return journals, &TailRecovery{CommittedBytes: committed, DroppedOps: journalOpCount(dropped)}, nil
	}
}

// readSection reads one length-prefixed CRC-guarded block (segments and
// journal sections share the frame). The body buffer grows as bytes
// actually arrive, so a corrupt length cannot force an absurd allocation.
func readSection(cr byteScanner, what string) ([]byte, error) {
	secLen, err := binary.ReadUvarint(cr)
	if err != nil || secLen > maxSegmentLen {
		return nil, fmt.Errorf("%w: %s length", ErrCorrupt, what)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(cr, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: %s checksum: %v", ErrCorrupt, what, err)
	}
	body, err := readFullCapped(cr, secLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %s body: %v", ErrCorrupt, what, err)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return nil, fmt.Errorf("%w: %s CRC mismatch", ErrCorrupt, what)
	}
	return body, nil
}

// readSectionPartial is readSection for the recovery-aware section
// stream: on failure it additionally returns whatever body bytes were
// readable, so the recovery report can count the ops a torn section
// claimed to carry.
func readSectionPartial(cr byteScanner, what string) (body, partial []byte, err error) {
	secLen, err := binary.ReadUvarint(cr)
	if err != nil || secLen > maxSegmentLen {
		return nil, nil, fmt.Errorf("%w: %s length", ErrCorrupt, what)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(cr, crcBuf[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: %s checksum: %v", ErrCorrupt, what, err)
	}
	body, rerr := readFullCapped(cr, secLen)
	if rerr != nil {
		return nil, body, fmt.Errorf("%w: %s body: %v", ErrCorrupt, what, rerr)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return nil, body, fmt.Errorf("%w: %s CRC mismatch", ErrCorrupt, what)
	}
	return body, nil, nil
}

// readFullCapped reads exactly n bytes, growing the buffer in bounded
// chunks so a lying length field costs at most the bytes actually
// present. On error the bytes read so far are returned alongside it.
func readFullCapped(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n {
		next := min(n-uint64(len(buf)), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, next)...)
		m, err := io.ReadFull(r, buf[start:])
		if err != nil {
			return buf[:start+m], err
		}
	}
	return buf, nil
}

// walkSegment drives one segment body's framing — the feature count, the
// strictly ascending feature-ID deltas, dictionary membership and the
// no-trailing-bytes rule — and calls each with d positioned at the feature's
// posting list, which each must consume through d (decodeList). entry is the
// body offset of the feature's idΔ varint, so consecutive entries tile the
// body. With wantMask != 0 callers assert every (remapped) ID lies in the
// segment's residue class (ID & wantMask == wantSeg) — the identity-remap
// layout, where parallel decodes and lazy directories rely on it. Shared by
// the whole-segment decode below and the lazy loader's open-time scan
// (lazy.go), so the two accept and reject alike.
func walkSegment(d *segDecoder, remap []features.FeatureID, wantMask, wantSeg uint32, each func(id features.FeatureID, entry int) error) error {
	nFeat, err := d.uvarint()
	if err != nil || nFeat > uint64(len(d.b)) {
		return fmt.Errorf("%w: feature count", ErrCorrupt)
	}
	var prevID uint64
	for f := uint64(0); f < nFeat; f++ {
		entry := d.off
		delta, err := d.uvarint()
		if err != nil {
			return err
		}
		oldID := prevID + delta
		if f > 0 && delta == 0 {
			return fmt.Errorf("%w: duplicate feature ID", ErrCorrupt)
		}
		prevID = oldID
		if oldID >= uint64(len(remap)) {
			return fmt.Errorf("%w: feature ID %d outside dictionary", ErrCorrupt, oldID)
		}
		id := remap[oldID]
		if wantMask != 0 && uint32(id)&wantMask != wantSeg {
			return fmt.Errorf("%w: feature ID %d in wrong segment", ErrCorrupt, oldID)
		}
		if err := each(id, entry); err != nil {
			return err
		}
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}

// decodeSegment decodes one segment body, remapping feature IDs (see
// walkSegment for wantMask/wantSeg) and handing each list to put in
// ascending ID order. version selects the posting-list wire form; decoded
// lists are promoted to the canonical container kind under policy.
func decodeSegment(body []byte, remap []features.FeatureID, wantMask, wantSeg uint32, version uint64, policy ContainerPolicy, put func(features.FeatureID, PostingList)) error {
	d := &segDecoder{b: body}
	return walkSegment(d, remap, wantMask, wantSeg, func(id features.FeatureID, _ int) error {
		pl, err := d.decodeList(version, policy)
		if err == nil {
			put(id, pl)
		}
		return err
	})
}

// decodeList decodes one feature's posting list in the wire form version
// selects (≥ 3: containers; ≤ 2: flat runs, with empty features legal only
// in version 1). In skip mode (d.skip) every structural check still runs
// but nothing is allocated and the zero list is returned.
func (d *segDecoder) decodeList(version uint64, policy ContainerPolicy) (PostingList, error) {
	if version >= 3 {
		return d.decodePostingList(policy)
	}
	return d.decodeLegacyPostings(version, policy)
}

// decodeLegacyPostings decodes one feature's version ≤ 2 flat posting run
// and seals it into container form under policy — the version-1/2
// promotion path.
func (d *segDecoder) decodeLegacyPostings(version uint64, policy ContainerPolicy) (PostingList, error) {
	var zero PostingList
	body := d.b
	nPosts, err := d.uvarint()
	if err != nil || nPosts > uint64(len(body)) {
		return zero, fmt.Errorf("%w: postings count", ErrCorrupt)
	}
	if nPosts == 0 && version >= 2 {
		return zero, fmt.Errorf("%w: feature with no postings", ErrCorrupt)
	}
	var ps []Posting
	if !d.skip {
		ps = make([]Posting, 0, nPosts)
	}
	var prevG uint64
	for p := uint64(0); p < nPosts; p++ {
		gDelta, err := d.uvarint()
		if err != nil {
			return zero, err
		}
		g := prevG + gDelta
		if p > 0 && gDelta == 0 {
			return zero, fmt.Errorf("%w: duplicate posting graph id", ErrCorrupt)
		}
		prevG = g
		count, err := d.uvarint()
		if err != nil {
			return zero, err
		}
		if g > math.MaxInt32 || count > math.MaxInt32 {
			return zero, fmt.Errorf("%w: posting field overflow", ErrCorrupt)
		}
		if _, err := d.skipLocs(); err != nil {
			return zero, err
		}
		if !d.skip {
			ps = append(ps, Posting{Graph: int32(g), Count: int32(count)})
		}
	}
	return sealPostings(policy, ps), nil
}

// decodePostingList decodes one feature's version ≥ 3 container-form
// posting list, validating every structural invariant (the fuzz targets
// drive this path with corrupt payloads), and promotes a non-canonical but
// valid container to the reader's canonical kind. In skip mode the same
// checks run over the same bytes, allocation-free.
func (d *segDecoder) decodePostingList(policy ContainerPolicy) (PostingList, error) {
	var zero PostingList
	flags, err := d.byte()
	if err != nil {
		return zero, err
	}
	if flags&^(segTagMask|segFlagCounts|segFlagLocs) != 0 {
		return zero, fmt.Errorf("%w: unknown posting-list flags %#x", ErrCorrupt, flags)
	}
	card, err := d.uvarint()
	if err != nil {
		return zero, err
	}
	if card == 0 {
		return zero, fmt.Errorf("%w: feature with no postings", ErrCorrupt)
	}
	var c Container
	nruns := 0
	switch flags & segTagMask {
	case segTagArray:
		if card > uint64(d.remaining()) {
			return zero, fmt.Errorf("%w: array cardinality", ErrCorrupt)
		}
		var ids []int32
		if !d.skip {
			ids = make([]int32, card)
		}
		var prevG uint64
		for i := uint64(0); i < card; i++ {
			gDelta, err := d.uvarint()
			if err != nil {
				return zero, err
			}
			g := prevG + gDelta
			if i > 0 && gDelta == 0 {
				return zero, fmt.Errorf("%w: duplicate posting graph id", ErrCorrupt)
			}
			if g > math.MaxInt32 {
				return zero, fmt.Errorf("%w: graph id overflow", ErrCorrupt)
			}
			prevG = g
			if ids != nil {
				ids[i] = int32(g)
			}
		}
		if !d.skip {
			nruns = countRuns(ids)
			c = &ArrayContainer{ids: ids}
		}
	case segTagBitmap:
		baseWord, err := d.uvarint()
		if err != nil {
			return zero, err
		}
		nWords, err := d.uvarint()
		if err != nil {
			return zero, err
		}
		if nWords == 0 || nWords > uint64(d.remaining())/8 {
			return zero, fmt.Errorf("%w: bitmap word count", ErrCorrupt)
		}
		if baseWord+nWords > 1<<25 { // max representable id must fit int32
			return zero, fmt.Errorf("%w: bitmap span overflow", ErrCorrupt)
		}
		var words []uint64
		if !d.skip {
			words = make([]uint64, nWords)
		}
		pop := 0
		var first, last uint64
		for i := uint64(0); i < nWords; i++ {
			last = binary.LittleEndian.Uint64(d.b[d.off:])
			d.off += 8
			pop += bits.OnesCount64(last)
			if i == 0 {
				first = last
			}
			if words != nil {
				words[i] = last
			}
		}
		if first == 0 || last == 0 {
			return zero, fmt.Errorf("%w: denormalised bitmap (zero edge word)", ErrCorrupt)
		}
		if uint64(pop) != card {
			return zero, fmt.Errorf("%w: bitmap popcount %d ≠ cardinality %d", ErrCorrupt, pop, card)
		}
		if !d.skip {
			b := &BitmapContainer{base: int32(baseWord << 6), words: words, card: int(card)}
			nruns = b.runCount()
			c = b
		}
	case segTagRuns:
		nRuns, err := d.uvarint()
		if err != nil {
			return zero, err
		}
		if nRuns == 0 || nRuns > uint64(d.remaining())/2 || nRuns > card {
			return zero, fmt.Errorf("%w: run count", ErrCorrupt)
		}
		var runs []Run
		if !d.skip {
			runs = make([]Run, nRuns)
		}
		prevEnd := int64(-2)
		total := uint64(0)
		for i := uint64(0); i < nRuns; i++ {
			gap, err := d.uvarint()
			if err != nil {
				return zero, err
			}
			length, err := d.uvarint()
			if err != nil {
				return zero, err
			}
			start := prevEnd + 2 + int64(gap)
			if length > math.MaxInt32 || start+int64(length) > math.MaxInt32 {
				return zero, fmt.Errorf("%w: run overflow", ErrCorrupt)
			}
			prevEnd = start + int64(length)
			if runs != nil {
				runs[i] = Run{Start: int32(start), End: int32(prevEnd)}
			}
			total += length + 1
		}
		if total != card {
			return zero, fmt.Errorf("%w: run lengths sum %d ≠ cardinality %d", ErrCorrupt, total, card)
		}
		if !d.skip {
			nruns = int(nRuns)
			c = &RunContainer{runs: runs, card: int(card)}
		}
	default:
		return zero, fmt.Errorf("%w: reserved container tag", ErrCorrupt)
	}
	pl := PostingList{ids: c, nruns: int32(nruns)}
	if flags&segFlagCounts != 0 {
		if card > uint64(d.remaining()) {
			return zero, fmt.Errorf("%w: counts length", ErrCorrupt)
		}
		var counts []int32
		if !d.skip {
			counts = make([]int32, card)
		}
		uniform := true
		for i := uint64(0); i < card; i++ {
			v, err := d.uvarint()
			if err != nil {
				return zero, err
			}
			if v > math.MaxInt32 {
				return zero, fmt.Errorf("%w: count overflow", ErrCorrupt)
			}
			if v != 1 {
				uniform = false
			}
			if counts != nil {
				counts[i] = int32(v)
			}
		}
		if uniform {
			return zero, fmt.Errorf("%w: denormalised counts (all 1)", ErrCorrupt)
		}
		pl.counts = counts
	}
	if flags&segFlagLocs != 0 {
		if card > uint64(d.remaining()) {
			return zero, fmt.Errorf("%w: locations length", ErrCorrupt)
		}
		any := false
		for i := uint64(0); i < card; i++ {
			n, err := d.skipLocs()
			if err != nil {
				return zero, err
			}
			any = any || n > 0
		}
		if !any {
			return zero, fmt.Errorf("%w: denormalised locations (all empty)", ErrCorrupt)
		}
	}
	if d.skip {
		return zero, nil
	}
	// Promote a valid-but-non-canonical container to the reader's canonical
	// kind (also the policy override point: an ArrayOnlyContainers reader
	// flattens adaptive snapshots on load).
	if want := kindFor(policy, c.Len(), c.Min(), c.Max(), nruns); want != c.Kind() {
		pl.ids = buildContainer(want, c.AppendTo(make([]int32, 0, c.Len())))
	}
	return pl, nil
}

// skipLocs validates one posting's delta-encoded sorted vertex-location
// list — a payload older Grapes writers stored in segments and journal ops,
// and that nothing reads any more — and returns its length. The locations
// themselves are discarded.
func (d *segDecoder) skipLocs() (uint64, error) {
	nLocs, err := d.uvarint()
	if err != nil || nLocs > uint64(d.remaining()) {
		return 0, fmt.Errorf("%w: location count", ErrCorrupt)
	}
	var prevL uint64
	for l := uint64(0); l < nLocs; l++ {
		lDelta, err := d.uvarint()
		if err != nil {
			return 0, err
		}
		v := prevL + lDelta
		if l > 0 && lDelta == 0 {
			return 0, fmt.Errorf("%w: duplicate location", ErrCorrupt)
		}
		if v > math.MaxInt32 {
			return 0, fmt.Errorf("%w: location overflow", ErrCorrupt)
		}
		prevL = v
	}
	return nLocs, nil
}

// segDecoder is a varint cursor over one in-memory segment body. With skip
// set the posting-list decoders validate exactly as usual but allocate and
// return nothing — the lazy loader's open-time framing scan.
type segDecoder struct {
	b    []byte
	off  int
	skip bool
}

func (d *segDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	d.off += n
	return v, nil
}

func (d *segDecoder) byte() (byte, error) {
	if d.off >= len(d.b) {
		return 0, fmt.Errorf("%w: truncated posting list", ErrCorrupt)
	}
	b := d.b[d.off]
	d.off++
	return b, nil
}

// remaining returns the undecoded byte count — the sanity bound for
// length fields (every encoded element costs at least one byte).
func (d *segDecoder) remaining() int { return len(d.b) - d.off }
