package trie

// Lazy loading: serve a snapshot bigger than RAM, paging posting lists.
//
// OpenLazy splits the streaming load (ReadFrom) into two phases:
//
//   - The *eager phase* reads only what every query needs up front: the
//     header, the full dictionary (interned in ID order, exactly like
//     ReadFrom), a segment table of {offset, length, CRC} triples — the
//     bodies themselves are skipped, not read — and the complete trailing
//     section stream, with the same torn-tail recovery contract as the
//     streaming loader. Journal ops are decoded and validated in full,
//     their new feature keys interned in the exact order a live replay
//     would intern them, and the ops are projected into per-segment
//     pending overlays.
//   - The *lazy phase* is demand paging at posting-list granularity. The
//     first probe into a segment (the features with ID mod K = s) opens
//     its *directory*: one positioned read of the segment body, the CRC
//     check, and an allocation-free framing scan (the ordinary decoders in
//     skip mode, so it accepts and rejects exactly what a full decode
//     would) that records where each feature's entry starts. A journaled
//     segment also replays its pending overlay then, once, over just the
//     features the overlay touches, through the same Mutation.Apply path
//     live mutation uses; the outcome is kept as a compact patch that
//     every later probe consults before the segment bytes. After that a
//     probe decodes only the posting list it asks for, from that list's
//     byte span, and publishes it in a slot array indexed by FeatureID; a
//     hit is one atomic pointer load and a reference-bit store. A CLOCK
//     hand over the slots evicts decoded lists — never directories — once
//     the resident bytes exceed the budget.
//
// What is pinned, outside the budget: the dictionary; 8 bytes of slot per
// dictionary entry from open; 4 bytes of offset per entry of every segment
// whose directory is open; and the overlay patches of journaled segments.
// What is paged, inside the budget: decoded posting lists, at 48 +
// SizeBytes() each (the list record plus its containers).
//
// Error placement moves with the work: base damage that the streaming
// loader reports at load time (a bad segment CRC, a corrupt posting list)
// surfaces from OpenLazy only when it is structural to the segment table
// (truncated bodies, bad lengths) and otherwise when the segment's
// directory is opened, wrapped in ErrCorrupt, poisoning only that segment — the
// directory stays closed and a later probe retries. The CRC is checked
// there (and again when Materialize decodes a whole segment), not on each
// posting decode: a later decode re-reads only its span, validates it
// structurally, and on failure leaves its slot cold. Read paths that cannot
// return an error (GetByID) panic with *ShardFaultError; the engine's query
// panic containment converts that into a query error.
//
// Mutation, persistence and whole-store accounting force-materialise
// first (Materialize / ensureMaterialized): every segment is decoded whole
// into the page table, and the trie becomes an ordinary eager trie —
// a Materialize'd lazy load is observationally identical to ReadFrom,
// including re-Save bytes.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/features"
)

// RandomAccessFile is the reader shape the lazy loader needs: positioned
// reads plus a fixed length. persistio.RandomAccess satisfies it, as do
// *io.SectionReader and *bytes.Reader. The caller owns the lifetime: src
// must stay open for as long as the trie serves lazily (safe to release
// once Materialize has returned nil).
type RandomAccessFile interface {
	io.ReaderAt
	Size() int64
}

// LazyOptions configures OpenLazy.
type LazyOptions struct {
	// Workers is the decode parallelism used by Materialize (≤ 0 selects
	// GOMAXPROCS); individual probes decode one list and are unaffected.
	Workers int
	// Strict fails the open on *any* structural damage, including a torn
	// trailing journal section the default mode would recover from.
	Strict bool
	// BudgetBytes bounds the decoded posting lists kept resident; once
	// exceeded, a decode evicts lists the CLOCK hand finds unreferenced
	// until back under budget (the list just decoded is never the victim,
	// so a single list larger than the budget stays resident alone).
	// Directories, the dictionary and overlay patches are pinned and not
	// counted. 0 means unbounded.
	BudgetBytes int64
}

// Residency reports a trie's lazy-loading state. The zero value (Lazy
// false) means the trie was not lazily opened. The unit of residency is
// the posting list; the shard-named fields keep their names for the
// serving layer's gauges and count snapshot segments.
type Residency struct {
	Lazy           bool
	TotalShards    int   // segments in the snapshot
	ResidentShards int   // segments whose directory is open (all of them once Materialized)
	ResidentBytes  int64 // decoded posting lists resident, 48 + SizeBytes() each (the eager SizeBytes once Materialized)
	BudgetBytes    int64
	Faults         int64 // posting-list decodes from segment bytes, re-decodes after eviction included
	Evictions      int64 // posting lists evicted under the budget
	OverlayReplays int64 // journal-overlay replays (once per journaled segment, when its directory opens)
	Materialized   bool
}

// ShardFaultError is the panic payload of a lazy read path that cannot
// return an error (GetByID, Walk postings): opening the segment's
// directory or decoding the probed list failed. Shard is the segment, or -1
// when the failure was a whole-trie materialise.
type ShardFaultError struct {
	Shard int
	Err   error
}

func (e *ShardFaultError) Error() string {
	if e.Shard < 0 {
		return fmt.Sprintf("trie: lazy materialize: %v", e.Err)
	}
	return fmt.Sprintf("trie: segment %d fault-in: %v", e.Shard, e.Err)
}

func (e *ShardFaultError) Unwrap() error { return e.Err }

// lazySeg is one segment: where its body lives, and its directory once
// the first probe has opened it.
type lazySeg struct {
	off int64 // absolute body offset within src
	len int   // body length
	crc uint32

	dir atomic.Pointer[segDir] // nil until the first probe opens it
	mu  sync.Mutex             // serialises opening the directory
}

// lazyList is one decoded posting list in its residency slot. Immutable
// once published apart from the reference bit, so a reader holding it (or
// the PostingList copied out of it) across an eviction keeps consistent
// data — eviction only unpublishes.
type lazyList struct {
	pl    PostingList
	bytes int64       // 48 + pl.SizeBytes(): the list record plus its containers
	ref   atomic.Bool // CLOCK reference bit: set by probes, cleared by the hand
}

// segDir is one segment's open directory, pinned once published. off holds
// CSR offsets over the segment's residue class: the entry (idΔ varint and
// posting list) of the feature with ID i·K + s is body[off[i]:off[i+1]],
// empty when the segment holds no such feature.
//
// patch and drained are the cached outcome of a journaled segment's one-time
// overlay replay (both nil otherwise): the post-replay list of every
// feature the overlay ops touch — the zero list where the replay deleted
// it, or it never existed — and the dead-set contribution. Probes consult
// the patch before the segment bytes, and Materialize lays it over the
// whole-segment decode — legal because overlays never change after
// OpenLazy (mutation goes through Materialize first) and lists are
// immutable once built. If overlays ever become mutable on a live lazy
// trie, the patch must be dropped wherever they change.
type segDir struct {
	off     []uint32
	patch   map[features.FeatureID]PostingList
	drained []features.FeatureID
}

// lazyState is everything OpenLazy defers: the mapped source, the segment
// table, the per-segment journal overlays, and the residency slots.
type lazyState struct {
	src      RandomAccessFile
	dict     *features.Dict
	segs     []lazySeg
	overlays [][]mutOp // per-segment projected journal ops, replay order
	remap    []features.FeatureID
	version  uint64
	policy   ContainerPolicy
	budget   int64
	workers  int
	mask     uint32 // K-1: a feature's segment is id & mask
	nIDs     int    // dictionary length at open: the cycle of the CLOCK hand

	slots []atomic.Pointer[lazyList] // by FeatureID; nil = cold
	eager table                      // the decoded table, set by Materialize
	matMu sync.Mutex                 // serialises Materialize

	// srcMu orders cold probes against Materialize: a probe holds it shared
	// while it reads src and publishes; Materialize takes it exclusively to
	// set materialized, after which cold probes answer from eager and src
	// is never read again — so the caller may close it.
	srcMu        sync.RWMutex
	materialized atomic.Bool

	// mu guards the accounting below and every slot and directory Store,
	// so the counters never drift from the table.
	mu        sync.Mutex
	hand      int // next feature ID the CLOCK hand inspects
	resBytes  int64
	resLists  int
	openDirs  int
	faults    int64
	evictions int64
	replays   int64
}

// raScanner adapts a RandomAccessFile to the byteScanner shape the header
// and section decoders consume, with O(1) Skip over segment bodies — the
// eager phase touches header + directory + sections, never the bodies.
type raScanner struct {
	src  RandomAccessFile
	size int64
	abs  int64 // absolute offset of buf[pos], the next unconsumed byte
	buf  []byte
	pos  int
	err  error // sticky non-EOF read error
}

const raChunk = 64 << 10

func newRAScanner(src RandomAccessFile) *raScanner {
	return &raScanner{src: src, size: src.Size()}
}

// Offset returns the number of bytes consumed (read or skipped) so far.
func (r *raScanner) Offset() int64 { return r.abs }

func (r *raScanner) fill() error {
	if r.pos < len(r.buf) {
		return nil
	}
	if r.err != nil {
		return r.err
	}
	if r.abs >= r.size {
		return io.EOF
	}
	n := min(int64(raChunk), r.size-r.abs)
	if int64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	m, err := r.src.ReadAt(r.buf[:n], r.abs)
	r.buf = r.buf[:m]
	r.pos = 0
	if m > 0 {
		if err != nil && err != io.EOF {
			r.err = err // deliver the bytes we have; fail on the next fill
		}
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	r.err = err
	return err
}

func (r *raScanner) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := r.fill(); err != nil {
		return 0, err
	}
	n := copy(p, r.buf[r.pos:])
	r.pos += n
	r.abs += int64(n)
	return n, nil
}

func (r *raScanner) ReadByte() (byte, error) {
	if err := r.fill(); err != nil {
		return 0, err
	}
	b := r.buf[r.pos]
	r.pos++
	r.abs++
	return b, nil
}

// Skip advances past n bytes without reading them (beyond whatever is
// already buffered). Skipping past EOF is legal; the next read fails.
func (r *raScanner) Skip(n int64) {
	if avail := int64(len(r.buf) - r.pos); n <= avail {
		r.pos += int(n)
	} else {
		r.buf = r.buf[:0]
		r.pos = 0
	}
	r.abs += n
}

// OpenLazy replaces the trie's contents with a snapshot opened for lazy
// loading: the eager phase above runs now, posting lists decode on first
// touch. Contract mirrors ReadFromOptions — same dictionary interning,
// same segment-count adoption, same torn-tail recovery and byte count (the
// count covers the whole consumed prefix, including a discarded tail) —
// except that base damage *inside* a segment body (CRC, posting structure)
// surfaces when that segment's directory is opened rather than here.
//
// Two snapshot shapes cannot load lazily and transparently fall back to a
// full eager decode over src: version-1 files (no section stream) and
// loads into a non-empty dictionary (the ID remap breaks the residue
// classes the directories rely on). Either way the returned values are
// exactly what ReadFromOptions would report. src must remain readable
// until Materialize returns nil.
func (t *Trie) OpenLazy(src RandomAccessFile, opt LazyOptions) (int64, *TailRecovery, error) {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	fullDecode := func() (int64, *TailRecovery, error) {
		return t.ReadFromOptions(io.NewSectionReader(src, 0, src.Size()), LoadOptions{Workers: opt.Workers, Strict: opt.Strict})
	}

	ra := newRAScanner(src)
	version, k, remap, identity, err := readPreamble(ra, t.dict)
	if err != nil {
		return 0, nil, err
	}
	if version < 2 || !identity {
		// No section stream, or a pre-populated dictionary moved the IDs:
		// interning is idempotent, so the restart re-interns harmlessly.
		return fullDecode()
	}

	// Segment table: frame fields only, bodies skipped. Bounds-check
	// every body against the source length so base truncation fails here —
	// the streaming loader's strictness — not as a spurious tail recovery.
	segs := make([]lazySeg, k)
	for s := 0; s < k; s++ {
		segLen, err := binary.ReadUvarint(ra)
		if err != nil || segLen > maxSegmentLen {
			return 0, nil, fmt.Errorf("%w: segment %d length", ErrCorrupt, s)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(ra, crcBuf[:]); err != nil {
			return 0, nil, fmt.Errorf("%w: segment %d checksum: %v", ErrCorrupt, s, err)
		}
		off := ra.Offset()
		if off+int64(segLen) > src.Size() {
			return 0, nil, fmt.Errorf("%w: segment %d body: truncated", ErrCorrupt, s)
		}
		segs[s] = lazySeg{off: off, len: int(segLen), crc: binary.LittleEndian.Uint32(crcBuf[:])}
		ra.Skip(int64(segLen))
	}

	// Section stream: the streaming loader's scan and recovery semantics.
	journals, rec, err := readSectionStream(ra, ra.Offset, opt.Strict)
	if err != nil {
		return 0, nil, err
	}
	consumed := ra.Offset()
	if rec != nil {
		// The whole tail beyond the committed prefix is untrustworthy; the
		// streaming loader consumes and discards it, so report the same.
		rec.DiscardedBytes = src.Size() - rec.CommittedBytes
		consumed = src.Size()
	}

	// Pre-intern the journals' feature keys in the exact order a live
	// replay's Mutation.Apply would intern them (append inserts, then the
	// re-homed inserts of a swap-removal), so journal-new features get the
	// same FeatureIDs the eager loader assigns — which is also what routes
	// them to the right overlay segment.
	for _, j := range journals {
		for _, op := range j.ops {
			if op.kind == opAppend || (op.kind == opRemove && op.swapped != op.graph) {
				for _, f := range op.feats {
					t.dict.Intern(f.Key)
				}
			}
		}
	}
	mask := uint32(k - 1)
	overlays := make([][]mutOp, k)
	splitFeats := func(feats []GraphFeature) map[int][]GraphFeature {
		by := make(map[int][]GraphFeature)
		for _, f := range feats {
			s := int(uint32(t.dict.Intern(f.Key)) & mask)
			by[s] = append(by[s], f)
		}
		return by
	}
	for _, j := range journals {
		for _, op := range j.ops {
			switch op.kind {
			case opAppend:
				for s, fs := range splitFeats(op.feats) {
					overlays[s] = append(overlays[s], mutOp{kind: opAppend, graph: op.graph, swapped: op.graph, feats: fs})
				}
			case opRemove:
				// Per-feature effects are local to the feature's segment, so
				// the op projects exactly: scrub keys and swapped-graph
				// re-homes are filtered by segment, order preserved. Scrub
				// keys absent from the dictionary are no-ops either way.
				var featsBy map[int][]GraphFeature
				if op.swapped != op.graph {
					featsBy = splitFeats(op.feats)
				}
				scrubBy := make(map[int][]string)
				for _, key := range op.scrub {
					if id, ok := t.dict.Lookup(key); ok {
						s := int(uint32(id) & mask)
						scrubBy[s] = append(scrubBy[s], key)
					}
				}
				for s := 0; s < k; s++ {
					fs, sc := featsBy[s], scrubBy[s]
					if len(fs) == 0 && len(sc) == 0 {
						continue
					}
					overlays[s] = append(overlays[s], mutOp{kind: opRemove, graph: op.graph, swapped: op.swapped, feats: fs, scrub: sc})
				}
			}
		}
	}

	ls := &lazyState{
		src:      src,
		dict:     t.dict,
		segs:     segs,
		overlays: overlays,
		remap:    remap,
		version:  version,
		policy:   t.policy,
		budget:   opt.BudgetBytes,
		workers:  opt.Workers,
		mask:     mask,
		nIDs:     t.dict.Len(),
	}
	// One slot per dictionary entry, journal-new features included: IDs
	// interned after this point hold no postings here and fall off the end.
	ls.slots = make([]atomic.Pointer[lazyList], ls.nIDs)

	t.pages = nil // filled in by Materialize
	t.segments = k
	t.dead = nil
	t.stamp = nil
	if len(journals) > 0 {
		last := journals[len(journals)-1].stamp
		t.stamp = &last
	}
	t.lazyOrigin = ls
	t.lazyLive.Store(ls)
	return consumed, rec, nil
}

// get serves one probe: a resident list straight from its slot, anything
// else through fault. Failure panics with *ShardFaultError (GetByID cannot
// return an error); the engine's query panic containment converts it.
func (ls *lazyState) get(id features.FeatureID) PostingList {
	if int(id) >= len(ls.slots) {
		return PostingList{} // interned after the snapshot was opened
	}
	if l := ls.slots[id].Load(); l != nil {
		if !l.ref.Load() { // test first: hot lists stay in shared cache lines
			l.ref.Store(true)
		}
		return l.pl
	}
	pl, err := ls.fault(id)
	if err != nil {
		panic(&ShardFaultError{Shard: int(uint32(id) & ls.mask), Err: err})
	}
	return pl
}

// fault is the cold path of a probe: open the segment's directory if this
// is its first touch, then take the list from the overlay patch or decode
// it from its byte span, and publish it. Failure leaves the slot cold and
// poisons nothing else; a later probe retries from scratch.
func (ls *lazyState) fault(id features.FeatureID) (PostingList, error) {
	ls.srcMu.RLock()
	defer ls.srcMu.RUnlock()
	if ls.materialized.Load() {
		return ls.eager.get(id), nil // a probe that outlived Materialize
	}
	s := int(uint32(id) & ls.mask)
	d, err := ls.openDir(s, nil)
	if err != nil {
		return PostingList{}, err
	}
	pl, patched := d.patch[id]
	if !patched {
		i := ls.segIndex(id)
		lo, hi := d.off[i], d.off[i+1]
		if lo == hi {
			return PostingList{}, nil // no such feature in this snapshot
		}
		buf := make([]byte, hi-lo)
		if err := ls.readAt(buf, ls.segs[s].off+int64(lo)); err != nil {
			return PostingList{}, fmt.Errorf("trie: segment %d posting read: %w", s, err)
		}
		if pl, err = ls.decodeEntry(buf); err != nil {
			return PostingList{}, fmt.Errorf("segment %d: %w", s, err)
		}
	}
	if pl.Len() == 0 {
		return pl, nil
	}
	return ls.publish(&ls.slots[id], pl, !patched), nil
}

// segIndex is id's position within its segment's residue class: the
// directory index of its entry.
func (ls *lazyState) segIndex(id features.FeatureID) int {
	return int(uint32(id) / (ls.mask + 1))
}

// decodeEntry decodes one directory entry — the idΔ varint the open-time
// scan already placed, then the posting list — which must fill b exactly.
func (ls *lazyState) decodeEntry(b []byte) (PostingList, error) {
	d := segDecoder{b: b}
	if _, err := d.uvarint(); err != nil {
		return PostingList{}, err
	}
	pl, err := d.decodeList(ls.version, ls.policy)
	if err == nil && d.off != len(b) {
		err = fmt.Errorf("%w: posting list ends %d bytes short of its directory span", ErrCorrupt, len(b)-d.off)
	}
	return pl, err
}

// publish installs a freshly obtained list in its slot and charges the
// budget; decoded says it came from segment bytes (a fault) rather than
// the pinned overlay patch. A probe that lost the race for the slot
// returns the winner's list.
func (ls *lazyState) publish(slot *atomic.Pointer[lazyList], pl PostingList, decoded bool) PostingList {
	l := &lazyList{pl: pl, bytes: 48 + int64(pl.SizeBytes())}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if decoded {
		ls.faults++
	}
	if cur := slot.Load(); cur != nil {
		return cur.pl
	}
	slot.Store(l)
	ls.resBytes += l.bytes
	ls.resLists++
	if ls.budget > 0 {
		ls.evictLocked(l)
	}
	return pl
}

// evictLocked (ls.mu held) advances the CLOCK hand over the feature IDs
// until the resident footprint is back under budget: a referenced list
// loses its bit and survives this pass, an unreferenced one is
// unpublished. The list just published (keep) is exempt, so progress is
// guaranteed and a list larger than the budget stays resident alone.
func (ls *lazyState) evictLocked(keep *lazyList) {
	for ls.resBytes > ls.budget && ls.resLists > 1 {
		slot := &ls.slots[ls.hand]
		if ls.hand++; ls.hand == ls.nIDs {
			ls.hand = 0
		}
		switch l := slot.Load(); {
		case l == nil || l == keep:
		case l.ref.Load():
			l.ref.Store(false)
		default:
			slot.Store(nil)
			ls.resBytes -= l.bytes
			ls.resLists--
			ls.evictions++
		}
	}
}

func (ls *lazyState) readAt(p []byte, off int64) error {
	if n, err := ls.src.ReadAt(p, off); n < len(p) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// readSegment reads segment s's whole body and verifies its CRC.
func (ls *lazyState) readSegment(s int) ([]byte, error) {
	seg := &ls.segs[s]
	body := make([]byte, seg.len)
	if err := ls.readAt(body, seg.off); err != nil {
		return nil, fmt.Errorf("trie: segment %d read: %w", s, err)
	}
	if crc32.ChecksumIEEE(body) != seg.crc {
		return nil, fmt.Errorf("%w: segment %d CRC mismatch", ErrCorrupt, s)
	}
	return body, nil
}

// openDir returns segment s's directory, building it on first touch from
// body (read and CRC-checked here when the caller has not already): the
// framing scan, plus the overlay replay for a journaled segment. Failure
// leaves the directory closed; the next touch retries.
func (ls *lazyState) openDir(s int, body []byte) (*segDir, error) {
	seg := &ls.segs[s]
	if d := seg.dir.Load(); d != nil {
		return d, nil
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if d := seg.dir.Load(); d != nil {
		return d, nil
	}
	if body == nil {
		var err error
		if body, err = ls.readSegment(s); err != nil {
			return nil, err
		}
	}
	// The scan: every entry's framing and posting list is validated by the
	// ordinary decoders in skip mode, and off[i] is set to the start of
	// the first entry at or after index i — features arrive in ascending
	// ID order, hence ascending index order.
	k := int(ls.mask) + 1
	off := make([]uint32, (ls.nIDs+k-1)/k+1) // one more than the indices below nIDs
	next := 0
	sd := &segDecoder{b: body, skip: true}
	err := walkSegment(sd, ls.remap, ls.mask, uint32(s), func(id features.FeatureID, entry int) error {
		for i := ls.segIndex(id); next <= i; next++ {
			off[next] = uint32(entry)
		}
		_, err := sd.decodeList(ls.version, ls.policy)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("segment %d: %w", s, err)
	}
	for ; next < len(off); next++ {
		off[next] = uint32(len(body))
	}
	d := &segDir{off: off}
	ops := ls.overlays[s]
	if len(ops) > 0 {
		if d.patch, d.drained, err = ls.replayOverlay(ops, body, off); err != nil {
			return nil, fmt.Errorf("segment %d: %w", s, err)
		}
	}
	ls.mu.Lock()
	seg.dir.Store(d)
	ls.openDirs++
	if len(ops) > 0 {
		ls.replays++
	}
	ls.mu.Unlock()
	return d, nil
}

// replayOverlay replays one segment's pending journal ops, once, through
// the live mutation path against a scratch trie holding just the features
// the ops touch — Apply edits nothing else — so the patched lists are
// bit-identical to an eager load's journal replay. The touched set is read
// off the ops themselves: append/re-home features were pre-interned by
// OpenLazy and scrub keys were projected only when the dictionary knows
// them, so Lookup resolves everything the replay could edit.
func (ls *lazyState) replayOverlay(ops []mutOp, body []byte, off []uint32) (patch map[features.FeatureID]PostingList, drained []features.FeatureID, err error) {
	patch = make(map[features.FeatureID]PostingList) // every touched feature
	tmp := &Trie{dict: ls.dict, policy: ls.policy}
	note := func(key string) error {
		id, ok := ls.dict.Lookup(key)
		if _, seen := patch[id]; !ok || seen {
			return nil
		}
		patch[id] = PostingList{}
		i := ls.segIndex(id)
		if lo, hi := off[i], off[i+1]; lo < hi {
			if *tmp.pages.at(id), err = ls.decodeEntry(body[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, op := range ops {
		for _, f := range op.feats {
			if err := note(f.Key); err != nil {
				return nil, nil, err
			}
		}
		for _, key := range op.scrub {
			if err := note(key); err != nil {
				return nil, nil, err
			}
		}
	}
	nt := (&Mutation{base: tmp, ops: ops}).Apply()
	for id := range patch {
		patch[id] = nt.pages.get(id) // the zero list where the replay deleted it
	}
	for id := range nt.dead {
		drained = append(drained, id)
	}
	return patch, drained, nil
}

// decodeInto is Materialize's whole-segment path: segment s decoded in
// full exactly as the streaming loader would, with the overlay patch laid
// over it, into its residue class of tb (pre-sized, so concurrent segments
// write disjoint entries). It opens the segment's directory on the way
// (sharing the one body read), so a journaled segment's overlay is still
// replayed exactly once.
func (ls *lazyState) decodeInto(tb table, s int) ([]features.FeatureID, error) {
	body, err := ls.readSegment(s)
	if err != nil {
		return nil, err
	}
	d, err := ls.openDir(s, body)
	if err != nil {
		return nil, err
	}
	if err := decodeSegment(body, ls.remap, ls.mask, uint32(s), ls.version, ls.policy, func(id features.FeatureID, pl PostingList) {
		*tb.at(id) = pl
	}); err != nil {
		return nil, fmt.Errorf("segment %d: %w", s, err)
	}
	for id, pl := range d.patch {
		if pl.ids != nil || tb.get(id).ids != nil {
			*tb.at(id) = pl // the zero list where the replay drained it
		}
	}
	return d.drained, nil
}

// Materialize decodes every segment whole into the page tables and
// converts the trie into an ordinary eager one — afterwards it is
// observationally identical to a ReadFrom of the same snapshot (answers,
// Walk order, SizeBytes, re-Save bytes) and src is no longer
// needed. Mutation and persistence call this implicitly. Concurrent
// readers keep being served from the slots until the switch is published.
// On error (a corrupt or unreadable segment) the trie stays lazy and
// serviceable for every healthy segment. No-op on an eager trie.
func (t *Trie) Materialize() error {
	ls := t.lazyLive.Load()
	if ls == nil {
		return nil
	}
	ls.matMu.Lock()
	defer ls.matMu.Unlock()
	if t.lazyLive.Load() == nil {
		return nil // lost the race to a concurrent Materialize
	}
	k := len(ls.segs)
	var tb table
	tb.grow(ls.nIDs)
	drained := make([][]features.FeatureID, k)
	errs := make([]error, k)
	ParallelFor(k, ls.workers, func(_ int, claim func() int) {
		for s := claim(); s >= 0; s = claim() {
			drained[s], errs[s] = ls.decodeInto(tb, s)
		}
	})
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("trie: materialize segment %d: %w", s, err)
		}
	}
	// Install the decoded table. Concurrent readers still route through
	// the slots until the Store(nil) below publishes the eager trie — the
	// atomic pointer is the release/acquire edge covering all these plain
	// writes.
	t.pages = tb
	t.dead = nil
	for s := 0; s < k; s++ {
		for _, id := range drained[s] {
			if t.dead == nil {
				t.dead = make(map[features.FeatureID]struct{})
			}
			t.dead[id] = struct{}{}
		}
	}
	full := int64(t.tableSizeBytes())
	// Wait out the cold probes still reading src; later ones see the flag
	// and answer from the table just installed.
	ls.srcMu.Lock()
	ls.eager = tb
	ls.materialized.Store(true)
	ls.srcMu.Unlock()
	t.lazyLive.Store(nil)
	// Nothing publishes any more: drop the paged lists and the directories
	// (Residency keeps ls reachable) and report the whole store resident.
	ls.mu.Lock()
	for i := range ls.slots {
		ls.slots[i].Store(nil)
	}
	for s := range ls.segs {
		ls.segs[s].dir.Store(nil)
	}
	ls.resBytes, ls.resLists, ls.openDirs = full, 0, k
	ls.mu.Unlock()
	return nil
}

// ensureMaterialized is the guard on read paths that need whole-store
// state (Walk, Len, SizeBytes, the build/mutation paths). It cannot
// return an error, so a failed materialise panics with *ShardFaultError;
// operations routed through the engine are panic-contained there.
func (t *Trie) ensureMaterialized() {
	if t.lazyLive.Load() == nil {
		return
	}
	if err := t.Materialize(); err != nil {
		panic(&ShardFaultError{Shard: -1, Err: err})
	}
}

// Residency reports the lazy-loading state (zero value for a trie that
// was never lazily opened). Counters keep reporting after Materialize.
func (t *Trie) Residency() Residency {
	ls := t.lazyOrigin
	if ls == nil {
		return Residency{}
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return Residency{
		Lazy:           true,
		TotalShards:    len(ls.segs),
		ResidentShards: ls.openDirs,
		ResidentBytes:  ls.resBytes,
		BudgetBytes:    ls.budget,
		Faults:         ls.faults,
		Evictions:      ls.evictions,
		OverlayReplays: ls.replays,
		Materialized:   ls.materialized.Load(),
	}
}
