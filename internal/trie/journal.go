package trie

// Delta journals: O(delta) persistence of dataset mutations.
//
// A version-2 trie snapshot ends with a section stream — zero or more
// journal sections followed by one terminator byte (see the format
// specification in persist.go). Each journal section is the op log of one
// persisted mutation batch: the same AppendGraph/RemoveGraph ops a live
// Mutation stages, encoded with canonical key strings (FeatureIDs are
// process-local and the snapshot dictionary is compacted on write, so IDs
// are not stable across files). ReadFrom replays journals through the very
// same Mutation.Apply path the live engine mutates with, which is what
// pins a journaled snapshot to the live in-memory state byte for byte.
//
// AppendJournalSection turns "persist a mutation" into a seek-to-end
// append: it replaces the file's trailing terminator with
// {journal section, terminator}, leaving everything before it untouched —
// an O(delta) write instead of the O(dataset) full rewrite of WriteTo.
//
// Durability & crash safety: journals are CRC-guarded like segments, and
// the terminator byte is what commits an append — a crash mid-append
// leaves a valid snapshot prefix followed by a terminator-less torn
// section. The loader never serves a half-applied delta: it either drops
// the torn tail and reports a TailRecovery (default), or fails outright
// (LoadOptions.Strict) — see the Durability section in persist.go.
// Callers that need the append itself durable fsync after it returns
// (index.AppendIndexDelta does).
//
// Each journal carries a JournalStamp — the dataset fingerprint *after*
// its ops. Snapshot consumers that guard against dataset divergence (the
// index envelope's checksum) validate against the newest stamp, so a
// journaled snapshot still refuses to load against the wrong dataset even
// though its envelope header was written for the base dataset.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// JournalStamp fingerprints the dataset state a journal's ops lead to.
type JournalStamp struct {
	DBChecksum uint64 // index.DBChecksum of the post-mutation dataset
	NumGraphs  int    // post-mutation dataset size
}

// Journal accumulates mutation ops awaiting an O(delta) persist. Methods
// record each applied Mutation into one pending Journal and drain it with
// AppendJournalSection; a full WriteTo makes the pending ops obsolete.
type Journal struct {
	ops []mutOp
}

// Empty reports whether the journal holds no ops.
func (j *Journal) Empty() bool { return len(j.ops) == 0 }

// Reset drops all staged ops.
func (j *Journal) Reset() { j.ops = nil }

// OpMix counts the staged ops by kind. Removals are structurally heavier
// to replay than appends (scrub + re-home of the swapped graph), which is
// what the workload-adaptive compaction threshold in index.AppendIndexDelta
// weighs.
func (j *Journal) OpMix() (appends, removes int) {
	for _, op := range j.ops {
		if op.kind == opRemove {
			removes++
		} else {
			appends++
		}
	}
	return appends, removes
}

// JournalStamp returns the stamp of the last journal section replayed into
// this trie by ReadFrom, or nil when the loaded snapshot carried none (or
// the trie was not loaded at all). Consumers validating dataset identity
// must prefer this over the envelope a base snapshot was written with.
func (t *Trie) JournalStamp() *JournalStamp { return t.stamp }

// encodeBody serialises the journal ops with their stamp. Layout (scalars
// are uvarints unless noted):
//
//	checksum  uint64 LE        — stamp: post-mutation dataset checksum
//	ngraphs   uvarint          — stamp: post-mutation dataset size
//	nkeys     uvarint          — journal-local key table, first-use order
//	nkeys × { klen, key bytes }
//	nops      uvarint
//	nops × {
//	  kind    byte             — 1 append, 2 remove
//	  append: graph, nfeat × { keyIdx, count, nlocs, nlocs × locΔ }
//	  remove: removed, swapped (== removed when none),
//	          nscrub × keyIdx,
//	          nswap  × { keyIdx, count, nlocs, nlocs × locΔ }
//	}
//
// nlocs is always written as 0. Older writers stored Grapes vertex
// locations there, delta-encoded like segment location lists; the decoder
// still validates them and then discards them.
func (j *Journal) encodeBody(stamp JournalStamp) []byte {
	keyIdx := make(map[string]uint64)
	var keys []string
	idx := func(k string) uint64 {
		if i, ok := keyIdx[k]; ok {
			return i
		}
		i := uint64(len(keys))
		keyIdx[k] = i
		keys = append(keys, k)
		return i
	}
	// First pass interns every key so the table precedes the ops.
	for _, op := range j.ops {
		for _, f := range op.feats {
			idx(f.Key)
		}
		for _, k := range op.scrub {
			idx(k)
		}
	}

	buf := binary.LittleEndian.AppendUint64(nil, stamp.DBChecksum)
	buf = binary.AppendUvarint(buf, uint64(stamp.NumGraphs))
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	appendFeat := func(f GraphFeature) {
		buf = binary.AppendUvarint(buf, keyIdx[f.Key])
		buf = binary.AppendUvarint(buf, uint64(f.Count))
		buf = binary.AppendUvarint(buf, 0) // nlocs
	}
	buf = binary.AppendUvarint(buf, uint64(len(j.ops)))
	for _, op := range j.ops {
		buf = append(buf, op.kind)
		switch op.kind {
		case opAppend:
			buf = binary.AppendUvarint(buf, uint64(op.graph))
			buf = binary.AppendUvarint(buf, uint64(len(op.feats)))
			for _, f := range op.feats {
				appendFeat(f)
			}
		case opRemove:
			buf = binary.AppendUvarint(buf, uint64(op.graph))
			buf = binary.AppendUvarint(buf, uint64(op.swapped))
			buf = binary.AppendUvarint(buf, uint64(len(op.scrub)))
			for _, k := range op.scrub {
				buf = binary.AppendUvarint(buf, keyIdx[k])
			}
			buf = binary.AppendUvarint(buf, uint64(len(op.feats)))
			for _, f := range op.feats {
				appendFeat(f)
			}
		}
	}
	return buf
}

// decodeJournalBody parses one journal body back into its stamp and ops.
// Every structural field is validated; errors wrap ErrCorrupt.
func decodeJournalBody(body []byte) (JournalStamp, []mutOp, error) {
	var stamp JournalStamp
	if len(body) < 8 {
		return stamp, nil, fmt.Errorf("%w: journal stamp", ErrCorrupt)
	}
	stamp.DBChecksum = binary.LittleEndian.Uint64(body)
	d := segDecoder{b: body, off: 8}
	ng, err := d.uvarint()
	if err != nil || ng > math.MaxInt32 {
		return stamp, nil, fmt.Errorf("%w: journal graph count", ErrCorrupt)
	}
	stamp.NumGraphs = int(ng)

	nKeys, err := d.uvarint()
	if err != nil || nKeys > uint64(len(body)) {
		return stamp, nil, fmt.Errorf("%w: journal key count", ErrCorrupt)
	}
	keys := make([]string, 0, nKeys)
	for i := uint64(0); i < nKeys; i++ {
		klen, err := d.uvarint()
		if err != nil || klen > maxKeyLen || d.off+int(klen) > len(body) {
			return stamp, nil, fmt.Errorf("%w: journal key", ErrCorrupt)
		}
		keys = append(keys, string(body[d.off:d.off+int(klen)]))
		d.off += int(klen)
	}
	key := func() (string, error) {
		i, err := d.uvarint()
		if err != nil || i >= uint64(len(keys)) {
			return "", fmt.Errorf("%w: journal key index", ErrCorrupt)
		}
		return keys[i], nil
	}
	feat := func() (GraphFeature, error) {
		var f GraphFeature
		k, err := key()
		if err != nil {
			return f, err
		}
		f.Key = k
		count, err := d.uvarint()
		if err != nil || count > math.MaxInt32 {
			return f, fmt.Errorf("%w: journal feature count", ErrCorrupt)
		}
		f.Count = int32(count)
		_, err = d.skipLocs()
		return f, err
	}

	nOps, err := d.uvarint()
	if err != nil || nOps > uint64(len(body)) {
		return stamp, nil, fmt.Errorf("%w: journal op count", ErrCorrupt)
	}
	ops := make([]mutOp, 0, nOps)
	for i := uint64(0); i < nOps; i++ {
		if d.off >= len(body) {
			return stamp, nil, fmt.Errorf("%w: truncated journal op", ErrCorrupt)
		}
		kind := body[d.off]
		d.off++
		var op mutOp
		op.kind = kind
		switch kind {
		case opAppend:
			g, err := d.uvarint()
			if err != nil || g > math.MaxInt32 {
				return stamp, nil, fmt.Errorf("%w: journal graph id", ErrCorrupt)
			}
			op.graph = int32(g)
			nf, err := d.uvarint()
			if err != nil || nf > uint64(len(body)) {
				return stamp, nil, fmt.Errorf("%w: journal feature list", ErrCorrupt)
			}
			for f := uint64(0); f < nf; f++ {
				gf, err := feat()
				if err != nil {
					return stamp, nil, err
				}
				op.feats = append(op.feats, gf)
			}
		case opRemove:
			g, err := d.uvarint()
			if err != nil || g > math.MaxInt32 {
				return stamp, nil, fmt.Errorf("%w: journal removed id", ErrCorrupt)
			}
			op.graph = int32(g)
			sw, err := d.uvarint()
			if err != nil || sw > math.MaxInt32 {
				return stamp, nil, fmt.Errorf("%w: journal swapped id", ErrCorrupt)
			}
			op.swapped = int32(sw)
			ns, err := d.uvarint()
			if err != nil || ns > uint64(len(body)) {
				return stamp, nil, fmt.Errorf("%w: journal scrub list", ErrCorrupt)
			}
			for s := uint64(0); s < ns; s++ {
				k, err := key()
				if err != nil {
					return stamp, nil, err
				}
				op.scrub = append(op.scrub, k)
			}
			nf, err := d.uvarint()
			if err != nil || nf > uint64(len(body)) {
				return stamp, nil, fmt.Errorf("%w: journal swap list", ErrCorrupt)
			}
			for f := uint64(0); f < nf; f++ {
				gf, err := feat()
				if err != nil {
					return stamp, nil, err
				}
				op.feats = append(op.feats, gf)
			}
		default:
			return stamp, nil, fmt.Errorf("%w: journal op kind %d", ErrCorrupt, kind)
		}
		ops = append(ops, op)
	}
	if d.off != len(body) {
		return stamp, nil, fmt.Errorf("%w: %d trailing journal bytes", ErrCorrupt, len(body)-d.off)
	}
	return stamp, ops, nil
}

// replayJournal applies one decoded journal to the trie through the same
// Mutation.Apply path live mutation uses (the trie is private during load,
// so adopting the applied result in place is safe).
func (t *Trie) replayJournal(stamp JournalStamp, ops []mutOp) {
	m := &Mutation{base: t, ops: ops}
	nt := m.Apply()
	t.pages = nt.pages
	t.dead = nt.dead
	st := stamp
	t.stamp = &st
}

// CheckJournalable reports whether the trie snapshot at r's current
// position supports journal appends (format version ≥ 2). It consumes the
// snapshot magic and version from r.
func CheckJournalable(r io.Reader) error {
	br := asByteScanner(r)
	var magic [len(persistMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if string(magic[:]) != persistMagic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: reading version: %v", ErrCorrupt, err)
	}
	if version < 2 {
		return fmt.Errorf("trie: snapshot version %d predates delta journals (rewrite with WriteTo)", version)
	}
	if version > persistVersion {
		return fmt.Errorf("trie: snapshot version %d unsupported (this build writes %d)", version, persistVersion)
	}
	return nil
}

// AppendJournalSection appends j's ops (stamped with the post-mutation
// dataset fingerprint) as one journal section at the end of the snapshot
// in f, which must end with the section terminator of a version ≥ 2 trie
// snapshot — callers validate the header with CheckJournalable first. The
// write is O(journal): seek to the end, replace the terminator with
// {section, terminator}. Returns the number of bytes the file grew by.
func AppendJournalSection(f io.ReadWriteSeeker, j *Journal, stamp JournalStamp) (int64, error) {
	if _, err := f.Seek(-1, io.SeekEnd); err != nil {
		return 0, fmt.Errorf("trie: seeking snapshot end: %w", err)
	}
	var tail [1]byte
	if _, err := io.ReadFull(f, tail[:]); err != nil {
		return 0, fmt.Errorf("trie: reading snapshot terminator: %w", err)
	}
	if tail[0] != sectionEnd {
		return 0, fmt.Errorf("%w: snapshot does not end with a section terminator", ErrCorrupt)
	}
	if _, err := f.Seek(-1, io.SeekEnd); err != nil {
		return 0, fmt.Errorf("trie: seeking snapshot end: %w", err)
	}
	body := j.encodeBody(stamp)
	sec := make([]byte, 0, len(body)+16)
	sec = append(sec, sectionJournal)
	sec = binary.AppendUvarint(sec, uint64(len(body)))
	sec = binary.LittleEndian.AppendUint32(sec, crc32.ChecksumIEEE(body))
	sec = append(sec, body...)
	sec = append(sec, sectionEnd)
	if _, err := f.Write(sec); err != nil {
		return 0, fmt.Errorf("trie: appending journal: %w", err)
	}
	return int64(len(sec) - 1), nil
}

// journalOpCount best-effort counts the ops a discarded journal body
// claimed to carry: it parses the stamp, key table and op-count header
// leniently and returns 0 when the header itself is unreadable.
func journalOpCount(body []byte) int {
	if len(body) < 8 {
		return 0
	}
	d := segDecoder{b: body, off: 8}
	if _, err := d.uvarint(); err != nil { // ngraphs
		return 0
	}
	nKeys, err := d.uvarint()
	if err != nil || nKeys > uint64(len(body)) {
		return 0
	}
	for i := uint64(0); i < nKeys; i++ {
		klen, err := d.uvarint()
		if err != nil || klen > maxKeyLen || d.off+int(klen) > len(body) {
			return 0
		}
		d.off += int(klen)
	}
	nOps, err := d.uvarint()
	if err != nil || nOps > uint64(len(body)) {
		return 0
	}
	return int(nOps)
}
