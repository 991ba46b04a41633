package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/trie"
)

// Dataset-index persistence. The paper's premise is that index knowledge is
// expensive to earn and worth keeping; Persistable extends Method with a
// snapshot round-trip so a process restart costs O(read) instead of
// O(re-enumerate the dataset). Implemented by the path methods (ggsx,
// grapes) over the trie segment format (see internal/trie's package and
// format documentation).

// Persistable is a Method whose built dataset index can be serialised and
// restored without rebuilding.
//
// SaveIndex writes a self-contained snapshot of the built index; LoadIndex
// replaces the index's state with a snapshot previously written by the same
// method kind, validating it against db — the dataset the restored index
// will answer over. Implementations must guarantee that a loaded index is
// observationally identical to a freshly Built one: same candidates, same
// statistics, same answers. Like Build, LoadIndex is exclusive: no other
// method of the index may run concurrently, and structures keyed by the
// previous dictionary IDs must be rebuilt afterwards.
//
// Durability contract: LoadIndex salvages a snapshot whose trailing
// journal section is torn (the crash-mid-append signature), loading the
// committed prefix and reporting the damage in LoadReport.RecoveredTail.
// Corruption anywhere before the journal tail always fails, and a failed
// load leaves the index and its dictionary byte-identical to their
// pre-call state.
type Persistable interface {
	Method
	SaveIndex(w io.Writer) error
	LoadIndex(r io.Reader, db []*graph.Graph) (LoadReport, error)
}

// LoadReport describes a completed LoadIndex.
type LoadReport struct {
	// Bytes is the number of bytes consumed from the reader (including a
	// discarded torn tail).
	Bytes int64
	// RecoveredTail is non-nil when the load salvaged a torn journal
	// tail; its offsets are absolute within the reader handed to
	// LoadIndex, so a caller owning the underlying file can repair it.
	RecoveredTail *trie.TailRecovery
}

// ErrDatasetMismatch reports a snapshot loaded against a dataset other than
// the one it was saved for. Answers are dataset positions, so such a load
// would silently return wrong graphs; the checksum guard turns it into this
// error instead.
var ErrDatasetMismatch = errors.New("index snapshot belongs to a different dataset")

// DBChecksum fingerprints a dataset: an order-sensitive FNV fold of the
// per-graph structural fingerprints (the same construction iGQ's cache
// snapshots use). Embedded in index snapshots as the dataset guard.
func DBChecksum(db []*graph.Graph) uint64 {
	var h uint64 = 1469598103934665603
	for _, g := range db {
		h = h*1099511628211 ^ graph.Fingerprint(g)
	}
	return h
}

// ByteScanner is the reader shape snapshot loaders need: streaming reads
// plus single-byte reads for varints.
type ByteScanner interface {
	io.Reader
	io.ByteReader
}

// AsByteScanner returns r itself when it already supports byte reads, or
// wraps it in a buffered reader. A loader reading several sections from one
// stream must wrap once and hand the same scanner to every section, or the
// wrapper's read-ahead would swallow the next section's bytes.
func AsByteScanner(r io.Reader) ByteScanner {
	if bs, ok := r.(ByteScanner); ok {
		return bs
	}
	return bufio.NewReader(r)
}

// CountingScanner wraps a ByteScanner, counting consumed bytes — the
// method loaders use it to translate section-relative recovery offsets
// into stream-absolute ones.
type CountingScanner struct {
	R ByteScanner
	N int64
}

func (c *CountingScanner) Read(p []byte) (int, error) {
	m, err := c.R.Read(p)
	c.N += int64(m)
	return m, err
}

func (c *CountingScanner) ReadByte() (byte, error) {
	b, err := c.R.ReadByte()
	if err == nil {
		c.N++
	}
	return b, err
}

// CountingWriter wraps a writer, counting the bytes written — shared by
// the method persisters for delta-log base-size accounting.
type CountingWriter struct {
	W io.Writer
	N int64
}

func (c *CountingWriter) Write(p []byte) (int, error) {
	m, err := c.W.Write(p)
	c.N += int64(m)
	return m, err
}

// IndexEnvelope is the common header of a method-index snapshot: which
// method wrote it, at what feature length, over which dataset.
type IndexEnvelope struct {
	Method     string // Method.Name()-style identifier, e.g. "GGSX"
	MaxPathLen int    // feature path length the index was built with
	DBChecksum uint64 // DBChecksum of the indexed dataset
	NumGraphs  int    // dataset size (cheap pre-checksum sanity)
}

const (
	envelopeMagic   = "IGQIDX"
	envelopeVersion = 1
	maxMethodName   = 64
)

// WriteIndexEnvelope writes the envelope header; the method-specific index
// body (typically a trie snapshot) follows it in the same stream.
func WriteIndexEnvelope(w io.Writer, env IndexEnvelope) error {
	buf := make([]byte, 0, 64)
	buf = append(buf, envelopeMagic...)
	buf = binary.AppendUvarint(buf, envelopeVersion)
	buf = binary.AppendUvarint(buf, uint64(len(env.Method)))
	buf = append(buf, env.Method...)
	buf = binary.AppendUvarint(buf, uint64(env.MaxPathLen))
	buf = binary.LittleEndian.AppendUint64(buf, env.DBChecksum)
	buf = binary.AppendUvarint(buf, uint64(env.NumGraphs))
	_, err := w.Write(buf)
	return err
}

// ReadIndexEnvelope reads an envelope header written by WriteIndexEnvelope,
// leaving r positioned at the index body. r should come from AsByteScanner
// when more sections follow.
func ReadIndexEnvelope(r io.Reader) (IndexEnvelope, error) {
	br := AsByteScanner(r)
	var env IndexEnvelope
	var magic [len(envelopeMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return env, fmt.Errorf("index: reading snapshot magic: %w", err)
	}
	if string(magic[:]) != envelopeMagic {
		return env, fmt.Errorf("index: not an index snapshot (magic %q)", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return env, fmt.Errorf("index: reading snapshot version: %w", err)
	}
	if version < 1 || version > envelopeVersion {
		return env, fmt.Errorf("index: snapshot version %d unsupported (this build reads ≤ %d)", version, envelopeVersion)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > maxMethodName {
		return env, fmt.Errorf("index: bad method name length")
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return env, fmt.Errorf("index: reading method name: %w", err)
	}
	env.Method = string(name)
	mpl, err := binary.ReadUvarint(br)
	if err != nil {
		return env, fmt.Errorf("index: reading feature length: %w", err)
	}
	env.MaxPathLen = int(mpl)
	var sum [8]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return env, fmt.Errorf("index: reading dataset checksum: %w", err)
	}
	env.DBChecksum = binary.LittleEndian.Uint64(sum[:])
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return env, fmt.Errorf("index: reading dataset size: %w", err)
	}
	env.NumGraphs = int(n)
	return env, nil
}

// ValidateEnvelopeMethod checks only the method identity of an envelope.
// Loaders of journal-appendable snapshots use it for the fail-fast check
// and validate the dataset afterwards via ValidateDataset against the
// newest journal stamp — a journaled snapshot's envelope still carries the
// *base* dataset's fingerprint, while the file as a whole decodes to the
// post-mutation dataset's index.
func ValidateEnvelopeMethod(env IndexEnvelope, method string) error {
	if env.Method != method {
		return fmt.Errorf("index: snapshot holds a %s index, not %s", env.Method, method)
	}
	return nil
}

// ValidateDataset checks a recorded dataset fingerprint (from the envelope
// or from the newest journal stamp) against the dataset a snapshot is
// being loaded over, wrapping ErrDatasetMismatch on divergence.
func ValidateDataset(checksum uint64, numGraphs int, db []*graph.Graph) error {
	if numGraphs != len(db) {
		return fmt.Errorf("%w: snapshot indexed %d graphs, dataset has %d",
			ErrDatasetMismatch, numGraphs, len(db))
	}
	if checksum != DBChecksum(db) {
		return fmt.Errorf("%w: dataset checksum mismatch", ErrDatasetMismatch)
	}
	return nil
}
