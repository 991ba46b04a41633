package igq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/index"
	"repro/internal/persistio"
	"repro/internal/trie"
)

// Lazy engine loading: LoadEngineFile(..., WithLazyLoad(budget)) maps the
// snapshot instead of decoding it, so the engine binds its first query
// after reading only the segments — and decoding only the posting lists — it
// touches, and can serve an index bigger than RAM under a resident-byte
// budget. See the package comment ("Serving indexes bigger than RAM") for
// the model and its trade-offs.

// EngineLoadOption customises one LoadEngineFile call (as opposed to
// EngineOptions, which configure the engine itself).
type EngineLoadOption func(*engineLoadConfig)

type engineLoadConfig struct {
	lazy   bool
	budget int64
}

// WithLazyLoad makes LoadEngineFile open the snapshot lazily: the header,
// dictionary, segment table and journal tail are read eagerly (and any torn
// tail recovered exactly as in an eager load), and nothing else until a
// query asks. What is paged is the posting list: a probe decodes just the
// list it needs from that list's byte span in the mapping. What is pinned
// is the dictionary and, per segment, an offset directory built on the
// segment's first probe by one read of it — which is also the one
// moment the segment's checksum is verified. budgetBytes bounds the decoded
// lists kept resident (lists not probed since the evictor's last pass go
// first and are transparently re-decoded on the next probe); 0 means
// unbounded. The pinned parts are outside the budget.
//
// The snapshot file backs the engine for as long as it serves lazily: it
// must not be modified, and Engine.Close releases it. Corruption confined
// to one segment surfaces on that segment's first probe, and a
// failing read on any later posting decode, as a contained *PanicError
// (carrying trie.ErrCorrupt or the I/O error) on the queries that needed
// those bytes; other segments keep answering and the failed probe is retried
// from scratch next time. Methods without lazy support (anything but GGSX
// and Grapes) fall back to a plain eager load.
func WithLazyLoad(budgetBytes int64) EngineLoadOption {
	return func(c *engineLoadConfig) {
		c.lazy = true
		c.budget = budgetBytes
	}
}

// errLazyUnsupported reports a method that cannot defer posting decoding;
// LoadEngineFile falls back to the eager path on it.
var errLazyUnsupported = errors.New("igq: method does not support lazy index loading")

// loadEngineLazy is LoadEngineReport over a random-access snapshot source,
// deferring posting-list decodes to first probe. src must stay open and
// immutable until the index is materialised; when src is an io.Closer the
// returned engine owns it (Engine.Close).
func loadEngineLazy(src trie.RandomAccessFile, db []*Graph, opt EngineOptions, budget int64) (*Engine, LoadReport, error) {
	if len(db) == 0 {
		return nil, LoadReport{}, errors.New("igq: empty dataset")
	}
	opt = opt.normalized()
	cr := &index.CountingScanner{R: index.AsByteScanner(io.NewSectionReader(src, 0, src.Size()))}
	var magic [len(engineMagic)]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, LoadReport{}, fmt.Errorf("igq: reading snapshot magic: %w", err)
	}
	if string(magic[:]) != engineMagic {
		return nil, LoadReport{}, fmt.Errorf("igq: not an engine snapshot (magic %q)", magic)
	}
	version, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, LoadReport{}, fmt.Errorf("igq: reading snapshot version: %w", err)
	}
	if version < 1 || version > engineSnapshotVersion {
		return nil, LoadReport{}, fmt.Errorf("igq: engine snapshot version %d unsupported (this build reads ≤ %d)",
			version, engineSnapshotVersion)
	}
	flags, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, LoadReport{}, fmt.Errorf("igq: reading snapshot flags: %w", err)
	}
	m, err := newMethod(opt)
	if err != nil {
		return nil, LoadReport{}, err
	}
	lz, ok := m.(index.LazyLoadable)
	if !ok {
		return nil, LoadReport{}, fmt.Errorf("%w: %s", errLazyUnsupported, m.Name())
	}
	headerBytes := cr.N
	idxRep, err := lz.LoadIndexLazy(
		io.NewSectionReader(src, headerBytes, src.Size()-headerBytes), db, budget)
	if err != nil {
		return nil, LoadReport{}, err
	}
	rep := LoadReport{RecoveredTail: tailRecoveryFrom(idxRep.RecoveredTail, headerBytes)}
	e, err := restoredEngine(db, m, opt, flags, &rep, func() io.Reader {
		// The index section reported its exact extent, so the cache
		// section starts right after it.
		cacheOff := headerBytes + idxRep.Bytes
		return index.AsByteScanner(io.NewSectionReader(src, cacheOff, src.Size()-cacheOff))
	})
	if err != nil {
		return nil, LoadReport{}, err
	}
	if c, ok := src.(io.Closer); ok {
		e.lazySrc = c
	}
	return e, rep, nil
}

// loadEngineFileLazy opens path through persistio.OpenMapped and serves it
// lazily, with the same on-disk self-healing as the eager LoadEngineFile: a
// recovered tail is compacted back out (which materialises the index) and
// the mapping of the superseded file is released.
func loadEngineFileLazy(path string, db []*Graph, opt EngineOptions, budget int64) (*Engine, LoadReport, error) {
	src, err := persistio.OpenMapped(path)
	if err != nil {
		return nil, LoadReport{}, err
	}
	e, rep, err := loadEngineLazy(src, db, opt, budget)
	if err != nil {
		src.Close()
		if errors.Is(err, errLazyUnsupported) {
			return loadEngineFileEager(path, db, opt)
		}
		return nil, rep, err
	}
	if rep.RecoveredTail != nil {
		// Re-saving reads every segment through the mapping (WriteTo
		// materialises), so repair before closing it.
		if err := SaveEngineFile(path, e); err != nil {
			e.Close()
			return nil, rep, fmt.Errorf("igq: repairing snapshot %s: %w", path, err)
		}
		rep.Repaired = true
		if err := e.Close(); err != nil {
			return nil, rep, err
		}
	}
	return e, rep, nil
}

// Close releases the snapshot mapping backing a lazily loaded engine. It is
// a no-op for eagerly loaded or freshly built engines, and for lazy engines
// whose index has been fully materialised the mapping is simply returned to
// the OS. Closing an engine that still serves lazily invalidates every
// later posting decode (those queries fail with a contained *PanicError);
// a mutation materialises the index first, after which closing only
// releases the mapping.
func (e *Engine) Close() error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	return e.closeLazySrcLocked()
}

func (e *Engine) closeLazySrcLocked() error {
	if e.lazySrc == nil {
		return nil
	}
	src := e.lazySrc
	e.lazySrc = nil
	return src.Close()
}

// materializeIndexLocked forces the dataset index fully resident (caller
// holds mutMu). The mapping is left open: mutation paths keep it so a
// subsequent load can reuse it; Close releases it.
func (e *Engine) materializeIndexLocked() error {
	if lz, ok := e.view.Load().m.(index.LazyLoadable); ok {
		if err := lz.Materialize(); err != nil {
			return fmt.Errorf("igq: materialising lazy index: %w", err)
		}
	}
	return nil
}

// Residency reports how much of the dataset index is decoded in memory.
// For lazily loaded engines the counters move as queries open segment
// directories and decode posting lists and the budget evicts lists; eager
// engines report Lazy == false. Cheap to sample at any time (one short
// lock the query hot path never takes).
func (e *Engine) Residency() trie.Residency {
	if rr, ok := e.view.Load().m.(index.ResidencyReporter); ok {
		return rr.Residency()
	}
	return trie.Residency{}
}
