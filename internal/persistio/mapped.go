package persistio

// Read-only random access. Snapshot loads historically streamed the whole
// file through an io.Reader; the lazy loader instead needs to jump
// straight to a segment body, or to one posting list's byte span
// inside it, without touching the bytes in between. RandomAccess is that
// shape — io.ReaderAt plus a length — and OpenMapped is the file-backed
// constructor: the file is memory-mapped where the platform supports it
// (reads are then plain page faults, and an evicted posting list costs
// nothing until it is probed again), with a pread
// (*os.File.ReadAt) fallback everywhere else. MemMapped serves tests and
// fuzz targets from a byte slice, and FaultMapped injects read failures
// for the crash/corruption suites.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// RandomAccess is a read-only random-access view of a snapshot: positioned
// reads plus a fixed length. Close releases the backing resources; reads
// after Close fail. ReadAt is safe for concurrent use (the io.ReaderAt
// contract), Close is not safe concurrently with in-flight reads.
type RandomAccess interface {
	io.ReaderAt
	Size() int64
	Close() error
}

// ErrClosed reports a read through a RandomAccess that was already closed.
var ErrClosed = errors.New("persistio: read from closed mapping")

// OpenMapped opens path for random-access reading. The file is
// memory-mapped where available; otherwise reads go through pread. Either
// way the returned view is a point-in-time length snapshot: bytes appended
// to the file after OpenMapped are not visible through it.
func OpenMapped(path string) (RandomAccess, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	if data, err := mapFile(f, size); err == nil {
		return &mappedFile{data: data, f: f}, nil
	}
	// Mapping unavailable (platform, empty file, exotic filesystem): fall
	// back to positioned reads against the open descriptor.
	return &preadFile{f: f, size: size}, nil
}

// mappedFile is a RandomAccess over an mmap'd region.
type mappedFile struct {
	data   []byte
	f      *os.File
	closed atomic.Bool
}

func (m *mappedFile) ReadAt(p []byte, off int64) (int, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("persistio: negative offset %d", off)
	}
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *mappedFile) Size() int64 { return int64(len(m.data)) }

func (m *mappedFile) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	err := unmapFile(m.data)
	m.data = nil
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// preadFile is the pread fallback: positioned reads against an open file.
type preadFile struct {
	f      *os.File
	size   int64
	closed atomic.Bool
}

func (p *preadFile) ReadAt(b []byte, off int64) (int, error) {
	if p.closed.Load() {
		return 0, ErrClosed
	}
	if off >= p.size {
		return 0, io.EOF
	}
	// Clamp to the point-in-time length so a concurrently growing file
	// (journal appends) behaves exactly like the mapped variant.
	if max := p.size - off; int64(len(b)) > max {
		n, err := p.f.ReadAt(b[:max], off)
		if err == nil {
			err = io.EOF
		}
		return n, err
	}
	return p.f.ReadAt(b, off)
}

func (p *preadFile) Size() int64 { return p.size }

func (p *preadFile) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	return p.f.Close()
}

// MemMapped is an in-memory RandomAccess over a byte slice — the unit-test
// and fuzz-target stand-in for a mapped file. The slice is shared, not
// copied: tests corrupt bytes in place to model on-disk rot between a
// posting list's eviction and its re-fault.
type MemMapped struct {
	b      []byte
	closed atomic.Bool
}

// NewMemMapped returns a RandomAccess serving reads from b.
func NewMemMapped(b []byte) *MemMapped { return &MemMapped{b: b} }

func (m *MemMapped) ReadAt(p []byte, off int64) (int, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("persistio: negative offset %d", off)
	}
	if off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *MemMapped) Size() int64 { return int64(len(m.b)) }

func (m *MemMapped) Close() error {
	m.closed.Store(true)
	return nil
}

// FaultMapped wraps a RandomAccess with injectable read failures, the
// random-access sibling of FaultFile: the crash/corruption suites use it
// to prove that an I/O error surfacing when the lazy loader opens a
// segment or decodes a posting list fails only that probe, not the rest of the
// resident index.
type FaultMapped struct {
	inner RandomAccess

	mu        sync.Mutex
	failNext  error // one-shot: next ReadAt fails
	failAll   error // sticky: every ReadAt fails
	readCalls atomic.Int64
}

// NewFaultMapped wraps inner.
func NewFaultMapped(inner RandomAccess) *FaultMapped { return &FaultMapped{inner: inner} }

// FailReads arms a sticky failure: every subsequent ReadAt returns err
// (nil disarms).
func (f *FaultMapped) FailReads(err error) {
	f.mu.Lock()
	f.failAll = err
	f.mu.Unlock()
}

func (f *FaultMapped) ReadAt(p []byte, off int64) (int, error) {
	f.readCalls.Add(1)
	f.mu.Lock()
	if err := f.failNext; err != nil {
		f.failNext = nil
		f.mu.Unlock()
		return 0, err
	}
	err := f.failAll
	f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

func (f *FaultMapped) Size() int64 { return f.inner.Size() }

func (f *FaultMapped) Close() error { return f.inner.Close() }
