// Package persistio supplies the durability primitives the snapshot and
// journal persisters build on, plus the fault-injection doubles that let
// tests kill a write at any byte boundary and prove recovery.
//
// Two write disciplines cover every persistence path in this module:
//
//   - AtomicWriteFile: full-file saves. The content is written to a
//     temporary file in the target directory, fsynced, renamed over the
//     destination, and the directory is fsynced. A crash at any point
//     leaves either the old file or the new file — never a torn mix, and
//     never a destroyed previous snapshot.
//   - File + AtomicRewriter: appendable snapshot files (delta journals).
//     File is the capability set journal appends need (read, write, seek,
//     sync, truncate); AtomicRewriter is the optional capability of
//     atomically replacing the whole contents, used by journal compaction
//     so a crash mid-compaction cannot brick the snapshot it is folding.
//
// Real files get these via OpenFile/Create (PathFile); tests get the same
// contracts from MemFile, and FaultFile wraps either with programmable
// fault points (short write, write error, sync error, crash-after-N-bytes)
// for the crash-recovery soak harness.
package persistio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the capability set appendable snapshot files need: streaming
// reads and writes, seeking, truncation, and durability barriers.
// *os.File satisfies it; MemFile supplies an in-memory double.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Sync() error
	Truncate(size int64) error
}

// AtomicRewriter is the optional capability of replacing a file's entire
// contents atomically: after AtomicRewrite returns nil the file holds
// exactly what write produced; after an error (or a crash at any point)
// it still holds its previous contents. Journal compaction prefers this
// over an in-place rewrite, which has a window where a crash destroys the
// snapshot.
type AtomicRewriter interface {
	AtomicRewrite(write func(io.Writer) error) error
}

// Sync issues a durability barrier on w when it supports one (File,
// *os.File) and is a no-op otherwise. Persisters call it after the bytes
// that commit an operation (a journal terminator, a rename) have landed.
func Sync(w any) error {
	if s, ok := w.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// AtomicWriteFile writes a file atomically and durably: write streams the
// content into a temporary file created in path's directory, the
// temporary file is fsynced, renamed onto path, and the directory is
// fsynced so the rename itself is durable. On any error the temporary
// file is removed and path is untouched.
func AtomicWriteFile(path string, write func(w io.Writer) error) error {
	return AtomicWriteFileWrapped(path, nil, write)
}

// AtomicWriteFileWrapped is AtomicWriteFile with an injectable wrap
// applied to the temporary file — the fault-injection seam crash tests
// use (wrap with a FaultFile to kill the save mid-write and verify the
// destination survives untouched). A nil wrap writes straight to the
// file.
func AtomicWriteFileWrapped(path string, wrap func(File) File, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("persistio: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	var f File = tmp
	if wrap != nil {
		f = wrap(tmp)
	}
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("persistio: syncing temp file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		tmpName = ""
		os.Remove(tmp.Name())
		return fmt.Errorf("persistio: closing temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		tmpName = ""
		return fmt.Errorf("persistio: renaming temp file: %w", err)
	}
	tmpName = "" // committed; nothing to clean up
	return syncDir(dir)
}

// syncDir fsyncs a directory so a preceding rename in it is durable.
// Errors from platforms that refuse directory fsync are ignored — the
// rename itself is already atomic; only its durability is best-effort
// there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// PathFile is an *os.File that remembers its path, which is what lets it
// implement AtomicRewriter: the replacement content goes to a temp file
// that is renamed over the path, exactly like AtomicWriteFile, and the
// handle is re-opened onto the new inode so subsequent reads and appends
// see the rewritten contents.
type PathFile struct {
	*os.File
	path string
}

// OpenFile opens an existing snapshot file for reading, appending and
// atomic rewriting.
func OpenFile(path string) (*PathFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	return &PathFile{File: f, path: path}, nil
}

// AtomicRewrite implements AtomicRewriter: the new contents are written
// and fsynced beside the file and renamed over it, then the handle is
// re-opened onto the new inode (positioned at the start). A crash or
// error at any point leaves the previous contents intact.
func (p *PathFile) AtomicRewrite(write func(w io.Writer) error) error {
	if err := AtomicWriteFileWrapped(p.path, nil, write); err != nil {
		return err
	}
	nf, err := os.OpenFile(p.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("persistio: reopening rewritten file: %w", err)
	}
	old := p.File
	p.File = nf
	old.Close()
	return nil
}

// Fault-injection errors. ErrInjected marks a programmed fault (write or
// sync error); ErrCrashed marks the simulated kill — once it fires, every
// subsequent operation on the FaultFile fails with it, modelling a dead
// process whose file retains only the bytes persisted before the crash.
var (
	ErrInjected = errors.New("persistio: injected fault")
	ErrCrashed  = errors.New("persistio: simulated crash")
)

// FaultFile wraps a File with programmable fault points. The crash model
// is byte-prefix: CrashAfterBytes(n) lets exactly n more content bytes
// reach the underlying file — a write crossing the budget persists only
// its prefix — after which the file behaves like the process died:
// every read, write, seek, sync and truncate fails with ErrCrashed.
// Sweeping n across [0, bytes-of-operation] therefore kills the
// operation at every byte boundary.
type FaultFile struct {
	f File

	budget  int64 // content bytes still allowed; -1 = unlimited
	crashed bool

	writeErr   error // next Write fails with this (no bytes persisted)
	shortWrite bool  // next Write persists only half, then reports ErrInjected
	syncErr    error // next Sync fails with this

	written int64 // content bytes persisted through this wrapper
}

// NewFaultFile wraps f with no faults armed.
func NewFaultFile(f File) *FaultFile { return &FaultFile{f: f, budget: -1} }

// CrashAfterBytes arms the simulated kill after n more written bytes.
func (ff *FaultFile) CrashAfterBytes(n int64) { ff.budget = n }

// FailNextSync arms a one-shot sync error (nil err selects ErrInjected).
func (ff *FaultFile) FailNextSync(err error) {
	if err == nil {
		err = ErrInjected
	}
	ff.syncErr = err
}

// Written returns the content bytes persisted through this wrapper.
func (ff *FaultFile) Written() int64 { return ff.written }

func (ff *FaultFile) Read(p []byte) (int, error) {
	if ff.crashed {
		return 0, ErrCrashed
	}
	return ff.f.Read(p)
}

func (ff *FaultFile) Write(p []byte) (int, error) {
	if ff.crashed {
		return 0, ErrCrashed
	}
	if ff.writeErr != nil {
		err := ff.writeErr
		ff.writeErr = nil
		return 0, err
	}
	if ff.shortWrite {
		ff.shortWrite = false
		n, err := ff.f.Write(p[:len(p)/2])
		ff.written += int64(n)
		if err != nil {
			return n, err
		}
		return n, ErrInjected
	}
	if ff.budget >= 0 && int64(len(p)) > ff.budget {
		n, _ := ff.f.Write(p[:ff.budget])
		ff.written += int64(n)
		ff.crashed = true
		return n, ErrCrashed
	}
	if ff.budget >= 0 {
		ff.budget -= int64(len(p))
	}
	n, err := ff.f.Write(p)
	ff.written += int64(n)
	return n, err
}

func (ff *FaultFile) Seek(offset int64, whence int) (int64, error) {
	if ff.crashed {
		return 0, ErrCrashed
	}
	return ff.f.Seek(offset, whence)
}

func (ff *FaultFile) Sync() error {
	if ff.crashed {
		return ErrCrashed
	}
	if ff.syncErr != nil {
		err := ff.syncErr
		ff.syncErr = nil
		return err
	}
	return ff.f.Sync()
}

func (ff *FaultFile) Truncate(size int64) error {
	if ff.crashed {
		return ErrCrashed
	}
	return ff.f.Truncate(size)
}

// AtomicRewrite forwards to the underlying file's AtomicRewriter (when it
// has one) with the fault budget applied to the rewrite content: a crash
// or fault during the callback aborts the swap, so — like a real atomic
// rewrite — the previous contents survive intact.
func (ff *FaultFile) AtomicRewrite(write func(w io.Writer) error) error {
	if ff.crashed {
		return ErrCrashed
	}
	ar, ok := ff.f.(AtomicRewriter)
	if !ok {
		return fmt.Errorf("persistio: underlying file does not support atomic rewrite")
	}
	return ar.AtomicRewrite(func(w io.Writer) error {
		return write(faultWriter{ff: ff, w: w})
	})
}

// faultWriter routes rewrite-content writes through the FaultFile's fault
// state while the bytes themselves land in the rewrite destination.
type faultWriter struct {
	ff *FaultFile
	w  io.Writer
}

func (fw faultWriter) Write(p []byte) (int, error) {
	ff := fw.ff
	if ff.crashed {
		return 0, ErrCrashed
	}
	if ff.writeErr != nil {
		err := ff.writeErr
		ff.writeErr = nil
		return 0, err
	}
	if ff.budget >= 0 && int64(len(p)) > ff.budget {
		n, _ := fw.w.Write(p[:ff.budget])
		ff.written += int64(n)
		ff.crashed = true
		return n, ErrCrashed
	}
	if ff.budget >= 0 {
		ff.budget -= int64(len(p))
	}
	n, err := fw.w.Write(p)
	ff.written += int64(n)
	return n, err
}
