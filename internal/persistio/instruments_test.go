package persistio

// Fault arming and inspection that only this package's tests use; the
// crash suites of other packages arm faults through the exported methods.

// Path returns the path the file was opened with.
func (p *PathFile) Path() string { return p.path }

// FailNextWrite arms a one-shot write error (nil err selects ErrInjected).
func (ff *FaultFile) FailNextWrite(err error) {
	if err == nil {
		err = ErrInjected
	}
	ff.writeErr = err
}

// ShortNextWrite arms a one-shot short write: the next Write persists only
// half its bytes and reports ErrInjected.
func (ff *FaultFile) ShortNextWrite() { ff.shortWrite = true }

// Crashed reports whether the simulated kill has fired.
func (ff *FaultFile) Crashed() bool { return ff.crashed }

// FailNextRead arms a one-shot failure: the next ReadAt returns err.
func (f *FaultMapped) FailNextRead(err error) {
	f.mu.Lock()
	f.failNext = err
	f.mu.Unlock()
}

// Reads returns the number of ReadAt calls that reached the wrapper
// (including injected failures) — how many fetches from the mapping
// actually happened, for re-decode assertions.
func (f *FaultMapped) Reads() int64 { return f.readCalls.Load() }
