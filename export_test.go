package igq

// materialize decodes the whole of a lazily loaded index, the step every
// mutation takes first, without mutating.
func (e *Engine) materialize() error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	return e.materializeIndexLocked()
}
