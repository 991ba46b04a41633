package trie

// Key-addressed reads and staging, for tests that name features by their
// canonical keys; the store itself is addressed by FeatureID.

// Get materialises the postings for key as a flat []Posting, or nil if the
// key was never inserted into this trie. The slice is freshly allocated;
// hot paths use GetByID and read the container form directly.
func (t *Trie) Get(key string) []Posting {
	id, ok := t.dict.Lookup(key)
	if !ok {
		return nil
	}
	return t.GetByID(id).Postings()
}

// Contains reports whether key currently has at least one posting. A key
// whose postings were all drained by RemoveGraph is no longer contained.
func (t *Trie) Contains(key string) bool {
	id, ok := t.dict.Lookup(key)
	if !ok {
		return false
	}
	return t.GetByID(id).Len() > 0
}
