package features

import (
	"bytes"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
)

// FeatureID is a dense interned identifier for a canonical feature key.
// IDs are assigned sequentially from 0 by a Dict, so they can index flat
// per-feature tables (postings arrays, per-query count scratch) without
// hashing the canonical string.
type FeatureID uint32

// IDCount pairs an interned feature with its occurrence count in one graph.
type IDCount struct {
	ID    FeatureID
	Count int32
}

// IDSet is the result of an ID-based feature enumeration over one graph: the
// multiset of canonical features, expressed as interned IDs. Unknown counts
// the path occurrences whose canonical key was absent from the dictionary
// (possible only in lookup-only enumeration) — for count-based subgraph
// filters a single unknown feature proves an empty candidate set, since no
// indexed graph contains it.
type IDSet struct {
	Counts  []IDCount
	Unknown int
}

// Dict interns canonical feature keys into dense FeatureIDs. One Dict is
// typically shared by every index over the same feature family (the dataset
// trie and iGQ's cache-side Isub/Isuper), so a query graph is canonicalised
// and interned exactly once per query and every index probes it by integer
// ID.
//
// A path key is held as a node of the path table (see the package
// comment), not as a string: its ID is the ID of its canonical node, the
// node its label sequence reaches from its root, and Key renders the key
// back from the node's chain of (parent, label) steps. Any other key — one
// that is not the canonical rendering of a path, such as "p:2.1" or a
// foreign family's "c:3" — keeps its exact string in a small side map,
// which path indexes never fill.
//
// Interning (Intern, the install step of an interning PathsID, a Round's
// Commit) takes a write lock; lookups and walks take a read lock, so
// concurrent read-only filtering is safe even while a cache flush interns
// new keys. A Round holds the read lock from Freeze to Commit, so its
// workers read the table without locking.
type Dict struct {
	mu sync.RWMutex

	// The path table: an open-addressed array of transitions, probed
	// linearly from a multiplicative hash of (parent, label), with at
	// mapping every node to its slot. Nodes 0 and 1 are the roots of walks
	// over graphs without and with edge labels; every other node is reached
	// by exactly one transition and numbered in the order transitions are
	// added, so the table has len(at) nodes. Walks over edge-labeled graphs
	// step an edge label and then a vertex label, so every second node of
	// theirs is an edge-label node, whose ID is noFeature.
	slots []slot
	at    []uint32

	// canon maps each FeatureID to its canonical node, or, with sideBit
	// set, to its index in sideKeys.
	canon    []uint32
	side     map[string]FeatureID
	sideKeys []string

	kb  keyBuf // the write lock's render buffers
	gen uint64 // bumped by Reset; a walk installs only into its own generation
}

// slot is one transition of the path table: (parent, label) → child, with
// the child's FeatureID. child 0 marks an empty slot: root 0 is nobody's
// child.
type slot struct {
	key   uint64 // parent<<32 | uint32(label)
	child uint32
	id    FeatureID
}

// The roots of the path table.
const (
	rootPlain   = 0 // walks over graphs whose edges carry no labels
	rootLabeled = 1 // walks over graphs with edge labels
	roots       = 2
)

// sideBit marks a canon entry that indexes sideKeys.
const sideBit = 1 << 31

// The table holds at most 4 nodes per 5 slots, and grows to hold 16 per 25.
const (
	loadNum, loadDen = 4, 5
	minSlots         = 64
)

func tkey(node uint32, l graph.Label) uint64 { return uint64(node)<<32 | uint64(uint32(l)) }

// home is the first slot a transition probes in a table of n slots.
func home(k uint64, n int) int {
	return int((k * 0x9E3779B97F4A7C15 >> 32) * uint64(n) >> 32)
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{at: make([]uint32, roots), side: make(map[string]FeatureID)}
}

// get returns the child and ID of the transition k, child 0 if the table
// lacks it.
func (d *Dict) get(k uint64) (uint32, FeatureID) {
	n := len(d.slots)
	if n == 0 {
		return 0, 0
	}
	for i := home(k, n); ; {
		s := &d.slots[i]
		if s.child == 0 || s.key == k {
			return s.child, s.id
		}
		if i++; i == n {
			i = 0
		}
	}
}

// add makes the node that transition k (which the table lacks) reaches.
func (d *Dict) add(k uint64, id FeatureID) uint32 {
	d.reserve(len(d.at) - roots + 1)
	c := uint32(len(d.at))
	d.at = append(d.at, d.place(slot{k, c, id}))
	return c
}

// place puts s into the first free slot of its probe sequence.
func (d *Dict) place(s slot) uint32 {
	n := len(d.slots)
	i := home(s.key, n)
	for d.slots[i].child != 0 {
		if i++; i == n {
			i = 0
		}
	}
	d.slots[i] = s
	return uint32(i)
}

// reserve grows the table, if it must, to hold nodes nodes.
func (d *Dict) reserve(nodes int) {
	if nodes*loadDen > len(d.slots)*loadNum {
		d.grow(max(minSlots, nodes*loadDen*loadDen/(loadNum*loadNum)))
	}
}

func (d *Dict) grow(n int) {
	old := d.slots
	d.slots = make([]slot, n)
	for _, s := range old {
		if s.child != 0 {
			d.at[s.child] = d.place(s)
		}
	}
}

// nodeID returns the ID a non-root node carries.
func (d *Dict) nodeID(c uint32) FeatureID { return d.slots[d.at[c]].id }

func (d *Dict) setNodeID(c uint32, id FeatureID) { d.slots[d.at[c]].id = id }

// TableLen returns the number of transitions in the path table (one per
// node besides the roots).
func (d *Dict) TableLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.at) - roots
}

// Len returns the number of interned keys.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.canon)
}

// Intern returns the ID of key, assigning the next dense ID on first sight.
func (d *Dict) Intern(key string) FeatureID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var c chainCursor
	return d.internLocked(key, &c)
}

// InternKeys interns keys in order, as Intern does one by one, and returns
// their IDs: a loader's bulk pass over a saved vocabulary. Under one lock,
// with the table sized for the keys, it parses every key into its
// canonical chain, continuing from the node its chain shares with the
// previous key's. The chains' other nodes — those of non-canonical
// orientation, "p:2.1" on the way to "p:2.1.3" — are left unresolved for
// the first walk through them to resolve.
func (d *Dict) InternKeys(keys []string) []FeatureID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reserve(len(d.at) - roots + len(keys) + len(keys)/8)
	ids := make([]FeatureID, len(keys))
	var c chainCursor
	for i, k := range keys {
		ids[i] = d.internLocked(k, &c)
	}
	return ids
}

// chainCursor is the chain of the last path key interned: its root, labels
// and nodes.
type chainCursor struct {
	root  uint32
	seq   []graph.Label
	nodes []uint32
}

// internLocked interns a path key as its canonical node, making the nodes
// of its chain the table lacks — with their IDs unresolved (absentFeature)
// until a walk resolves them — and any other key in the side map. The
// chain is walked from the last node it shares with c's, and left in c.
func (d *Dict) internLocked(key string, c *chainCursor) FeatureID {
	root, seq, ok := d.kb.parse(key)
	if !ok {
		if id, ok := d.side[key]; ok {
			return id
		}
		key = strings.Clone(key) // key may share a loader's whole key buffer
		id := FeatureID(len(d.canon))
		d.canon = append(d.canon, sideBit|uint32(len(d.sideKeys)))
		d.sideKeys = append(d.sideKeys, key)
		d.side[key] = id
		return id
	}
	i := 0
	if root == c.root {
		for i < len(seq) && i < len(c.seq) && seq[i] == c.seq[i] {
			i++
		}
	}
	c.root, c.seq, c.nodes = root, append(c.seq[:0], seq...), c.nodes[:i]
	n := root
	if i > 0 {
		n = c.nodes[i-1]
	}
	for ; i < len(seq); i++ {
		k := tkey(n, seq[i])
		if n, _ = d.get(k); n == 0 {
			n = d.add(k, chainID(root, i))
		}
		c.nodes = append(c.nodes, n)
	}
	if id := d.nodeID(n); id != absentFeature {
		return id
	}
	id := FeatureID(len(d.canon))
	d.canon = append(d.canon, n)
	d.setNodeID(n, id)
	return id
}

// chainID is the ID a node takes when it is made as the i-th step of a
// chain from root, before anything resolves it.
func chainID(root uint32, i int) FeatureID {
	if root == rootLabeled && i%2 == 1 {
		return noFeature
	}
	return absentFeature
}

// chain returns the root and label sequence of the path that reaches node
// c, in b.seq. up, when not nil, holds the transition that reaches each
// node (see Keys); else the table is probed.
func (d *Dict) chain(c uint32, b *keyBuf, up []uint64) (uint32, []graph.Label) {
	b.seq = b.seq[:0]
	for c >= roots {
		var k uint64
		if up != nil {
			k = up[c]
		} else {
			k = d.slots[d.at[c]].key
		}
		b.seq = append(b.seq, graph.Label(int32(uint32(k))))
		c = uint32(k >> 32)
	}
	for i, j := 0, len(b.seq)-1; i < j; i, j = i+1, j-1 {
		b.seq[i], b.seq[j] = b.seq[j], b.seq[i]
	}
	return c, b.seq
}

// keyLocked renders the key of id into b.fwd, walking its chain through up
// (see chain).
func (d *Dict) keyLocked(id FeatureID, b *keyBuf, up []uint64) []byte {
	c := d.canon[id]
	if c&sideBit != 0 {
		return append(b.fwd[:0], d.sideKeys[c&^sideBit]...)
	}
	root, seq := d.chain(c, b, up)
	stride, prefix := keyForm(seq, root == rootLabeled)
	b.fwd = appendLabels(append(b.fwd[:0], prefix...), seq, stride, false)
	return b.fwd
}

// Reset drops every interned key and the path table, keeping the Dict
// object itself valid so that indexes sharing it (via index.DictProvider)
// stay wired to the same interner. IDs restart densely from 0 as keys are
// re-interned, so any structure keyed by the old IDs must be rebuilt
// afterwards — Reset is the rebuild-time companion of Build/LoadIndex,
// never a query-time operation.
// Without it a dictionary shared across successive Builds accumulates the
// dead vocabulary of every dataset it ever saw (unbounded growth, and bloat
// in persisted snapshot headers, which serialise the dictionary in full).
func (d *Dict) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	clear(d.slots)
	d.at = d.at[:roots]
	d.canon = d.canon[:0]
	clear(d.side)
	clear(d.sideKeys)
	d.sideKeys = d.sideKeys[:0]
	d.gen++
}

// Accounted bytes of one feature (see EntrySizeBytes).
const (
	pathEntryBytes = 4 + 2*(16+4) // canon entry; two nodes, each a slot and its at entry
	sideEntryBytes = 4 + 16 + 48  // canon entry, sideKeys string header, map entry
)

// EntrySizeBytes is the accounted footprint of the key interned as id. A
// path key costs its canon entry and two table nodes — its own and its
// reverse orientation's, which walks over the dataset fill — each a 16 B
// slot and a 4 B at entry, counted at full occupancy; so a loaded
// dictionary, whose table holds only the canonical chains until walks run,
// accounts exactly like the built one. Any other key costs its bytes, its
// canon entry, its string header and its side-map entry. Exposed so
// consumers that *exclude* entries (the trie's retired-feature accounting)
// stay in lockstep with SizeBytes.
func (d *Dict) EntrySizeBytes(id FeatureID) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if c := d.canon[id]; c&sideBit != 0 {
		return len(d.sideKeys[c&^sideBit]) + sideEntryBytes
	}
	return pathEntryBytes
}

// SizeBytes approximates the dictionary's memory footprint: the per-entry
// cost of EntrySizeBytes over every key, plus fixed headers. Counted
// by the index that owns the dictionary (paper Fig 18 accounting); tries
// sharing the dictionary must not add it again.
func (d *Dict) SizeBytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	sz := 48 // struct, slice headers
	sz += (len(d.canon) - len(d.sideKeys)) * pathEntryBytes
	for _, k := range d.sideKeys {
		sz += len(k) + sideEntryBytes
	}
	return sz
}

// Lookup returns the ID of key without interning it.
func (d *Dict) Lookup(key string) (FeatureID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var b keyBuf
	root, seq, ok := b.parse(key)
	if !ok {
		id, ok := d.side[key]
		return id, ok
	}
	n := root
	for _, l := range seq {
		if n, _ = d.get(tkey(n, l)); n == 0 {
			return 0, false
		}
	}
	if id := d.nodeID(n); id != absentFeature {
		return id, true
	}
	return 0, false
}

// Key returns the canonical string for an interned ID.
func (d *Dict) Key(id FeatureID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var b keyBuf
	return string(d.keyLocked(id, &b, nil))
}

// Keys returns all interned keys in ID order, for persistence:
// re-interning the slice into a fresh Dict reproduces the same IDs.
func (d *Dict) Keys() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	// A chain walk through the table probes a random slot per step; one
	// pass over the slots first lays every node's transition out densely.
	up := make([]uint64, len(d.at))
	for _, s := range d.slots {
		if s.child != 0 {
			up[s.child] = s.key
		}
	}
	var b keyBuf
	out := make([]string, len(d.canon))
	for id := range out {
		out[id] = string(d.keyLocked(FeatureID(id), &b, up))
	}
	return out
}

// keyBuf holds the buffers a path key is parsed, rendered and resolved in.
type keyBuf struct {
	fwd, rev  []byte
	seq, cseq []graph.Label
}

// keyForm returns how a walk's label sequence renders: every label with
// prefix "p:" for a walk over a graph without edge labels; for a labeled
// walk, whose sequence interleaves vertex and edge labels, every label
// with "p:!" when an edge label on the path is non-zero, and else every
// second (vertex) label with "p:". The "!" keeps labeled keys disjoint
// from unlabeled ones (an interleaved sequence could otherwise collide with
// a longer unlabeled path's key); a path whose edge labels are all zero
// takes the unlabeled form, so graphs mixing labeled and unlabeled edges
// filter correctly against each other.
func keyForm(seq []graph.Label, labeled bool) (stride int, prefix string) {
	if !labeled {
		return 1, "p:"
	}
	for i := 1; i < len(seq); i += 2 {
		if seq[i] != 0 {
			return 1, "p:!"
		}
	}
	return 2, "p:"
}

// canonical resolves the orientation of a walk's path seq: it renders the
// forward and reverse keys into b.fwd and b.rev — the smaller, compared as
// bytes (lexicographic over decimals, not numeric), is the canonical key —
// and returns the root and label sequence of the canonical key's chain.
// self reports that the chain is seq's own (canonical orientation, and the
// walk's root); else the sequence is in b.cseq.
func (b *keyBuf) canonical(seq []graph.Label, labeled bool) (root uint32, cseq []graph.Label, self bool) {
	stride, prefix := keyForm(seq, labeled)
	b.fwd = appendLabels(append(b.fwd[:0], prefix...), seq, stride, false)
	b.rev = appendLabels(append(b.rev[:0], prefix...), seq, stride, true)
	rev := bytes.Compare(b.rev, b.fwd) < 0
	root = rootPlain
	if labeled && stride == 1 {
		root = rootLabeled
	}
	if stride == 1 && !rev {
		return root, seq, true
	}
	b.cseq = b.cseq[:0]
	for i := 0; i < len(seq); i += stride {
		j := i
		if rev {
			j = len(seq) - 1 - i
		}
		b.cseq = append(b.cseq, seq[j])
	}
	return root, b.cseq, false
}

// parse returns the root and label sequence (in b.seq) of key when key is
// the canonical rendering of a path — the key of some walk's feature — and
// ok false for any other key.
func (b *keyBuf) parse(key string) (root uint32, seq []graph.Label, ok bool) {
	rest, ok := strings.CutPrefix(key, "p:")
	if !ok {
		return 0, nil, false
	}
	root = rootPlain
	if len(rest) > 0 && rest[0] == '!' {
		root, rest = rootLabeled, rest[1:]
	}
	body := rest
	b.seq = b.seq[:0]
	for {
		field := rest
		i := strings.IndexByte(rest, '.')
		if i >= 0 {
			field = rest[:i]
		}
		l, ok := parseLabel(field)
		if !ok {
			return 0, nil, false
		}
		b.seq = append(b.seq, l)
		if i < 0 {
			break
		}
		rest = rest[i+1:]
	}
	seq = b.seq
	labeled := root == rootLabeled
	if labeled && len(seq)%2 == 0 {
		return 0, nil, false
	}
	if stride, _ := keyForm(seq, labeled); stride != 1 {
		return 0, nil, false // all edge labels zero: the key takes the unlabeled form
	}
	// The fields are canonical decimals, so key is seq's forward rendering;
	// it must not sort after the reverse one.
	b.rev = appendLabels(b.rev[:0], seq, 1, true)
	if string(b.rev) < body {
		return 0, nil, false
	}
	return root, seq, true
}

// parseLabel parses a label rendered as strconv.AppendInt renders it: no
// sign but a minus, no leading zeros, no "-0".
func parseLabel(s string) (graph.Label, bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		s = s[1:]
	}
	if len(s) == 0 || len(s) > 10 || s[0] == '0' && (len(s) > 1 || neg) {
		return 0, false
	}
	var v int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	if v != int64(int32(v)) {
		return 0, false
	}
	return graph.Label(v), true
}

// appendLabels renders every stride-th label of seq, '.'-separated, from
// the front or from the back.
func appendLabels(b []byte, seq []graph.Label, stride int, rev bool) []byte {
	for i := 0; i < len(seq); i += stride {
		if i > 0 {
			b = append(b, '.')
		}
		l := seq[i]
		if rev {
			l = seq[len(seq)-1-i]
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return b
}
