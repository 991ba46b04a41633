package index

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/persistio"
	"repro/internal/trie"
)

// Dynamic datasets. A Mutable method maintains its index under dataset
// mutation in O(delta): appending graphs inserts only the new graphs'
// features, and removing graphs scrubs only the removed (and swapped)
// graphs' postings — no re-enumeration of the unchanged dataset. Mutation
// is copy-on-write: the receiver keeps answering over the pre-mutation
// dataset (so queries in flight against it stay consistent) and a new
// method value over the new dataset is returned; installing it is the
// caller's snapshot swap. DeltaPersistable extends the persistence story
// the same way: AppendDelta appends the mutations since the last save as a
// CRC-guarded journal section, so the re-save is O(delta) too.

// ErrNotMutable reports a method without incremental maintenance support.
var ErrNotMutable = errors.New("index: method does not support dataset mutation")

// Mutable is a Method whose dataset can be mutated in place of a rebuild.
//
// Both mutation calls are copy-on-write: they return a new Mutable serving
// the post-mutation dataset (sharing all unaffected index state with the
// receiver) together with the new dataset slice; the receiver is left
// untouched and keeps answering over the old dataset. Like Build, a
// mutation call is externally exclusive — one mutation at a time, and the
// caller must not mutate through a stale generation — but it may run
// concurrently with the receiver's read path.
type Mutable interface {
	Method
	// AppendGraphs returns a generation over the dataset with gs appended:
	// the new graphs occupy the positions after the existing ones, in
	// order.
	AppendGraphs(gs []*graph.Graph) (Mutable, []*graph.Graph, error)
	// RemoveGraphs returns a generation with the graphs at the given
	// positions removed under the canonical swap-removal of SwapRemove,
	// plus the old→new position mapping (-1 = removed) callers need to
	// patch position-keyed state.
	RemoveGraphs(positions []int) (Mutable, []*graph.Graph, []int32, error)
}

// DeltaPersistable is a Persistable whose snapshot files accept O(delta)
// journal appends.
type DeltaPersistable interface {
	Persistable
	// AppendDelta persists every mutation applied since f's snapshot was
	// written (by SaveIndex or a previous AppendDelta on the same file) as
	// one journal section appended to f, fsyncing afterwards when f
	// supports it. When accumulated journals outgrow the workload-adaptive
	// compaction threshold (removal-heavy journals compact earlier — see
	// removalReplayWeight), the file is instead rewritten as a fresh
	// compact base folding all journals in: atomically via
	// persistio.AtomicRewriter when f supports it, else in place via
	// truncation. The caller must hand the same file lineage to every
	// call: the pending delta is tracked relative to the last full save.
	// Exclusive with other persistence and mutation calls.
	AppendDelta(f io.ReadWriteSeeker) error
}

// DeltaMaintainable extends DeltaPersistable with a timer/idleness hook:
// MaintainDelta behaves like AppendDelta but also runs the compaction
// check when no mutations are pending, so journal debt left behind by the
// last append of a burst is folded down during quiet periods instead of
// waiting for the next mutation. Reports whether the file was modified.
type DeltaMaintainable interface {
	DeltaPersistable
	MaintainDelta(f io.ReadWriteSeeker) (bool, error)
}

// RemoveStep is one swap-removal step: the graph at Removed is deleted and
// the graph then at SwappedFrom (the last position) takes its place.
// SwappedFrom == Removed means the removed graph was itself last.
type RemoveStep struct {
	Removed      int32
	SwappedFrom  int32
	RemovedGraph *graph.Graph // the graph deleted by this step
	SwappedGraph *graph.Graph // the graph re-homed to Removed (nil when none)
}

// SwapRemove applies the canonical batch removal semantics shared by every
// Mutable method and by reference implementations in tests: positions
// (indices into db, deduplicated, all in range) are processed highest
// first; each step replaces the removed position with the then-last graph
// and shrinks the dataset by one. Returns the new dataset (freshly
// allocated), the steps in application order, and mapping[old] = new
// position (-1 for removed graphs). db itself is not modified.
func SwapRemove(db []*graph.Graph, positions []int) ([]*graph.Graph, []RemoveStep, []int32, error) {
	if len(positions) == 0 {
		return nil, nil, nil, errors.New("index: no positions to remove")
	}
	sorted := append([]int(nil), positions...)
	slices.Sort(sorted)
	for i, p := range sorted {
		if p < 0 || p >= len(db) {
			return nil, nil, nil, fmt.Errorf("index: remove position %d outside dataset of %d graphs", p, len(db))
		}
		if i > 0 && sorted[i-1] == p {
			return nil, nil, nil, fmt.Errorf("index: duplicate remove position %d", p)
		}
	}
	out := append([]*graph.Graph(nil), db...)
	mapping := make([]int32, len(db))
	origAt := make([]int32, len(db)) // origAt[pos] = original index of the graph now at pos
	for i := range origAt {
		origAt[i] = int32(i)
	}
	steps := make([]RemoveStep, 0, len(sorted))
	for i := len(sorted) - 1; i >= 0; i-- { // highest first
		p := sorted[i]
		last := len(out) - 1
		mapping[origAt[p]] = -1
		st := RemoveStep{Removed: int32(p), SwappedFrom: int32(last), RemovedGraph: out[p]}
		if p != last {
			st.SwappedGraph = out[last]
			out[p] = out[last]
			origAt[p] = origAt[last]
		}
		out = out[:last]
		steps = append(steps, st)
	}
	for pos := range out {
		mapping[origAt[pos]] = int32(pos)
	}
	return out, steps, mapping, nil
}

// ApplyMapping rewrites a sorted slice of dataset positions through a
// SwapRemove mapping: removed positions are dropped, surviving ones
// renumbered, and the result re-sorted. Shared by cache-side answer
// patching and reference implementations.
func ApplyMapping(ids []int32, mapping []int32) []int32 {
	out := ids[:0]
	for _, id := range ids {
		if m := mapping[id]; m >= 0 {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}

// DeltaLog tracks, per index lineage, the mutations not yet persisted and
// the base/journal byte split of the snapshot file they belong to. One
// DeltaLog is shared by every copy-on-write generation of a method, so the
// pending delta survives mutation swaps.
type DeltaLog struct {
	mu           sync.Mutex
	pending      trie.Journal
	baseBytes    int64
	journalBytes int64

	// Persisted-journal op mix since the last full save — the signal the
	// workload-adaptive compaction threshold weighs (removals replay
	// heavier than appends).
	journalAppends int
	journalRemoves int
}

// NewDeltaLog returns an empty log.
func NewDeltaLog() *DeltaLog { return &DeltaLog{} }

// Record stages one applied mutation for the next AppendDelta.
func (l *DeltaLog) Record(m *trie.Mutation) {
	l.mu.Lock()
	m.RecordTo(&l.pending)
	l.mu.Unlock()
}

// NoteFullSave resets the log after a full snapshot of n bytes: the
// pending delta is folded into the new base, and journal accounting
// restarts from zero.
func (l *DeltaLog) NoteFullSave(n int64) {
	l.mu.Lock()
	l.pending.Reset()
	l.baseBytes = n
	l.journalBytes = 0
	l.journalAppends = 0
	l.journalRemoves = 0
	l.mu.Unlock()
}

// Workload-adaptive compaction threshold. Journals are folded into a
// fresh base when their *replay-weighted* size outgrows
// compactionFraction of the base snapshot. The weight follows the
// observed op mix of the journal lineage (persisted sections plus the
// pending batch): an append replays as pure insertion, but a removal
// scrubs postings, retires drained features and re-homes the swapped
// graph's features — several times the work per journal byte — so
// removal-heavy journals hit the threshold earlier, bounding reload
// latency where the fixed byte-ratio threshold would let replay cost
// grow unchecked.
const (
	compactionFraction = 0.5
	// removalReplayWeight scales a pure-removal journal's effective size:
	// weight ramps linearly from 1 (all appends) to 1+removalReplayWeight
	// (all removals), so an all-removal journal compacts at 1/(1+w) of
	// the byte threshold — 1/8 of the base instead of 1/2 at w=3.
	removalReplayWeight = 3.0
)

// compactionDue reports whether the weighted journal debt crosses the
// threshold. Caller holds l.mu.
func (l *DeltaLog) compactionDue() bool {
	if l.baseBytes <= 0 {
		return false
	}
	appends, removes := l.pending.OpMix()
	appends += l.journalAppends
	removes += l.journalRemoves
	weight := 1.0
	if total := appends + removes; total > 0 {
		weight += removalReplayWeight * float64(removes) / float64(total)
	}
	return float64(l.journalBytes)*weight >= compactionFraction*float64(l.baseBytes)
}

// truncater is the optional file capability in-place compaction needs.
type truncater interface{ Truncate(int64) error }

// AppendIndexDelta is the shared AppendDelta implementation for
// trie-backed methods: it validates that f holds a journal-appendable
// snapshot written by methodTag, then appends the log's pending journal
// stamped with the post-mutation dataset fingerprint — or, past the
// compaction threshold, rewrites f as a fresh base via saveFull (which
// must not touch the log). No-op when nothing is pending.
func AppendIndexDelta(f io.ReadWriteSeeker, l *DeltaLog, methodTag string, stamp trie.JournalStamp, saveFull func(io.Writer) (int64, error)) error {
	_, err := maintainIndexDelta(f, l, methodTag, stamp, saveFull, false)
	return err
}

// MaintainIndexDelta is the timer/idleness maintenance hook: like
// AppendIndexDelta it persists any pending mutations, but it *also* runs
// the compaction check when nothing is pending. AppendIndexDelta alone has
// a debt gap — its compaction check runs before the append, so the very
// last append of a burst can push the journal past the threshold and the
// debt then sits until the next mutation. A quiet process never mutates
// again, so a server timer (or a graceful-shutdown save) calls this to fold
// the journals down during idleness. Returns whether f was modified.
func MaintainIndexDelta(f io.ReadWriteSeeker, l *DeltaLog, methodTag string, stamp trie.JournalStamp, saveFull func(io.Writer) (int64, error)) (bool, error) {
	return maintainIndexDelta(f, l, methodTag, stamp, saveFull, true)
}

func maintainIndexDelta(f io.ReadWriteSeeker, l *DeltaLog, methodTag string, stamp trie.JournalStamp, saveFull func(io.Writer) (int64, error), maintain bool) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending.Empty() && !(maintain && l.compactionDue()) {
		return false, nil
	}
	// Validate the header before touching the file on *either* branch: the
	// compaction rewrite below destroys f's previous contents, so handing
	// in the wrong file must fail here, not truncate it.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return false, fmt.Errorf("index: seeking snapshot start: %w", err)
	}
	br := bufio.NewReader(f)
	env, err := ReadIndexEnvelope(br)
	if err != nil {
		return false, err
	}
	if env.Method != methodTag {
		return false, fmt.Errorf("index: snapshot holds a %s index, not %s", env.Method, methodTag)
	}
	if err := trie.CheckJournalable(br); err != nil {
		return false, err
	}
	if l.compactionDue() {
		if ar, ok := f.(persistio.AtomicRewriter); ok {
			// Crash-safe compaction: the fresh base is written to the side
			// and swapped in whole, so a crash mid-rewrite leaves the old
			// journaled snapshot — still loadable — untouched.
			var n int64
			err := ar.AtomicRewrite(func(w io.Writer) error {
				var err error
				n, err = saveFull(w)
				return err
			})
			if err != nil {
				return false, fmt.Errorf("index: compacting snapshot: %w", err)
			}
			l.noteCompacted(n)
			return true, nil
		}
		if t, ok := f.(truncater); ok {
			// In-place fallback for plain seekable files: not crash-safe
			// (a crash mid-rewrite corrupts the base), but the only option
			// without atomic-rewrite capability.
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				return false, fmt.Errorf("index: seeking snapshot start: %w", err)
			}
			n, err := saveFull(f)
			if err != nil {
				return false, fmt.Errorf("index: compacting snapshot: %w", err)
			}
			if err := t.Truncate(n); err != nil {
				return false, fmt.Errorf("index: truncating compacted snapshot: %w", err)
			}
			if err := persistio.Sync(f); err != nil {
				return false, fmt.Errorf("index: syncing compacted snapshot: %w", err)
			}
			l.noteCompacted(n)
			return true, nil
		}
		// No rewrite capability: fall through to a plain append.
	}
	if l.pending.Empty() {
		// Maintenance call with compaction due but no rewrite capability
		// and nothing to append: leave the debt for a capable caller.
		return false, nil
	}
	n, err := trie.AppendJournalSection(f, &l.pending, stamp)
	if err != nil {
		return false, err
	}
	// The terminator byte is the commit point; fsync makes it durable
	// before we discard the pending delta.
	if err := persistio.Sync(f); err != nil {
		return false, fmt.Errorf("index: syncing appended delta: %w", err)
	}
	appends, removes := l.pending.OpMix()
	l.journalAppends += appends
	l.journalRemoves += removes
	l.journalBytes += n
	l.pending.Reset()
	return true, nil
}

// noteCompacted resets accounting after a successful compaction of n base
// bytes. Caller holds l.mu.
func (l *DeltaLog) noteCompacted(n int64) {
	l.pending.Reset()
	l.baseBytes = n
	l.journalBytes = 0
	l.journalAppends = 0
	l.journalRemoves = 0
}
