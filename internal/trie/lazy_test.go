package trie

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/features"
)

// snapshotBytes serialises tr, optionally appending one journal section.
func snapshotBytes(t *testing.T, tr *Trie, j *Journal, stamp JournalStamp) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if j == nil {
		return buf.Bytes()
	}
	rw := &memFile{b: append([]byte(nil), buf.Bytes()...)}
	if _, err := AppendJournalSection(rw, j, stamp); err != nil {
		t.Fatal(err)
	}
	return rw.b
}

// journalFor stages a representative mutation batch against keys known to
// exist in tr: one append introducing new features alongside existing
// ones, and one swap-removal that drains at least something.
func journalFor(t *testing.T, tr *Trie, nGraphs int32) *Journal {
	t.Helper()
	keys := tr.Dict().Keys()
	if len(keys) < 4 {
		t.Fatal("journalFor needs a trie with ≥ 4 keys")
	}
	newFeats := []GraphFeature{
		{Key: keys[0], Count: 2},
		{Key: "lazy:new.a", Count: 1},
		{Key: keys[3], Count: 3},
		{Key: "lazy:new.b", Count: 4},
	}
	mut := tr.NewMutation()
	mut.AppendGraph(nGraphs, newFeats)
	// Swap-removal: graph 0 vacates, the just-appended graph re-homes into
	// position 0. Scrubbing keys[1]/keys[2] exercises drain + dead-set
	// bookkeeping on whichever features only graph 0 populated.
	mut.RemoveGraph(0, nGraphs, []string{keys[1], keys[2], keys[0]}, newFeats)
	var j Journal
	mut.RecordTo(&j)
	return &j
}

func plEqual(a, b PostingList) bool {
	return a.Len() == b.Len() && reflect.DeepEqual(a.Postings(), b.Postings())
}

// eagerLoad is the oracle: a streaming load of the same bytes.
func eagerLoad(t *testing.T, data []byte) (*Trie, int64, *TailRecovery) {
	t.Helper()
	tr := newSegmented(features.NewDict(), 0)
	n, rec, err := tr.ReadFromOptions(bytes.NewReader(data), LoadOptions{})
	if err != nil {
		t.Fatalf("eager oracle load: %v", err)
	}
	return tr, n, rec
}

// listBytes is the residency accounting of one decoded list.
func listBytes(pl PostingList) int64 { return 48 + int64(pl.SizeBytes()) }

// largestList returns the residency footprint of tr's biggest posting list
// — what a budget smaller than it must still let through, alone.
func largestList(tr *Trie) int64 {
	var most int64
	for i := 0; i < tr.Dict().Len(); i++ {
		most = max(most, listBytes(tr.GetByID(features.FeatureID(i))))
	}
	return most
}

// fullResidentBytes is the footprint of every list of tr decoded at once.
func fullResidentBytes(tr *Trie) int64 {
	var sum int64
	for i := 0; i < tr.Dict().Len(); i++ {
		if pl := tr.GetByID(features.FeatureID(i)); pl.Len() > 0 {
			sum += listBytes(pl)
		}
	}
	return sum
}

// openLazy opens data lazily under budget, failing the test on error.
func openLazy(t *testing.T, src RandomAccessFile, budget int64) *Trie {
	t.Helper()
	tr := newSegmented(features.NewDict(), 0)
	if _, _, err := tr.OpenLazy(src, LazyOptions{BudgetBytes: budget}); err != nil {
		t.Fatalf("OpenLazy: %v", err)
	}
	return tr
}

// slotOf returns the residency slot of id (nil-safe for tests only on IDs
// inside the dictionary the snapshot was opened with).
func slotOf(tr *Trie, id features.FeatureID) *atomic.Pointer[lazyList] {
	return &tr.lazyLive.Load().slots[id]
}

// segOf returns the segment of tr's snapshot holding id.
func segOf(tr *Trie, id features.FeatureID) int { return int(uint32(id) & uint32(tr.Segments()-1)) }

// mustSave serialises tr.
func mustSave(t *testing.T, tr *Trie) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenLazyBudgetSweep is the differential at the unit of residency:
// for budgets from unbounded down to one byte, random probe orders, with
// and without a journal overlay, every dictionary ID — present, absent,
// drained by the journal, or interned after the open — answers exactly as
// an eager load does, the resident bytes never exceed max(budget, largest
// list) after any probe, and materialise + re-save is byte-identical.
func TestOpenLazyBudgetSweep(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		base := randomTrie(t, 8, 180, 50, 97)
		var j *Journal
		if journaled {
			j = journalFor(t, base, 50)
		}
		data := snapshotBytes(t, base, j, JournalStamp{DBChecksum: 3, NumGraphs: 51})
		want, _, _ := eagerLoad(t, data)
		n := want.Dict().Len()
		// A query-time feature: interned after the load, no postings, and
		// (on the lazy side) an ID beyond the slot arrays.
		const lateKey = "lazy:interned-after-open"
		want.Dict().Intern(lateKey)
		wantSave := mustSave(t, want)
		full, largest := fullResidentBytes(want), largestList(want)
		for bi, b := range []struct {
			name  string
			bytes int64
		}{{"0", 0}, {"90%", full * 9 / 10}, {"50%", full / 2}, {"largest-1", largest - 1}, {"1", 1}} {
			budget := b.bytes
			t.Run(fmt.Sprintf("journaled=%v/budget=%s", journaled, b.name), func(t *testing.T) {
				got := openLazy(t, bytes.NewReader(data), budget)
				late := got.Dict().Intern(lateKey)
				rng := rand.New(rand.NewSource(int64(100*bi) + 7))
				for pass := 0; pass < 3; pass++ {
					for _, i := range rng.Perm(n + 1) {
						id := features.FeatureID(i)
						if i == n {
							id = late
						}
						if !plEqual(got.GetByID(id), want.GetByID(id)) {
							t.Fatalf("pass %d: GetByID(%d) diverges from eager load", pass, id)
						}
						if res := got.Residency(); budget > 0 && res.ResidentBytes > max(budget, largest) {
							t.Fatalf("pass %d, after GetByID(%d): resident %d bytes, budget %d, largest list %d",
								pass, id, res.ResidentBytes, budget, largest)
						}
					}
				}
				res := got.Residency()
				if budget == 0 && (res.Evictions != 0 || res.ResidentBytes != full) {
					t.Errorf("unbounded: %d evictions, %d resident bytes, want 0 and %d", res.Evictions, res.ResidentBytes, full)
				}
				if budget > 0 && budget < full && res.Evictions == 0 {
					t.Errorf("budget %d under the full %d bytes never evicted: %+v", budget, full, res)
				}
				if err := got.Materialize(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustSave(t, got), wantSave) {
					t.Error("materialise + re-save differs from the eager re-save")
				}
			})
		}
	}
}

// TestOpenLazyDifferential is the core lazy-vs-eager equivalence matrix:
// shards × journaled × budget (0 = unbounded, tiny = eviction pressure) ×
// workers. Every probe, every aggregate and the re-Save bytes must agree
// with a streaming load of the same snapshot.
func TestOpenLazyDifferential(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, journaled := range []bool{false, true} {
			for _, budget := range []int64{0, 4 << 10} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("shards=%d/journaled=%v/budget=%d/workers=%d", shards, journaled, budget, workers)
					t.Run(name, func(t *testing.T) {
						base := randomTrie(t, shards, 150, 40, 7)
						var j *Journal
						if journaled {
							j = journalFor(t, base, 40)
						}
						data := snapshotBytes(t, base, j, JournalStamp{DBChecksum: 11, NumGraphs: 41})
						want, wantN, _ := eagerLoad(t, data)

						got := newSegmented(features.NewDict(), 0)
						n, rec, err := got.OpenLazy(bytes.NewReader(data), LazyOptions{Workers: workers, BudgetBytes: budget})
						if err != nil {
							t.Fatalf("OpenLazy: %v", err)
						}
						if rec != nil {
							t.Fatalf("unexpected tail recovery: %+v", rec)
						}
						if n != wantN {
							t.Errorf("OpenLazy consumed %d bytes, eager consumed %d", n, wantN)
						}
						if got.Segments() != want.Segments() {
							t.Fatalf("segment count %d, want %d", got.Segments(), want.Segments())
						}
						if got.Dict().Len() != want.Dict().Len() {
							t.Fatalf("dict len %d, want %d (journal pre-intern diverged)", got.Dict().Len(), want.Dict().Len())
						}
						if st := got.JournalStamp(); journaled && (st == nil || st.DBChecksum != 11) {
							t.Errorf("journal stamp %+v, want DBChecksum 11", st)
						}

						// Probe every interned feature in random order — the
						// fault-in order must not matter.
						ids := rand.New(rand.NewSource(3)).Perm(want.Dict().Len())
						for _, i := range ids {
							id := features.FeatureID(i)
							if !plEqual(got.GetByID(id), want.GetByID(id)) {
								t.Fatalf("GetByID(%d) diverges from eager load", id)
							}
						}
						res := got.Residency()
						if !res.Lazy || res.Materialized {
							t.Fatalf("residency %+v: want lazy, unmaterialised", res)
						}
						if res.TotalShards != shards {
							t.Errorf("TotalShards = %d, want %d", res.TotalShards, shards)
						}
						if budget == 0 && res.Evictions != 0 {
							t.Errorf("unbounded budget evicted %d lists", res.Evictions)
						}
						if budget > 0 && res.ResidentBytes > max(budget, largestList(want)) {
							t.Errorf("resident %d bytes over budget %d (largest list %d)",
								res.ResidentBytes, budget, largestList(want))
						}
						if res.ResidentShards != shards {
							t.Errorf("probing every ID opened %d of %d directories", res.ResidentShards, shards)
						}
						if res.Faults == 0 {
							t.Error("every feature probed without one posting decode")
						}

						// Materialise: aggregates and Walk agree with eager.
						if err := got.Materialize(); err != nil {
							t.Fatalf("Materialize: %v", err)
						}
						if got.Residency().ResidentShards != shards {
							t.Errorf("materialised residency %+v: want all %d shards resident", got.Residency(), shards)
						}
						if got.Len() != want.Len() || got.SizeBytes() != want.SizeBytes() || got.DeadLen() != want.DeadLen() {
							t.Errorf("Len/SizeBytes/DeadLen = %d/%d/%d, want %d/%d/%d",
								got.Len(), got.SizeBytes(), got.DeadLen(),
								want.Len(), want.SizeBytes(), want.DeadLen())
						}
						if !reflect.DeepEqual(dump(got), dump(want)) {
							t.Error("materialised trie contents differ from eager load")
						}

						// Re-save: byte-identical snapshots.
						var gotSave, wantSave bytes.Buffer
						if _, err := got.WriteTo(&gotSave); err != nil {
							t.Fatal(err)
						}
						if _, err := want.WriteTo(&wantSave); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gotSave.Bytes(), wantSave.Bytes()) {
							t.Error("re-Save bytes differ between lazy and eager loads")
						}
					})
				}
			}
		}
	}
}

// TestOpenLazyEvictionRefault drives a budget of a quarter of the decoded
// postings: every pass over the dictionary must evict and re-decode lists,
// answers must stay correct, the counters must show it, and a list handed
// to a reader must stay valid after the hand has evicted it.
func TestOpenLazyEvictionRefault(t *testing.T) {
	base := randomTrie(t, 8, 200, 60, 13)
	data := snapshotBytes(t, base, nil, JournalStamp{})
	want, _, _ := eagerLoad(t, data)
	budget := fullResidentBytes(want) / 4
	got := openLazy(t, bytes.NewReader(data), budget)

	// Take one list and keep it across its own eviction.
	var heldID features.FeatureID
	for want.GetByID(heldID).Len() == 0 {
		heldID++
	}
	held := got.GetByID(heldID)
	if slotOf(got, heldID).Load() == nil {
		t.Fatal("a probed list was not published in its slot")
	}

	rng := rand.New(rand.NewSource(17))
	lists := int64(0)
	for pass := 0; pass < 4; pass++ {
		for _, i := range rng.Perm(want.Dict().Len()) {
			id := features.FeatureID(i)
			if id == heldID {
				continue // let the hand take it
			}
			if !plEqual(got.GetByID(id), want.GetByID(id)) {
				t.Fatalf("pass %d: GetByID(%d) diverges under eviction pressure", pass, id)
			}
			if pass == 0 && want.GetByID(id).Len() > 0 {
				lists++
			}
		}
	}
	if slotOf(got, heldID).Load() != nil {
		t.Fatal("the held list survived four passes under a quarter budget: eviction never reached it")
	}
	if !plEqual(held, want.GetByID(heldID)) {
		t.Fatal("a list handed to a reader changed after its eviction")
	}
	res := got.Residency()
	if res.Evictions == 0 {
		t.Fatalf("no evictions under budget %d: %+v", budget, res)
	}
	if res.Faults <= lists {
		t.Fatalf("no re-decodes recorded (%d distinct lists): %+v", lists, res)
	}
	if res.ResidentBytes > max(budget, largestList(want)) {
		t.Fatalf("resident bytes %d over budget %d: %+v", res.ResidentBytes, budget, res)
	}
	if res.ResidentShards != res.TotalShards {
		t.Fatalf("directories are never evicted, yet %d of %d are open", res.ResidentShards, res.TotalShards)
	}
	// The store must still materialise and re-save identically.
	if err := got.Materialize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dump(got), dump(want)) {
		t.Error("post-eviction materialised contents differ from eager load")
	}
}

// TestOpenLazyOverlayReplayCache: a journaled shard replays its overlay
// once, when its directory opens — evict/re-decode cycles of its lists
// (Faults keeps climbing) reuse the cached patch, so OverlayReplays stays
// at one per journaled shard; features the overlay touched are served from
// the patch without a decode; and answers, drained bookkeeping and re-Save
// bytes still match an eager load exactly.
func TestOpenLazyOverlayReplayCache(t *testing.T) {
	base := randomTrie(t, 4, 120, 40, 83)
	j := journalFor(t, base, 40)
	data := snapshotBytes(t, base, j, JournalStamp{DBChecksum: 19, NumGraphs: 41})
	want, _, _ := eagerLoad(t, data)

	probe := openLazy(t, bytes.NewReader(data), 0)
	journaled := 0
	for _, ops := range probe.lazyLive.Load().overlays {
		if len(ops) > 0 {
			journaled++
		}
	}
	if journaled == 0 {
		t.Fatal("journalFor produced no per-shard overlays; the test is vacuous")
	}
	// keys[0] is appended to by the journal: its first probe opens the
	// directory, replays, and answers from the patch — no segment decode.
	touched, _ := probe.Dict().Lookup(base.Dict().Keys()[0])
	if !plEqual(probe.GetByID(touched), want.GetByID(touched)) {
		t.Fatal("patched feature diverges from eager load")
	}
	if res := probe.Residency(); res.OverlayReplays != 1 || res.Faults != 0 || res.ResidentShards != 1 {
		t.Fatalf("one patched probe: %+v, want 1 replay, 0 faults, 1 open directory", res)
	}

	budget := fullResidentBytes(want) / 2
	got := openLazy(t, bytes.NewReader(data), budget)
	var lastFaults int64
	for pass := 0; pass < 5; pass++ {
		for i := 0; i < want.Dict().Len(); i++ {
			id := features.FeatureID(i)
			if !plEqual(got.GetByID(id), want.GetByID(id)) {
				t.Fatalf("pass %d: GetByID(%d) diverges", pass, id)
			}
		}
		res := got.Residency()
		if res.OverlayReplays != int64(journaled) {
			t.Fatalf("pass %d: OverlayReplays = %d, want %d (one per journaled shard, re-decodes must reuse the patch)",
				pass, res.OverlayReplays, journaled)
		}
		if res.Faults <= lastFaults {
			t.Fatalf("pass %d: Faults stuck at %d under a half budget (no re-decodes)", pass, res.Faults)
		}
		lastFaults = res.Faults
	}
	if res := got.Residency(); res.Evictions == 0 {
		t.Fatalf("no evictions under budget %d: %+v", budget, res)
	}

	if err := got.Materialize(); err != nil {
		t.Fatal(err)
	}
	if got.DeadLen() != want.DeadLen() {
		t.Errorf("DeadLen = %d, want %d (cached drained set lost)", got.DeadLen(), want.DeadLen())
	}
	if !reflect.DeepEqual(dump(got), dump(want)) {
		t.Error("materialised contents differ from eager load after patched re-decodes")
	}
	if !bytes.Equal(mustSave(t, got), mustSave(t, want)) {
		t.Error("re-Save bytes differ after patched re-decodes")
	}
}

// TestOpenLazyConcurrent hammers one lazily-opened trie from many
// goroutines under eviction pressure (run with -race): concurrent
// fault-in, concurrent eviction and a racing Materialize must all yield
// eager-identical answers.
func TestOpenLazyConcurrent(t *testing.T) {
	base := randomTrie(t, 8, 150, 50, 23)
	data := snapshotBytes(t, base, nil, JournalStamp{})
	want, _, _ := eagerLoad(t, data)
	expect := make([][]Posting, want.Dict().Len())
	for i := range expect {
		expect[i] = want.GetByID(features.FeatureID(i)).Postings()
	}

	got := newSegmented(features.NewDict(), 0)
	if _, _, err := got.OpenLazy(bytes.NewReader(data), LazyOptions{BudgetBytes: 8 << 10}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				id := rng.Intn(len(expect))
				if got := got.GetByID(features.FeatureID(id)).Postings(); !reflect.DeepEqual(got, expect[id]) {
					errCh <- fmt.Errorf("worker %d: GetByID(%d) diverged", w, id)
					return
				}
			}
		}(w)
	}
	// One goroutine materialises mid-stream: readers must never observe a
	// half-switched store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := got.Materialize(); err != nil {
			errCh <- err
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dump(got), dump(want)) {
		t.Error("contents differ after concurrent probes + materialise")
	}
}

// TestOpenLazyConcurrentEviction (run with -race) keeps the CLOCK hand
// busy under the readers: six goroutines probe one small overlapping set
// of IDs under a budget of a few lists, so every list is being published,
// referenced, stripped of its bit and evicted while others read it. No
// Materialize — eviction runs to the end.
func TestOpenLazyConcurrentEviction(t *testing.T) {
	base := randomTrie(t, 4, 150, 50, 29)
	data := snapshotBytes(t, base, nil, JournalStamp{})
	want, _, _ := eagerLoad(t, data)
	var hot []features.FeatureID
	for i := 0; i < want.Dict().Len() && len(hot) < 24; i++ {
		if want.GetByID(features.FeatureID(i)).Len() > 0 {
			hot = append(hot, features.FeatureID(i))
		}
	}
	expect := make(map[features.FeatureID][]Posting, len(hot))
	for _, id := range hot {
		expect[id] = want.GetByID(id).Postings()
	}

	got := openLazy(t, bytes.NewReader(data), 3*largestList(want))
	var wg sync.WaitGroup
	errCh := make(chan error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				id := hot[rng.Intn(len(hot))]
				if got := got.GetByID(id).Postings(); !reflect.DeepEqual(got, expect[id]) {
					errCh <- fmt.Errorf("worker %d: GetByID(%d) diverged", w, id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	res := got.Residency()
	if res.Evictions == 0 {
		t.Fatalf("the hand never evicted: %+v", res)
	}
	if res.ResidentBytes > 3*largestList(want) {
		t.Fatalf("resident %d bytes over the budget %d at rest", res.ResidentBytes, 3*largestList(want))
	}
}

// corruptShardBody locates shard s's segment body via a pristine lazy
// open and returns a copy of data with one body byte flipped.
func corruptShardBody(t *testing.T, data []byte, s int) []byte {
	t.Helper()
	probe := newSegmented(features.NewDict(), 0)
	if _, _, err := probe.OpenLazy(bytes.NewReader(data), LazyOptions{}); err != nil {
		t.Fatal(err)
	}
	seg := &probe.lazyLive.Load().segs[s]
	if seg.len == 0 {
		t.Fatalf("shard %d has an empty segment body", s)
	}
	bad := append([]byte(nil), data...)
	bad[seg.off+int64(seg.len)/2] ^= 0x40
	return bad
}

// TestOpenLazyCorruptSegmentIsolation: a corrupt segment body must open
// fine (the eager phase never reads bodies), fail with ErrCorrupt at
// fault-in, poison no other shard, and fail Materialize — while the
// healthy shards keep answering correctly before and after that failure.
func TestOpenLazyCorruptSegmentIsolation(t *testing.T) {
	base := randomTrie(t, 8, 150, 40, 31)
	data := snapshotBytes(t, base, nil, JournalStamp{})
	want, _, _ := eagerLoad(t, data)
	const badShard = 3
	bad := corruptShardBody(t, data, badShard)

	got := newSegmented(features.NewDict(), 0)
	if _, _, err := got.OpenLazy(bytes.NewReader(bad), LazyOptions{}); err != nil {
		t.Fatalf("OpenLazy rejected a corrupt body it should defer: %v", err)
	}
	if err := got.FaultInShard(badShard); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("FaultInShard(%d) = %v, want ErrCorrupt", badShard, err)
	}
	for s := 0; s < got.Segments(); s++ {
		if s == badShard {
			continue
		}
		if err := got.FaultInShard(s); err != nil {
			t.Fatalf("healthy shard %d poisoned: %v", s, err)
		}
	}
	for i := 0; i < want.Dict().Len(); i++ {
		id := features.FeatureID(i)
		if segOf(got, id) == badShard {
			continue
		}
		if !plEqual(got.GetByID(id), want.GetByID(id)) {
			t.Fatalf("healthy shard answer diverged for id %d", id)
		}
	}
	// GetByID on the corrupt shard cannot return an error: it must panic
	// with *ShardFaultError wrapping ErrCorrupt (the engine's containment
	// boundary), never crash with something opaque.
	var badID features.FeatureID = 0
	for i := 0; i < want.Dict().Len(); i++ {
		if segOf(got, features.FeatureID(i)) == badShard {
			badID = features.FeatureID(i)
			break
		}
	}
	func() {
		defer func() {
			r := recover()
			sfe, ok := r.(*ShardFaultError)
			if !ok || sfe.Shard != badShard || !errors.Is(sfe, ErrCorrupt) {
				t.Fatalf("GetByID on corrupt shard: recover() = %v, want *ShardFaultError(ErrCorrupt)", r)
			}
		}()
		got.GetByID(badID)
	}()
	if err := got.Materialize(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Materialize = %v, want ErrCorrupt", err)
	}
	// A failed materialise leaves the trie lazy and serviceable.
	if res := got.Residency(); !res.Lazy || res.Materialized {
		t.Fatalf("residency after failed materialise: %+v", res)
	}
	for i := 0; i < want.Dict().Len(); i++ {
		id := features.FeatureID(i)
		if segOf(got, id) == badShard {
			continue
		}
		if !plEqual(got.GetByID(id), want.GetByID(id)) {
			t.Fatalf("healthy shard answer diverged after failed materialise (id %d)", id)
		}
	}
}

// flakyReader is a RandomAccessFile over a live byte slice (in-place edits
// model on-disk rot under an open mapping) that counts the bytes read and
// fails every read while err is set.
type flakyReader struct {
	b     []byte
	bytes int64
	err   error
}

func (f *flakyReader) ReadAt(p []byte, off int64) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	f.bytes += int64(len(p))
	return bytes.NewReader(f.b).ReadAt(p, off)
}

func (f *flakyReader) Size() int64 { return int64(len(f.b)) }

// probeFault runs GetByID and returns the *ShardFaultError it panicked
// with, or nil when it answered.
func probeFault(t *testing.T, tr *Trie, id features.FeatureID) (pl PostingList, sfe *ShardFaultError) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if sfe, ok = r.(*ShardFaultError); !ok {
				t.Fatalf("GetByID(%d) panicked with %v, want *ShardFaultError", id, r)
			}
		}
	}()
	return tr.GetByID(id), nil
}

// TestOpenLazyEvictThenRefaultCRC pins where the checksum is paid: once,
// when a shard's directory opens. An evicted list's re-decode reads only
// its own span — rot elsewhere in the segment no longer reaches it, rot
// inside its span surfaces as ErrCorrupt from the structural checks, and a
// failed read surfaces as the I/O error; either failure leaves the slot
// cold and poisons nothing, so the same probe succeeds once the bytes (or
// the device) are back.
func TestOpenLazyEvictThenRefaultCRC(t *testing.T) {
	base := randomTrie(t, 4, 120, 40, 41)
	src := &flakyReader{b: snapshotBytes(t, base, nil, JournalStamp{})}
	want, _, _ := eagerLoad(t, src.b)
	got := openLazy(t, src, 1) // one byte: every probe evicts the previous list

	// Two features of shard 0, a and b, both present.
	var ids []features.FeatureID
	for i := 0; i < want.Dict().Len() && len(ids) < 2; i++ {
		if id := features.FeatureID(i); segOf(got, id) == 0 && want.GetByID(id).Len() > 0 {
			ids = append(ids, id)
		}
	}
	a, b := ids[0], ids[1]
	if !plEqual(got.GetByID(a), want.GetByID(a)) || !plEqual(got.GetByID(b), want.GetByID(b)) {
		t.Fatal("clean probes diverge")
	}
	if slotOf(got, a).Load() != nil {
		t.Fatal("a one-byte budget kept two lists resident")
	}
	ls := got.lazyLive.Load()
	seg := &ls.segs[0]
	off := seg.dir.Load().off
	spanOf := func(id features.FeatureID) (lo, hi int64) {
		i := ls.segIndex(id)
		return seg.off + int64(off[i]), seg.off + int64(off[i+1])
	}

	// Re-decoding a reads a's span and nothing else.
	lo, hi := spanOf(a)
	before := src.bytes
	if !plEqual(got.GetByID(a), want.GetByID(a)) {
		t.Fatal("re-decode diverges")
	}
	if read := src.bytes - before; read != hi-lo {
		t.Fatalf("re-decode read %d bytes, the list's span is %d (segment %d)", read, hi-lo, seg.len)
	}

	// Rot in b's span: a keeps answering (no whole-segment CRC on a
	// re-decode), b fails structurally, and recovers with the byte.
	blo, _ := spanOf(b)
	flags := &src.b[blo+1] // entries here are a one-byte idΔ, then the flags byte
	saved := *flags
	*flags = 0xF0 // reserved flag bits
	if !plEqual(got.GetByID(a), want.GetByID(a)) {
		t.Fatal("rot in a neighbouring span reached this list's re-decode")
	}
	if _, sfe := probeFault(t, got, b); sfe == nil || sfe.Shard != 0 || !errors.Is(sfe, ErrCorrupt) {
		t.Fatalf("probe of a rotten span = %v, want *ShardFaultError(ErrCorrupt) on shard 0", sfe)
	}
	if slotOf(got, b).Load() != nil {
		t.Fatal("a failed decode published something")
	}
	*flags = saved
	if pl, sfe := probeFault(t, got, b); sfe != nil || !plEqual(pl, want.GetByID(b)) {
		t.Fatalf("probe after the rot was repaired: %v", sfe)
	}

	// A failing device: the I/O error, not ErrCorrupt; cold slot; recovers.
	src.err = errors.New("injected EIO")
	if _, sfe := probeFault(t, got, a); sfe == nil || !errors.Is(sfe, src.err) || errors.Is(sfe, ErrCorrupt) {
		t.Fatalf("probe over a failing device = %v, want the injected error", sfe)
	}
	if slotOf(got, a).Load() != nil {
		t.Fatal("a failed read published something")
	}
	src.err = nil
	if pl, sfe := probeFault(t, got, a); sfe != nil || !plEqual(pl, want.GetByID(a)) {
		t.Fatalf("probe after the device recovered: %v", sfe)
	}
}

// TestOpenLazyTailRecovery: torn journal tails recover with the identical
// report and byte count the streaming loader produces, and strict mode
// rejects them identically.
func TestOpenLazyTailRecovery(t *testing.T) {
	base := randomTrie(t, 4, 80, 30, 53)
	j := journalFor(t, base, 30)
	data := snapshotBytes(t, base, j, JournalStamp{DBChecksum: 5, NumGraphs: 31})
	baseLen := len(snapshotBytes(t, base, nil, JournalStamp{}))
	for _, cut := range []int{1, (len(data)-baseLen)/2 + baseLen, len(data) - 1} {
		torn := data[:cut]
		if cut == 1 {
			torn = data[:baseLen+1] // tag byte only
		}
		eager := newSegmented(features.NewDict(), 0)
		en, erec, err := eager.ReadFromOptions(bytes.NewReader(torn), LoadOptions{})
		if err != nil || erec == nil {
			t.Fatalf("cut %d: eager load err=%v rec=%+v", cut, err, erec)
		}
		lazy := newSegmented(features.NewDict(), 0)
		ln, lrec, err := lazy.OpenLazy(bytes.NewReader(torn), LazyOptions{})
		if err != nil || lrec == nil {
			t.Fatalf("cut %d: OpenLazy err=%v rec=%+v", cut, err, lrec)
		}
		if *lrec != *erec || ln != en {
			t.Fatalf("cut %d: recovery diverges: lazy (n=%d, %+v) vs eager (n=%d, %+v)", cut, ln, *lrec, en, *erec)
		}
		if _, _, err := newSegmented(features.NewDict(), 0).OpenLazy(bytes.NewReader(torn), LazyOptions{Strict: true}); err == nil {
			t.Fatalf("cut %d: strict OpenLazy accepted a torn tail", cut)
		}
		if err := lazy.Materialize(); err != nil {
			t.Fatalf("cut %d: materialise recovered state: %v", cut, err)
		}
		if !reflect.DeepEqual(dump(lazy), dump(eager)) {
			t.Fatalf("cut %d: recovered contents diverge", cut)
		}
	}
}

// TestOpenLazyFallbacks: version-1 snapshots and loads into a non-empty
// dictionary cannot be served lazily and must transparently fall back to
// the streaming loader with identical results.
func TestOpenLazyFallbacks(t *testing.T) {
	t.Run("v1 snapshot", func(t *testing.T) {
		data := encodeLegacySnapshot(1, 2, legacyDataset())
		want, _, _ := eagerLoad(t, data)
		got := newSegmented(features.NewDict(), 0)
		n, _, err := got.OpenLazy(bytes.NewReader(data), LazyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Residency().Lazy {
			t.Error("v1 snapshot claims to be lazily loaded")
		}
		if n != int64(len(data)) && n <= 0 {
			t.Errorf("suspicious byte count %d", n)
		}
		if !reflect.DeepEqual(dump(got), dump(want)) {
			t.Error("v1 fallback contents diverge")
		}
	})
	t.Run("non-identity remap", func(t *testing.T) {
		base := randomTrie(t, 4, 60, 20, 61)
		data := snapshotBytes(t, base, nil, JournalStamp{})
		want, _, _ := eagerLoad(t, data)
		dict := features.NewDict()
		dict.Intern("pre-existing-key") // forces a non-identity remap
		got := newSegmented(dict, 0)
		if _, _, err := got.OpenLazy(bytes.NewReader(data), LazyOptions{}); err != nil {
			t.Fatal(err)
		}
		if got.Residency().Lazy {
			t.Error("non-identity load claims to be lazily loaded")
		}
		if !reflect.DeepEqual(dump(got), dump(want)) {
			t.Error("non-identity fallback contents diverge")
		}
	})
}

// TestOpenLazyMutationMaterializes: staging a mutation against a lazily
// opened trie must force it fully resident first, and the result must
// equal the same mutation applied to an eager load.
func TestOpenLazyMutationMaterializes(t *testing.T) {
	base := randomTrie(t, 4, 80, 30, 71)
	data := snapshotBytes(t, base, nil, JournalStamp{})
	want, _, _ := eagerLoad(t, data)
	got := newSegmented(features.NewDict(), 0)
	if _, _, err := got.OpenLazy(bytes.NewReader(data), LazyOptions{BudgetBytes: 4 << 10}); err != nil {
		t.Fatal(err)
	}

	stage := func(tr *Trie) *Trie {
		mut := tr.NewMutation()
		mut.AppendGraph(30, []GraphFeature{{Key: "mut:new", Count: 2}, {Key: tr.Dict().Keys()[0], Count: 1}})
		return mut.Apply()
	}
	gotMut, wantMut := stage(got), stage(want)
	if !got.Residency().Materialized {
		t.Error("Mutation.Apply did not materialise its lazy base")
	}
	if !reflect.DeepEqual(dump(gotMut), dump(wantMut)) {
		t.Error("mutation over lazy base diverges from mutation over eager base")
	}
	var a, b bytes.Buffer
	if _, err := gotMut.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := wantMut.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("post-mutation snapshots differ")
	}
}

// panickyReader is a RandomAccessFile whose reads panic once armed — a
// stand-in for a latent bug inside a Materialize worker body.
type panickyReader struct {
	*bytes.Reader
	armed atomic.Bool
}

func (p *panickyReader) ReadAt(b []byte, off int64) (int, error) {
	if p.armed.Load() {
		panic("poisoned segment read")
	}
	return p.Reader.ReadAt(b, off)
}

// TestMaterializePanicContained: Materialize fans its segment decodes out
// through ParallelFor; at width 2 a panic in one of them must come back to
// the caller as a *WorkerPanic carrying the worker's stack — whatever
// recover guards the caller contains it — and leave the trie lazy, intact
// and materialisable once the poison is gone.
func TestMaterializePanicContained(t *testing.T) {
	base := randomTrie(t, 8, 120, 40, 59)
	data := snapshotBytes(t, base, nil, JournalStamp{})
	want, _, _ := eagerLoad(t, data)
	src := &panickyReader{Reader: bytes.NewReader(data)}
	got := newSegmented(features.NewDict(), 0)
	if _, _, err := got.OpenLazy(src, LazyOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	src.armed.Store(true)
	recovered := func() (r any) {
		defer func() { r = recover() }()
		return got.Materialize()
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok || wp.Value != "poisoned segment read" {
		t.Fatalf("Materialize recovered %T (%v), want *WorkerPanic of the poisoned read", recovered, recovered)
	}
	if !bytes.Contains(wp.Stack, []byte("readSegment")) {
		t.Errorf("WorkerPanic stack does not show the panic site:\n%s", wp.Stack)
	}
	if res := got.Residency(); !res.Lazy || res.Materialized {
		t.Fatalf("residency after a panicked materialise: %+v", res)
	}
	src.armed.Store(false)
	if err := got.Materialize(); err != nil {
		t.Fatalf("Materialize after the poison was removed: %v", err)
	}
	if !reflect.DeepEqual(dump(got), dump(want)) {
		t.Error("contents differ from eager load after a contained materialise panic")
	}
}
