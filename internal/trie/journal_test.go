package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/features"
)

// TestJournalReplayDifferential drives a mutation sequence, persisting each
// batch as an O(delta) journal section appended to one snapshot file, and
// pins the reloaded trie to the live mutated one after every append.
func TestJournalReplayDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + shards)))
			table := map[int32][]GraphFeature{}
			cur := newSegmented(features.NewDict(), shards)
			next := int32(0)

			mut := cur.NewMutation()
			for i := 0; i < 10; i++ {
				fs := synthFeats(rng, 14)
				table[next] = fs
				mut.AppendGraph(next, fs)
				next++
			}
			cur = mut.Apply()

			path := filepath.Join(t.TempDir(), "base.trie")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cur.WriteTo(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			for step := 0; step < 12; step++ {
				mut := cur.NewMutation()
				if rng.Intn(3) > 0 || len(table) < 2 {
					fs := synthFeats(rng, 14)
					table[next] = fs
					mut.AppendGraph(next, fs)
					next++
				} else {
					p := int32(rng.Intn(int(next)))
					last := next - 1
					mut.RemoveGraph(p, last, keysOf(table[p]), table[last])
					if p != last {
						table[p] = table[last]
					}
					delete(table, last)
					next--
				}
				var j Journal
				mut.RecordTo(&j)
				cur = mut.Apply()

				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckJournalable(f); err != nil {
					t.Fatal(err)
				}
				stamp := JournalStamp{DBChecksum: uint64(step + 1), NumGraphs: int(next)}
				if _, err := AppendJournalSection(f, &j, stamp); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}

				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				back := newSegmented(features.NewDict(), shards)
				if _, err := back.ReadFrom(bytes.NewReader(data)); err != nil {
					t.Fatalf("step %d: reloading journaled snapshot: %v", step, err)
				}
				if got, want := dumpState(back), dumpState(cur); got != want {
					t.Fatalf("step %d: journal replay diverges from live mutation\ngot:\n%s\nwant:\n%s", step, got, want)
				}
				if got, want := back.LiveDictSizeBytes(), cur.LiveDictSizeBytes(); got != want {
					t.Fatalf("step %d: reloaded live dict bytes %d != live %d", step, got, want)
				}
				st := back.JournalStamp()
				if st == nil || *st != stamp {
					t.Fatalf("step %d: JournalStamp = %v, want %v", step, st, stamp)
				}
			}

			// The snapshot survives a re-save (journals folded into a fresh
			// compact base with no sections).
			var buf bytes.Buffer
			if _, err := cur.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			flat := newSegmented(features.NewDict(), shards)
			if _, err := flat.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			if got, want := dumpState(flat), dumpState(cur); got != want {
				t.Fatal("compacted re-save diverges from live state")
			}
			if flat.JournalStamp() != nil {
				t.Error("fresh full snapshot unexpectedly carries a journal stamp")
			}
		})
	}
}

// TestJournalCorruption: a torn or bit-flipped journal section must fail
// a strict load with an error — and under the default recovery mode load
// the committed prefix with a TailRecovery report, never a panic and
// never a half-applied delta.
func TestJournalCorruption(t *testing.T) {
	tr := newSegmented(features.NewDict(), 2)
	mut := tr.NewMutation()
	mut.AppendGraph(0, []GraphFeature{{Key: "ab", Count: 1}, {Key: "cd", Count: 2}})
	tr = mut.Apply()

	var base bytes.Buffer
	if _, err := tr.WriteTo(&base); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.trie")
	if err := os.WriteFile(path, base.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mut2 := tr.NewMutation()
	mut2.AppendGraph(1, []GraphFeature{{Key: "ab", Count: 3}})
	var j Journal
	mut2.RecordTo(&j)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendJournalSection(f, &j, JournalStamp{DBChecksum: 9, NumGraphs: 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	preAppend, postAppend := dumpState(tr), dumpState(mut2.Apply())

	// check: data is a corruption of the journaled snapshot. Strict load
	// must fail; the default load must salvage wantState (pre- or
	// post-append, depending on whether the journal section itself
	// survived) and report the torn tail.
	check := func(name string, data []byte, wantState string, wantDropped int) {
		t.Run(name, func(t *testing.T) {
			strict := newSegmented(features.NewDict(), 2)
			if _, rec, err := strict.ReadFromOptions(bytes.NewReader(data), LoadOptions{Strict: true}); err == nil || rec != nil {
				t.Errorf("strict load of corrupt snapshot: err=%v rec=%+v", err, rec)
			}
			back := newSegmented(features.NewDict(), 2)
			n, rec, err := back.ReadFromOptions(bytes.NewReader(data), LoadOptions{})
			if err != nil {
				t.Fatalf("tail recovery failed: %v", err)
			}
			if rec == nil {
				t.Fatalf("torn tail loaded without a recovery report (rec=%+v)", rec)
			}
			if n != int64(len(data)) {
				t.Errorf("consumed %d bytes of %d", n, len(data))
			}
			if got := dumpState(back); got != wantState {
				t.Errorf("recovered state diverges:\n got %s\nwant %s", got, wantState)
			}
			if rec.DroppedOps != wantDropped {
				t.Errorf("DroppedOps = %d, want %d", rec.DroppedOps, wantDropped)
			}
			if rec.CommittedBytes+rec.DiscardedBytes != int64(len(data)) {
				t.Errorf("committed %d + discarded %d ≠ %d bytes",
					rec.CommittedBytes, rec.DiscardedBytes, len(data))
			}

			// Committed-prefix oracle: the prefix plus a terminator is a
			// well-formed snapshot holding exactly the recovered state.
			prefix := append(append([]byte(nil), data[:rec.CommittedBytes]...), sectionEnd)
			clean := newSegmented(features.NewDict(), 2)
			if _, rec2, err := clean.ReadFromOptions(bytes.NewReader(prefix), LoadOptions{Strict: true}); err != nil || rec2 != nil {
				t.Fatalf("committed prefix does not load strictly: err=%v rec=%+v", err, rec2)
			}
			if got, want := dumpState(clean), dumpState(back); got != want {
				t.Errorf("committed prefix state diverges from recovered state")
			}
		})
	}
	// A complete, CRC-valid journal section counts as committed even when
	// the crash ate the trailing terminator — the delta is fully present.
	check("truncated-terminator", good[:len(good)-1], postAppend, 0)
	check("truncated-journal", good[:len(good)-4], preAppend, 1)
	flip := append([]byte(nil), good...)
	flip[len(flip)-3] ^= 0x40 // inside the journal body → CRC mismatch
	check("bitflip", flip, preAppend, 1)
	// Corruption in the *base* (a segment byte) still fails hard even in
	// recovery mode: only the journal tail is salvageable.
	seg := append([]byte(nil), good...)
	seg[len(base.Bytes())/2] ^= 0x10
	broken := newSegmented(features.NewDict(), 2)
	if _, rec, err := broken.ReadFromOptions(bytes.NewReader(seg), LoadOptions{}); err == nil {
		t.Errorf("base corruption recovered (rec=%+v); want hard failure", rec)
	}
}
