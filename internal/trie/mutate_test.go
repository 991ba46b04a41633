package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/features"
)

// dumpState renders the observable state of a trie: key count and
// every (key, postings) pair in Walk order — the differential identity the
// mutation and journal paths are pinned to.
func dumpState(t *Trie) string {
	out := fmt.Sprintf("len=%d\n", t.Len())
	t.Walk(func(k string, ps []Posting) {
		out += fmt.Sprintf("%q ->", k)
		for _, p := range ps {
			out += fmt.Sprintf(" {g=%d c=%d}", p.Graph, p.Count)
		}
		out += "\n"
	})
	return out
}

// featSet is a tiny synthetic feature family for mutation tests.
func synthFeats(rng *rand.Rand, nKeys int) []GraphFeature {
	n := 1 + rng.Intn(4)
	fs := make([]GraphFeature, 0, n)
	seen := map[string]bool{}
	for len(fs) < n {
		k := fmt.Sprintf("f%02d", rng.Intn(nKeys))
		if seen[k] {
			continue
		}
		seen[k] = true
		fs = append(fs, GraphFeature{Key: k, Count: int32(1 + rng.Intn(3))})
	}
	return fs
}

// applyRef mirrors a graph->features table into a fresh sequentially built
// trie — the from-scratch reference the mutated trie must match.
func buildRef(d *features.Dict, shards int, table map[int32][]GraphFeature) *Trie {
	tr := newSegmented(d, shards)
	ids := make([]int32, 0, len(table))
	for id := range table {
		ids = append(ids, id)
	}
	sortIDsForTest(ids)
	for _, id := range ids {
		for _, f := range table[id] {
			tr.Insert(f.Key, Posting{Graph: id, Count: f.Count})
		}
	}
	return tr
}

func sortIDsForTest(ids []int32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// TestMutationDifferential drives random append/remove batches through the
// COW mutation path and pins the result, at every step, to a from-scratch
// build over the surviving table — including Walk order, Len,
// SizeBytes, live dictionary accounting and the persisted byte stream.
func TestMutationDifferential(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + shards)))
			table := map[int32][]GraphFeature{}
			cur := newSegmented(features.NewDict(), shards)
			next := int32(0)

			// Seed with an initial batch.
			mut := cur.NewMutation()
			for i := 0; i < 8; i++ {
				fs := synthFeats(rng, 12)
				table[next] = fs
				mut.AppendGraph(next, fs)
				next++
			}
			cur = mut.Apply()

			for step := 0; step < 30; step++ {
				mut := cur.NewMutation()
				if rng.Intn(3) > 0 || len(table) < 2 {
					for i := 0; i < 1+rng.Intn(3); i++ {
						fs := synthFeats(rng, 12)
						table[next] = fs
						mut.AppendGraph(next, fs)
						next++
					}
				} else {
					// swap-remove a random position
					p := int32(rng.Intn(int(next)))
					for table[p] == nil {
						p = int32(rng.Intn(int(next)))
					}
					last := next - 1
					mut.RemoveGraph(p, last, keysOf(table[p]), table[last])
					if p != last {
						table[p] = table[last]
					} else {
						delete(table, p)
					}
					delete(table, last)
					next--
					// re-key table: positions are dense [0, next)
					if p != last {
						// nothing further: table[p] now holds old last
					}
				}
				prev := cur
				prevDump := dumpState(prev)
				cur = mut.Apply()
				if got := dumpState(prev); got != prevDump {
					t.Fatalf("step %d: base trie mutated by Apply", step)
				}

				ref := buildRef(features.NewDict(), shards, table)
				if got, want := dumpState(cur), dumpState(ref); got != want {
					t.Fatalf("step %d: mutated trie diverges from fresh build\ngot:\n%s\nwant:\n%s", step, got, want)
				}
				if got, want := cur.SizeBytes(), ref.SizeBytes(); got != want {
					t.Fatalf("step %d: SizeBytes %d != fresh %d", step, got, want)
				}
				if got, want := cur.LiveDictSizeBytes(), ref.dict.SizeBytes(); got != want {
					t.Fatalf("step %d: LiveDictSizeBytes %d != fresh dict %d", step, got, want)
				}

				// Persisted form must be byte-identical to the fresh build's
				// (compacted dictionary hides the mutation history) whenever
				// the live dictionary order still matches the fresh interning
				// order; at minimum it must round-trip to the same state.
				var buf bytes.Buffer
				if _, err := cur.WriteTo(&buf); err != nil {
					t.Fatalf("step %d: WriteTo: %v", step, err)
				}
				back := newSegmented(features.NewDict(), shards)
				if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("step %d: ReadFrom: %v", step, err)
				}
				if got, want := dumpState(back), dumpState(cur); got != want {
					t.Fatalf("step %d: persisted round-trip diverges", step)
				}
				if got, want := back.LiveDictSizeBytes(), ref.dict.SizeBytes(); got != want {
					t.Fatalf("step %d: reloaded dict bytes %d != fresh %d", step, got, want)
				}
			}
		})
	}
}

func keysOf(fs []GraphFeature) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Key
	}
	return out
}

// TestRemoveGraphPersistDifferential is the regression for the PR 1
// RemoveGraph fix having no persist-path coverage: after in-place removals,
// Walk, SizeBytes and the persisted byte stream must all agree
// with a trie that never held the removed graph.
func TestRemoveGraphPersistDifferential(t *testing.T) {
	mk := func(withG1 bool) *Trie {
		tr := newSegmented(features.NewDict(), 4)
		tr.Insert("ab", Posting{Graph: 0, Count: 1})
		tr.Insert("abc", Posting{Graph: 0, Count: 2})
		if withG1 {
			tr.Insert("abd", Posting{Graph: 1, Count: 1}) // only graph 1: drains on removal
			tr.Insert("ab", Posting{Graph: 1, Count: 3})
			tr.Insert("zz", Posting{Graph: 1, Count: 1})
		}
		tr.Insert("b", Posting{Graph: 2, Count: 1})
		return tr
	}
	tr := mk(true)
	tr.RemoveGraph(1)
	ref := mk(false)

	if got, want := dumpState(tr), dumpState(ref); got != want {
		t.Fatalf("after RemoveGraph, trie diverges from never-inserted reference\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got, want := tr.SizeBytes(), ref.SizeBytes(); got != want {
		t.Errorf("SizeBytes after removal = %d, want %d", got, want)
	}
	if tr.Contains("abd") || tr.Contains("zz") {
		t.Error("drained keys still reported as contained")
	}
	if got, want := tr.LiveDictSizeBytes(), ref.dict.SizeBytes(); got != want {
		t.Errorf("LiveDictSizeBytes after removal = %d, want %d (dead keys must not count)", got, want)
	}

	// Persist path: the snapshot must decode to the same observable state,
	// with the dictionary compacted to the live vocabulary.
	var buf, refBuf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteTo(&refBuf); err != nil {
		t.Fatal(err)
	}
	back := newSegmented(features.NewDict(), 4)
	if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpState(back), dumpState(ref); got != want {
		t.Fatalf("persisted removal state diverges from reference")
	}
	if back.Dict().Len() != ref.Dict().Len() {
		t.Errorf("reloaded dictionary holds %d keys, want %d (snapshot must compact dead vocabulary)",
			back.Dict().Len(), ref.Dict().Len())
	}

	// Resurrection: re-inserting a drained key must bring it fully back.
	tr.Insert("abd", Posting{Graph: 0, Count: 5})
	if !tr.Contains("abd") {
		t.Error("resurrected key not contained")
	}
	if tr.DeadLen() != 1 { // "zz" stays dead
		t.Errorf("DeadLen = %d after resurrection, want 1", tr.DeadLen())
	}
}

// odeltaTrie is a 2-shard trie whose first 200 keys ("s000"…"s199", the
// lowest IDs) each hold four graphs, plus filler vocabulary: one key per
// filler feature on graph 100, and dead features drained from graph 101.
func odeltaTrie(filler, dead int) *Trie {
	tr := newSegmented(features.NewDict(), 2)
	for k := 0; k < 200; k++ {
		for g := 0; g < 4; g++ {
			tr.Insert(fmt.Sprintf("s%03d", k), Posting{Graph: int32(g*25 + k%25), Count: 1})
		}
	}
	for i := 0; i < filler; i++ {
		tr.Insert(fmt.Sprintf("x%06d", i), Posting{Graph: 100, Count: 1})
	}
	for i := 0; i < dead; i++ {
		tr.Insert(fmt.Sprintf("d%06d", i), Posting{Graph: 101, Count: 1})
	}
	tr.RemoveGraph(101)
	return tr
}

// odeltaBatch appends four graphs holding 50 of the shared keys each.
func odeltaBatch(tr *Trie) *Mutation {
	m := tr.NewMutation()
	for g := 0; g < 4; g++ {
		var fs []GraphFeature
		for k := g * 50; k < g*50+50; k++ {
			fs = append(fs, GraphFeature{Key: fmt.Sprintf("s%03d", k), Count: 1})
		}
		m.AppendGraph(int32(200+g), fs)
	}
	return m
}

// applyBytes is the mean heap bytes one Apply of the batch allocates.
func applyBytes(tr *Trie) uint64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		odeltaBatch(tr).Apply()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestApplyAllocatesODelta pins the copy-on-write cost to the batch: one
// 4-graph Apply allocates about the same on a trie with 8× the vocabulary,
// and on one carrying 10 000 dead features, as on the small trie — no
// per-shard postings copy and no dead-set copy scale with the store.
func TestApplyAllocatesODelta(t *testing.T) {
	small := applyBytes(odeltaTrie(500, 0))
	for _, c := range []struct {
		name string
		tr   *Trie
	}{
		{"8x vocabulary", odeltaTrie(4000, 0)},
		{"10k dead", odeltaTrie(500, 10000)},
	} {
		if got := applyBytes(c.tr); float64(got) > 1.5*float64(small) {
			t.Errorf("%s: Apply allocates %d B, the small trie %d B (limit 1.5×)", c.name, got, small)
		}
	}
}

// TestApplyLeavesBaseIntact checks the copy-on-write contract page by page:
// after Apply the base answers every probe and Walk exactly as before, the
// pages holding no touched feature are the base's own, and every page
// holding one is a private copy.
func TestApplyLeavesBaseIntact(t *testing.T) {
	base := odeltaTrie(1200, 300)
	probes := make([][]Posting, base.Dict().Len())
	for i := range probes {
		probes[i] = base.GetByID(features.FeatureID(i)).Postings()
	}
	walk := dumpState(base)

	m := odeltaBatch(base)
	m.RemoveGraph(0, 0, []string{"s000", "s025", "s050"}, nil)
	m.AppendGraph(300, []GraphFeature{{Key: "d000007", Count: 2}, {Key: "brand-new", Count: 1}})
	next := m.Apply()

	for i, want := range probes {
		if got := base.GetByID(features.FeatureID(i)).Postings(); !reflect.DeepEqual(got, want) {
			t.Fatalf("base GetByID(%d) = %v after Apply, was %v", i, got, want)
		}
	}
	if got := dumpState(base); got != walk {
		t.Fatal("base Walk changed by Apply")
	}
	touched := map[features.FeatureID]bool{}
	for _, op := range m.ops {
		for _, f := range op.feats {
			id, _ := base.Dict().Lookup(f.Key)
			touched[id] = true
		}
		for _, k := range op.scrub {
			id, _ := base.Dict().Lookup(k)
			touched[id] = true
		}
	}
	shared, copied := 0, 0
	for p, pg := range base.pages {
		hit := false
		for j := 0; j < pageLen; j++ {
			hit = hit || touched[features.FeatureID(p<<pageShift|j)]
		}
		switch same := next.pages[p] == pg; {
		case hit && same:
			t.Errorf("page %d holds a touched feature but is shared with the base", p)
		case !hit && !same:
			t.Errorf("page %d holds no touched feature but was copied", p)
		case same:
			shared++
		default:
			copied++
		}
	}
	if shared == 0 || copied == 0 {
		t.Errorf("%d shared and %d copied pages: the batch should do both", shared, copied)
	}
}

// FuzzMutationApply decodes a byte string into batches of appends and
// swap-removals and applies each copy-on-write. After every batch the
// result must equal a from-scratch build of the same dataset — Walk,
// SizeBytes, live dictionary size and snapshot round trip — and the base
// must be unchanged, which catches any write into a page it shares.
//
// Encoding: a byte ≥ 0xF0 closes the batch; otherwise b%3 == 0 removes the
// position b/3 mod |dataset| and any other byte appends a graph whose
// features are drawn from b and the byte after it.
func FuzzMutationApply(f *testing.F) {
	f.Add([]byte{1, 2, 4, 5, 0xF0, 3, 7, 0xF0, 0, 6, 8})
	f.Add([]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0xF1, 9, 12, 15, 0xF2, 0x13, 0x17})
	f.Add([]byte{2, 2, 2, 2, 0xFF, 0, 0, 0, 0, 0xFF, 2, 0x80, 0x81})
	f.Add([]byte{0x7e, 0x7d, 0x7c, 0x0b, 0xF3, 0x30, 0x2d, 0x2a, 0x27, 0xF4, 0x41})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		const shards = 4
		table := map[int32][]GraphFeature{}
		cur := newSegmented(features.NewDict(), shards)
		next := int32(0)
		for len(data) > 0 {
			mut := cur.NewMutation()
			for len(data) > 0 {
				b := data[0]
				data = data[1:]
				if b >= 0xF0 {
					break
				}
				if b%3 == 0 && next > 0 {
					p, last := int32(b/3)%next, next-1
					mut.RemoveGraph(p, last, keysOf(table[p]), table[last])
					table[p] = table[last]
					delete(table, last)
					next--
					continue
				}
				var b2 byte
				if len(data) > 0 {
					b2 = data[0]
				}
				fs := fuzzFeats(b, b2)
				table[next] = fs
				mut.AppendGraph(next, fs)
				next++
			}
			prev, prevDump := cur, dumpState(cur)
			cur = mut.Apply()
			if dumpState(prev) != prevDump {
				t.Fatal("Apply wrote into the base trie")
			}
			ref := buildRef(features.NewDict(), shards, table)
			if got, want := dumpState(cur), dumpState(ref); got != want {
				t.Fatalf("mutated trie diverges from a fresh build\ngot:\n%s\nwant:\n%s", got, want)
			}
			if cur.SizeBytes() != ref.SizeBytes() || cur.LiveDictSizeBytes() != ref.Dict().SizeBytes() {
				t.Fatalf("SizeBytes/LiveDictSizeBytes %d/%d, fresh build %d/%d",
					cur.SizeBytes(), cur.LiveDictSizeBytes(), ref.SizeBytes(), ref.Dict().SizeBytes())
			}
			var buf bytes.Buffer
			if _, err := cur.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			back := newSegmented(features.NewDict(), shards)
			if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			if dumpState(back) != dumpState(cur) {
				t.Fatal("snapshot round trip diverges")
			}
		}
	})
}

// fuzzFeats derives one graph's features from two bytes: up to four keys
// out of 24 and counts 1–3.
func fuzzFeats(b, b2 byte) []GraphFeature {
	var fs []GraphFeature
	seen := map[string]bool{}
	for i := 0; i < 1+int(b2%4); i++ {
		k := fmt.Sprintf("f%02d", (int(b)*7+int(b2)*(i+1)+i*5)%24)
		if seen[k] {
			continue
		}
		seen[k] = true
		fs = append(fs, GraphFeature{Key: k, Count: int32(1 + (int(b)+i)%3)})
	}
	return fs
}
