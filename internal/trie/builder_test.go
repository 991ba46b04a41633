package trie

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// dumpTrie renders a trie's full observable state: Walk order, postings
// and key count.
func dumpTrie(t *Trie) string {
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

// randomPostings produces a deterministic stream of (key, posting) pairs in
// "graph order": each graph's features appear once, as a sequential build
// would emit them.
func randomPostings(seed int64, nGraphs, nKeys int) [][]struct {
	key string
	p   Posting
} {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("p:%d.%d.%d", rng.Intn(7), rng.Intn(7), i%17)
	}
	out := make([][]struct {
		key string
		p   Posting
	}, nGraphs)
	for g := range out {
		seen := map[string]bool{}
		for n := 1 + rng.Intn(8); n > 0; n-- {
			k := keys[rng.Intn(len(keys))]
			if seen[k] {
				continue
			}
			seen[k] = true
			out[g] = append(out[g], struct {
				key string
				p   Posting
			}{k, Posting{Graph: int32(g), Count: int32(1 + rng.Intn(4))}})
		}
	}
	return out
}

// TestBuilderMatchesSequential is the store-level differential test of the
// parallel build path: for any worker count, staging the same postings from
// concurrent goroutines and merging must reproduce the sequential Insert
// build bit for bit (same postings, Walk order and key count). The
// vocabulary spans several pages, so several merge stripes run.
func TestBuilderMatchesSequential(t *testing.T) {
	data := randomPostings(7, 48, 600)
	seq := New()
	for _, g := range data {
		for _, kp := range g {
			seq.Insert(kp.key, kp.p)
		}
	}
	want := dumpTrie(seq)
	for _, workers := range []int{1, 3, 8} {
		tr := New()
		b := tr.NewBuilder(workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				bw := b.Worker(w)
				// graphs dealt round-robin across workers
				for g := w; g < len(data); g += workers {
					for _, kp := range data[g] {
						bw.Insert(kp.key, kp.p)
					}
				}
			}(w)
		}
		wg.Wait()
		b.Merge()
		if got := dumpTrie(tr); got != want {
			t.Errorf("workers=%d diverges from sequential build:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestBuilderEightGoroutines exercises the full staged-parallel build with 8
// concurrent goroutines interning through one shared dictionary — the case
// the CI race job is meant to catch regressions in.
func TestBuilderEightGoroutines(t *testing.T) {
	const workers = 8
	data := randomPostings(99, 64, 800)
	tr := New()
	b := tr.NewBuilder(workers)
	var next int32
	var mu sync.Mutex
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		next++
		return int(next) - 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bw := b.Worker(w)
			for {
				g := claim()
				if g >= len(data) {
					return
				}
				for _, kp := range data[g] {
					bw.Insert(kp.key, kp.p)
				}
			}
		}(w)
	}
	wg.Wait()
	b.Merge()

	seq := New()
	for _, g := range data {
		for _, kp := range g {
			seq.Insert(kp.key, kp.p)
		}
	}
	if got, want := dumpTrie(tr), dumpTrie(seq); got != want {
		t.Errorf("8-goroutine build diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestBuilderMergesDuplicates: staging the same (key, graph) twice — even
// from different workers — accumulates counts exactly like sequential
// Insert.
func TestBuilderMergesDuplicates(t *testing.T) {
	tr := New()
	b := tr.NewBuilder(2)
	b.Worker(0).Insert("k", Posting{Graph: 7, Count: 1})
	b.Worker(1).Insert("k", Posting{Graph: 7, Count: 2})
	b.Worker(1).Insert("k", Posting{Graph: 5, Count: 1})
	b.Merge()
	ps := tr.Get("k")
	if len(ps) != 2 || ps[0].Graph != 5 || ps[1].Graph != 7 {
		t.Fatalf("postings = %+v", ps)
	}
	if ps[1].Count != 3 {
		t.Errorf("merged posting = %+v", ps[1])
	}
}

// TestBuilderMergeIntoExisting: a Merge over a trie that already holds
// postings behaves like further sequential Inserts.
func TestBuilderMergeIntoExisting(t *testing.T) {
	tr := New()
	tr.Insert("a", Posting{Graph: 1, Count: 2})
	tr.Insert("b", Posting{Graph: 3, Count: 1})
	b := tr.NewBuilder(1)
	b.Worker(0).Insert("a", Posting{Graph: 1, Count: 1}) // merges into existing
	b.Worker(0).Insert("a", Posting{Graph: 0, Count: 4}) // prepends
	b.Worker(0).Insert("c", Posting{Graph: 2, Count: 1}) // new key
	b.Merge()

	want := New()
	want.Insert("a", Posting{Graph: 1, Count: 2})
	want.Insert("b", Posting{Graph: 3, Count: 1})
	want.Insert("a", Posting{Graph: 1, Count: 1})
	want.Insert("a", Posting{Graph: 0, Count: 4})
	want.Insert("c", Posting{Graph: 2, Count: 1})
	if got, w := dumpTrie(tr), dumpTrie(want); got != w {
		t.Errorf("merge-into-existing diverges:\n%s\nvs\n%s", got, w)
	}
}
