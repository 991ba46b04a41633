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

// stageChunks stages data over the builder in rounds of chunks of
// consecutive graphs (chunk sizes cycling through sizes), one goroutine per
// chunk, filling after each round.
func stageChunks(tr *Trie, b *Builder, data [][]struct {
	key string
	p   Posting
}, sizes []int, roundChunks, workers int, nf []int32) {
	for g, k := 0, 0; g < len(data); {
		var spans [][2]int
		for len(spans) < roundChunks && g < len(data) {
			n := min(sizes[k%len(sizes)], len(data)-g)
			spans = append(spans, [2]int{g, g + n})
			g, k = g+n, k+1
		}
		chunks := b.Chunks(len(spans))
		var wg sync.WaitGroup
		for i, sp := range spans {
			wg.Add(1)
			go func(c *Chunk, sp [2]int) {
				defer wg.Done()
				for _, kps := range data[sp[0]:sp[1]] {
					for _, kp := range kps {
						c.InsertID(tr.dict.Intern(kp.key), kp.p)
					}
				}
			}(chunks[i], sp)
		}
		wg.Wait()
		b.Fill(workers, nf, nil)
	}
}

// TestBuilderMatchesSequential is the store-level differential test of the
// chunked build path: for any chunking, round size and fill width, staging
// the same postings from concurrent goroutines and filling must reproduce
// the sequential Insert build bit for bit (same postings, Walk order and
// key count), and count each graph's features. The vocabulary spans
// several pages, so several fill stripes run.
func TestBuilderMatchesSequential(t *testing.T) {
	data := randomPostings(7, 48, 600)
	seq := New()
	for _, g := range data {
		for _, kp := range g {
			seq.Insert(kp.key, kp.p)
		}
	}
	want := dumpTrie(seq)
	for _, tc := range []struct {
		sizes          []int
		round, workers int
	}{
		{[]int{48}, 1, 1}, {[]int{1}, 3, 2}, {[]int{5, 1, 9}, 4, 3}, {[]int{2, 7}, 8, 8},
	} {
		tr := New()
		nf := make([]int32, len(data))
		stageChunks(tr, tr.NewBuilder(), data, tc.sizes, tc.round, tc.workers, nf)
		if got := dumpTrie(tr); got != want {
			t.Errorf("%+v diverges from sequential build:\n%s\nvs\n%s", tc, got, want)
		}
		for g, kps := range data {
			if nf[g] != int32(len(kps)) {
				t.Errorf("%+v: graph %d counted %d features, has %d", tc, g, nf[g], len(kps))
			}
		}
	}
}

// TestBuilderEightGoroutines exercises the full chunked build with 8
// concurrent goroutines interning through one shared dictionary and an
// 8-wide fill — the case the CI race job is meant to catch regressions in.
func TestBuilderEightGoroutines(t *testing.T) {
	data := randomPostings(99, 64, 800)
	tr := New()
	stageChunks(tr, tr.NewBuilder(), data, []int{3}, 8, 8, nil)

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

// TestBuilderMergesDuplicates: staging the same (key, graph) twice — in
// one chunk or in two — accumulates counts exactly like sequential Insert,
// and counts the graph once.
func TestBuilderMergesDuplicates(t *testing.T) {
	tr := New()
	b := tr.NewBuilder()
	id := tr.dict.Intern("k")
	cs := b.Chunks(2)
	cs[0].InsertID(id, Posting{Graph: 5, Count: 1})
	cs[0].InsertID(id, Posting{Graph: 7, Count: 1})
	cs[1].InsertID(id, Posting{Graph: 7, Count: 2})
	cs[1].InsertID(id, Posting{Graph: 7, Count: 1})
	nf := make([]int32, 8)
	b.Fill(2, nf, nil)
	ps := tr.Get("k")
	if len(ps) != 2 || ps[0].Graph != 5 || ps[1].Graph != 7 {
		t.Fatalf("postings = %+v", ps)
	}
	if ps[1].Count != 4 {
		t.Errorf("merged posting = %+v", ps[1])
	}
	if nf[5] != 1 || nf[7] != 1 {
		t.Errorf("nf = %v", nf)
	}
}

// TestBuilderMergeIntoExisting: a Fill over a trie that already holds
// postings behaves like further sequential Inserts, postings out of graph
// order included.
func TestBuilderMergeIntoExisting(t *testing.T) {
	tr := New()
	tr.Insert("a", Posting{Graph: 1, Count: 2})
	tr.Insert("b", Posting{Graph: 3, Count: 1})
	b := tr.NewBuilder()
	c := b.Chunks(1)[0]
	c.InsertID(tr.dict.Intern("a"), Posting{Graph: 1, Count: 1}) // merges into existing
	c.InsertID(tr.dict.Intern("a"), Posting{Graph: 0, Count: 4}) // prepends
	c.InsertID(tr.dict.Intern("c"), Posting{Graph: 2, Count: 1}) // new key
	b.Fill(1, nil, nil)

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
