package index

import (
	"reflect"
	"testing"

	"repro/internal/features"
	"repro/internal/trie"
)

// buildCountTrie assembles a small trie with known postings:
//
//	"p:1" → graphs 0,1,2 (counts 2,2,3)
//	"p:2" → graphs 1,2   (count 1)
//	"p:3" → graph  2     (count 3)
//	"p:4" → interned but NO postings (empty filtered list)
func buildCountTrie() *trie.Trie {
	tr := trie.New()
	for g := int32(0); g < 3; g++ {
		tr.Insert("p:1", trie.Posting{Graph: g, Count: 2 + g/2})
	}
	tr.Insert("p:2", trie.Posting{Graph: 1, Count: 1})
	tr.Insert("p:2", trie.Posting{Graph: 2, Count: 1})
	tr.Insert("p:3", trie.Posting{Graph: 2, Count: 3})
	tr.Dict().Intern("p:4")
	tr.Dict().Intern("p:5") // vocabulary for disjoint-list queries
	tr.Insert("p:5", trie.Posting{Graph: 0, Count: 1})
	return tr
}

func idSet(tr *trie.Trie, want map[string]int32) features.IDSet {
	var qf features.IDSet
	for k, c := range want {
		id, ok := tr.Dict().Lookup(k)
		if !ok {
			qf.Unknown++
			continue
		}
		qf.Counts = append(qf.Counts, features.IDCount{ID: id, Count: c})
	}
	return qf
}

// Exercises FilterCountGE's early-return paths back-to-back on ONE scratch:
// passes that bail out while the views are being collected (an empty
// postings list; a threshold ≥ 2 on an all-count-1 list), a pass that bails
// in the intersection phase (disjoint lists), passes whose thresholds empty
// the survivors (at the first thresholded list, and at a later one), each
// followed by a full pass — which must be unaffected by the state the
// aborted pass left behind.
func TestFilterCountGEScratchReuseAfterEarlyReturns(t *testing.T) {
	tr := buildCountTrie()
	s := GetCountFilterScratch()

	full := func(name string, want map[string]int32, expect []int32) {
		t.Helper()
		got := FilterCountGE(tr, idSet(tr, want), s)
		if !reflect.DeepEqual(append([]int32(nil), got...), expect) &&
			!(len(got) == 0 && len(expect) == 0) {
			t.Errorf("%s: got %v, want %v", name, got, expect)
		}
	}

	// 1. Baseline pass to warm (and dirty) every buffer.
	full("warmup", map[string]int32{"p:1": 1, "p:2": 1}, []int32{1, 2})

	// 2. Early return: "p:4" has an empty postings list → nil, possibly
	// after "p:1"'s view was already collected.
	full("empty postings", map[string]int32{"p:1": 2, "p:4": 1}, nil)

	// 3. Straight back into a full pass on the same scratch.
	full("after empty postings", map[string]int32{"p:1": 2, "p:3": 3}, []int32{2})

	// 4. Early return in the intersection phase: "p:3"→{2} and
	// "p:5"→{0} are disjoint.
	full("empty intersection", map[string]int32{"p:3": 1, "p:5": 1}, nil)

	// 5. Threshold ≥ 2 on an all-count-1 list: nothing can qualify, no
	// intersection runs.
	full("threshold on uniform list", map[string]int32{"p:1": 2, "p:2": 9}, nil)
	full("after uniform threshold", map[string]int32{"p:1": 3, "p:2": 1}, []int32{2})

	// 5b. Thresholds empty the survivors after the intersection: alone,
	// and with another thresholded list still waiting behind.
	full("threshold empties survivors", map[string]int32{"p:1": 9}, nil)
	full("after emptied survivors", map[string]int32{"p:1": 3}, []int32{2})
	full("one of two thresholds empties", map[string]int32{"p:1": 2, "p:3": 4}, nil)
	full("after two thresholds", map[string]int32{"p:1": 2, "p:3": 2}, []int32{2})

	// 6. And the same scratch still computes a correct multi-feature
	// answer afterwards.
	full("final", map[string]int32{"p:1": 1, "p:2": 1, "p:3": 1}, []int32{2})

	// 7. Unknown features short-circuit to nil without touching state.
	if got := FilterCountGE(tr, features.IDSet{Unknown: 1}, s); got != nil {
		t.Errorf("unknown feature returned %v, want nil", got)
	}
	full("after unknown", map[string]int32{"p:1": 1}, []int32{0, 1, 2})

	PutCountFilterScratch(s)
}
