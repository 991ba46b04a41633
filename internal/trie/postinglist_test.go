package trie

import (
	"fmt"
	"slices"
	"testing"
)

// TestRetainCountGE pins the forward rank cursor against a from-zero Rank
// per id, on every container kind: wanted counts 1–4, ids below the list's
// Min, on the first and last bit of bitmap words, between members and
// beyond the list's Max.
func TestRetainCountGE(t *testing.T) {
	members := map[ContainerKind][]int32{
		KindArray:  {64, 127, 128, 191, 300, 1000},
		KindBitmap: nil, // 64..255 with holes, filled below
		KindRuns:   nil, // 64..130, 190..260, 990..1010, filled below
	}
	for g := int32(64); g < 256; g++ {
		if g%5 != 3 {
			members[KindBitmap] = append(members[KindBitmap], g)
		}
	}
	for _, r := range [][2]int32{{64, 130}, {190, 260}, {990, 1010}} {
		for g := r[0]; g <= r[1]; g++ {
			members[KindRuns] = append(members[KindRuns], g)
		}
	}
	probes := [][]int32{
		nil,
		{0, 5, 63},                  // all below Min
		{63, 64, 65, 127, 128, 129}, // word boundaries from the first member on
		{191, 192, 255, 256, 257},   // the last bits of the bitmap and just past it
		{64, 300, 1000, 1010, 1011}, // far-apart members, then beyond every Max
		{2000, 3000},                // all beyond Max
		{0, 64, 100, 128, 130, 131, 189, 190, 255, 260, 261, 989, 990, 1000, 1010, 4000},
	}
	all := make([]int32, 1100)
	for i := range all {
		all[i] = int32(i)
	}
	probes = append(probes, all)

	for kind, ids := range members {
		for _, uniform := range []bool{false, true} {
			ps := make([]Posting, len(ids))
			for i, g := range ids {
				ps[i] = Posting{Graph: g, Count: 1}
				if !uniform {
					ps[i].Count = 1 + (g+int32(i))%4
				}
			}
			pl := sealPostings(AdaptiveContainers, ps)
			if pl.ids.Kind() != kind {
				t.Fatalf("premise: %v members sealed as %v", kind, pl.ids.Kind())
			}
			for _, probe := range probes {
				for want := int32(1); want <= 4; want++ {
					var expect []int32
					for _, g := range probe {
						if r, ok := pl.ids.Rank(g); ok && pl.CountAt(r) >= want {
							expect = append(expect, g)
						}
					}
					in := slices.Clone(probe)
					got := pl.RetainCountGE(in, want)
					name := fmt.Sprintf("%v uniform=%v want=%d probe=%v", kind, uniform, want, probe)
					if !slices.Equal(got, expect) {
						t.Fatalf("%s: got %v, want %v", name, got, expect)
					}
					if len(got) > 0 && &got[0] != &in[0] {
						t.Fatalf("%s: result does not reuse the input's storage", name)
					}
				}
			}
		}
	}
	if got := (PostingList{}).RetainCountGE([]int32{1, 2}, 1); len(got) != 0 {
		t.Fatalf("empty list retained %v", got)
	}
}
