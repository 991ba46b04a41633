package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/features"
)

// TestDenseSnapshotShrinksTwofold is the compression gate from the
// container redesign: on a dense synthetic dataset the v3 snapshot written
// with adaptive containers must be at least 2× smaller than the same data
// written as flat arrays (the pre-container baseline, still reachable via
// ArrayOnlyContainers). Dense scatter persists as bitmap words (~1 bit per
// graph vs ≥1 varint byte per graph) and clustered blocks as run deltas
// (~2 bytes per run vs ~1 byte per member), so the 2× floor holds with a
// wide margin by construction — the test pins it against regressions in
// the writer's container selection.
func TestDenseSnapshotShrinksTwofold(t *testing.T) {
	const nFeats, nGraphs = 24, 4096
	build := func(policy ContainerPolicy) *Trie {
		tr := newSegmented(features.NewDict(), 4)
		tr.SetContainerPolicy(policy)
		r := rand.New(rand.NewSource(9))
		for f := 0; f < nFeats; f++ {
			key := fmt.Sprintf("dense:%d", f)
			if f%3 == 2 {
				// Clustered membership: long runs with short gaps.
				for g := 0; g < nGraphs; {
					for j, n := 0, 200+r.Intn(200); j < n && g < nGraphs; j++ {
						tr.Insert(key, Posting{Graph: int32(g), Count: 1})
						g++
					}
					g += 1 + r.Intn(4)
				}
			} else {
				// Dense uniform scatter: bitmap territory.
				for g := 0; g < nGraphs; g++ {
					if r.Intn(10) != 0 {
						tr.Insert(key, Posting{Graph: int32(g), Count: 1})
					}
				}
			}
		}
		return tr
	}

	var adaptive, flat bytes.Buffer
	if _, err := build(AdaptiveContainers).WriteTo(&adaptive); err != nil {
		t.Fatal(err)
	}
	if _, err := build(ArrayOnlyContainers).WriteTo(&flat); err != nil {
		t.Fatal(err)
	}
	if adaptive.Len() == 0 || flat.Len() == 0 {
		t.Fatal("premise: empty snapshot")
	}
	ratio := float64(flat.Len()) / float64(adaptive.Len())
	t.Logf("snapshot bytes: adaptive=%d flat=%d shrink=%.2fx", adaptive.Len(), flat.Len(), ratio)
	if ratio < 2.0 {
		t.Fatalf("dense snapshot shrink %.2fx < 2x (adaptive=%dB, flat arrays=%dB)",
			ratio, adaptive.Len(), flat.Len())
	}

	// The flat snapshot must load back into the adaptive-default reader with
	// identical content — the shrink is pure encoding, not data loss.
	got := newSegmented(features.NewDict(), 4)
	if _, err := got.ReadFrom(bytes.NewReader(flat.Bytes())); err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if _, err := got.WriteTo(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), adaptive.Bytes()) {
		t.Error("flat snapshot did not re-save to the canonical adaptive bytes")
	}
}
