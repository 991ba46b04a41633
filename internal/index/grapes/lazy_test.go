package grapes

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/index"
)

// TestLoadIndexLazyDifferential: the Grapes lazy path answers identically
// to an eager load, under eviction pressure, and materialises into the
// identical index.
func TestLoadIndexLazyDifferential(t *testing.T) {
	db := randomDB(40, 11)
	qs := randomQueries(db, 20, 12)
	built := New(Options{MaxPathLen: 3, Shards: 8, Threads: 2, BuildWorkers: 2})
	built.Build(db)
	var buf bytes.Buffer
	if err := built.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	eager := New(Options{MaxPathLen: 3, Threads: 2})
	if _, err := eager.LoadIndex(bytes.NewReader(buf.Bytes()), db); err != nil {
		t.Fatal(err)
	}
	lazy := New(Options{MaxPathLen: 3, Threads: 2, BuildWorkers: 2})
	if _, err := lazy.LoadIndexLazy(bytes.NewReader(buf.Bytes()), db, 2<<10); err != nil {
		t.Fatal(err)
	}
	if res := lazy.Residency(); !res.Lazy || res.ResidentShards != 0 {
		t.Fatalf("post-open residency %+v: want lazy, nothing resident", res)
	}
	// Two passes: the second runs over already- and not-yet-resident lists
	// alike.
	for pass := 0; pass < 2; pass++ {
		for i, q := range qs {
			if !reflect.DeepEqual(eager.Filter(q), lazy.Filter(q)) {
				t.Fatalf("pass %d, query %d: lazy filter diverges", pass, i)
			}
			if !reflect.DeepEqual(index.Answer(eager, q), index.Answer(lazy, q)) {
				t.Fatalf("pass %d, query %d: lazy answers diverge", pass, i)
			}
		}
	}
	if res := lazy.Residency(); res.Faults == 0 || res.Evictions == 0 {
		t.Errorf("queries answered without posting decodes and evictions under a 2 KiB budget: %+v", res)
	}
	if err := lazy.Materialize(); err != nil {
		t.Fatal(err)
	}
	var esave, lsave bytes.Buffer
	if err := eager.SaveIndex(&esave); err != nil {
		t.Fatal(err)
	}
	if err := lazy.SaveIndex(&lsave); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(esave.Bytes(), lsave.Bytes()) {
		t.Error("materialised lazy index re-saves different bytes")
	}
}
