package trie

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/features"
)

func TestInsertGet(t *testing.T) {
	tr := New()
	tr.Insert("p:1.2", Posting{Graph: 3, Count: 2})
	tr.Insert("p:1.2", Posting{Graph: 1, Count: 1})
	tr.Insert("p:1.3", Posting{Graph: 3, Count: 5})

	ps := tr.Get("p:1.2")
	if len(ps) != 2 || ps[0].Graph != 1 || ps[1].Graph != 3 {
		t.Fatalf("postings = %+v", ps)
	}
	if ps[1].Count != 2 {
		t.Errorf("count = %d", ps[1].Count)
	}
	if tr.Get("p:1") != nil {
		t.Error("prefix of a key must not be a key")
	}
	if tr.Get("nope") != nil {
		t.Error("absent key returned postings")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestInsertMergesSameGraph(t *testing.T) {
	tr := New()
	tr.Insert("k", Posting{Graph: 7, Count: 1})
	tr.Insert("k", Posting{Graph: 7, Count: 2})
	ps := tr.Get("k")
	if len(ps) != 1 {
		t.Fatalf("expected merged posting, got %+v", ps)
	}
	if ps[0].Count != 3 {
		t.Errorf("merged count = %d, want 3", ps[0].Count)
	}
}

func TestEmptyKeyIsValid(t *testing.T) {
	tr := New()
	tr.Insert("", Posting{Graph: 1, Count: 1})
	if ps := tr.Get(""); len(ps) != 1 {
		t.Errorf("empty key postings = %+v", ps)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestContains(t *testing.T) {
	tr := New()
	tr.Insert("abc", Posting{Graph: 1, Count: 1})
	if !tr.Contains("abc") || tr.Contains("ab") || tr.Contains("abcd") {
		t.Error("Contains misbehaves on prefixes/extensions")
	}
}

func TestWalkLexicographic(t *testing.T) {
	tr := New()
	keys := []string{"b", "a", "ab", "aa", "ba"}
	for i, k := range keys {
		tr.Insert(k, Posting{Graph: int32(i), Count: 1})
	}
	var got []string
	tr.Walk(func(k string, _ []Posting) { got = append(got, k) })
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Walk order = %v, want %v", got, want)
	}
}

func TestRemoveGraph(t *testing.T) {
	tr := New()
	tr.Insert("x", Posting{Graph: 1, Count: 1})
	tr.Insert("x", Posting{Graph: 2, Count: 1})
	tr.Insert("y", Posting{Graph: 1, Count: 4})
	tr.RemoveGraph(1)
	if ps := tr.Get("x"); len(ps) != 1 || ps[0].Graph != 2 {
		t.Errorf("x postings after removal = %+v", ps)
	}
	if ps := tr.Get("y"); len(ps) != 0 {
		t.Errorf("y postings after removal = %+v", ps)
	}
}

func TestContainsAfterRemoveGraph(t *testing.T) {
	// Regression: a terminal node whose postings were fully drained by
	// RemoveGraph used to still report the key as present.
	tr := New()
	tr.Insert("p:1.2", Posting{Graph: 1, Count: 2})
	tr.Insert("p:3", Posting{Graph: 1, Count: 1})
	tr.Insert("p:3", Posting{Graph: 2, Count: 1})
	tr.RemoveGraph(1)
	if tr.Contains("p:1.2") {
		t.Error("Contains reports a key whose postings were all removed")
	}
	if !tr.Contains("p:3") {
		t.Error("Contains lost a key that still has postings")
	}
	if ps := tr.Get("p:1.2"); len(ps) != 0 {
		t.Errorf("drained key still has postings: %+v", ps)
	}
	// Re-inserting revives the key.
	tr.Insert("p:1.2", Posting{Graph: 3, Count: 1})
	if !tr.Contains("p:1.2") {
		t.Error("re-inserted key not contained")
	}
}

func TestSharedDictIDLookup(t *testing.T) {
	d := features.NewDict()
	a, b := NewWithDict(d), NewWithDict(d)
	a.Insert("p:1.2", Posting{Graph: 0, Count: 1})
	b.Insert("p:1.2", Posting{Graph: 7, Count: 3})
	b.Insert("p:9", Posting{Graph: 7, Count: 1})
	id, ok := d.Lookup("p:1.2")
	if !ok {
		t.Fatal("shared dict lost the key")
	}
	if ps := a.GetByID(id).Postings(); len(ps) != 1 || ps[0].Graph != 0 {
		t.Errorf("a.GetByID = %+v", ps)
	}
	if ps := b.GetByID(id).Postings(); len(ps) != 1 || ps[0].Graph != 7 {
		t.Errorf("b.GetByID = %+v", ps)
	}
	// a key interned by b but never inserted into a
	id9, _ := d.Lookup("p:9")
	if pl := a.GetByID(id9); pl.Len() != 0 {
		t.Errorf("a holds postings it never saw: %+v", pl.Postings())
	}
	if a.Get("p:9") != nil {
		t.Error("string Get leaked another trie's key")
	}
}

func TestInsertIDMatchesInsert(t *testing.T) {
	d := features.NewDict()
	byStr, byID := NewWithDict(d), NewWithDict(d)
	keys := []string{"p:1", "p:1.2", "p:2.1.2"}
	for i, k := range keys {
		byStr.Insert(k, Posting{Graph: int32(i), Count: int32(i + 1)})
		byID.InsertID(d.Intern(k), Posting{Graph: int32(i), Count: int32(i + 1)})
	}
	var ws, wi []string
	byStr.Walk(func(k string, ps []Posting) { ws = append(ws, fmt.Sprintf("%s=%v", k, ps)) })
	byID.Walk(func(k string, ps []Posting) { wi = append(wi, fmt.Sprintf("%s=%v", k, ps)) })
	if !reflect.DeepEqual(ws, wi) {
		t.Errorf("walks differ:\n%v\n%v", ws, wi)
	}
	if byStr.Len() != byID.Len() {
		t.Errorf("key counts differ: %d vs %d", byStr.Len(), byID.Len())
	}
}

func TestAgainstMapModel(t *testing.T) {
	// trie behaviour must match a reference map[string]map[int32]int32
	f := func(ops []uint8) bool {
		tr := New()
		model := map[string]map[int32]int32{}
		keys := []string{"", "a", "ab", "b", "ba", "p:1.2", "p:1", "t:0(1)"}
		rng := rand.New(rand.NewSource(int64(len(ops))))
		for _, op := range ops {
			k := keys[int(op)%len(keys)]
			g := int32(rng.Intn(4))
			c := int32(1 + rng.Intn(3))
			tr.Insert(k, Posting{Graph: g, Count: c})
			if model[k] == nil {
				model[k] = map[int32]int32{}
			}
			model[k][g] += c
		}
		for _, k := range keys {
			ps := tr.Get(k)
			want := model[k]
			if want == nil {
				if ps != nil {
					return false
				}
				continue
			}
			if len(ps) != len(want) {
				return false
			}
			for _, p := range ps {
				if want[p.Graph] != p.Count {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSizeBytesGrows(t *testing.T) {
	tr := New()
	before := tr.SizeBytes()
	for i := 0; i < 50; i++ {
		tr.Insert(fmt.Sprintf("key-%d", i), Posting{Graph: int32(i), Count: 1})
	}
	if tr.SizeBytes() <= before {
		t.Error("SizeBytes did not grow after inserts")
	}
	if tr.Len() != 50 {
		t.Errorf("Len = %d after 50 distinct inserts", tr.Len())
	}
}
