package features

import "testing"

func TestDictReset(t *testing.T) {
	d := NewDict()
	a := d.Intern("p:1")
	b := d.Intern("p:2")
	if a != 0 || b != 1 {
		t.Fatalf("dense IDs expected, got %d, %d", a, b)
	}
	PathsID(pathGraph(1, 2), PathOptions{MaxLen: 1}, d, NewScratch(), true)
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", d.Len())
	}
	if n := d.TableLen(); n != 0 {
		t.Fatalf("TableLen after Reset = %d, want 0", n)
	}
	if _, ok := d.Lookup("p:1"); ok {
		t.Error("key survived Reset")
	}
	// IDs restart densely from 0, in interning order.
	if id := d.Intern("p:9"); id != 0 {
		t.Errorf("first post-Reset ID = %d, want 0", id)
	}
	if id := d.Intern("p:1"); id != 1 {
		t.Errorf("second post-Reset ID = %d, want 1", id)
	}
	if got := d.Keys(); len(got) != 2 || got[0] != "p:9" || got[1] != "p:1" {
		t.Errorf("Keys after Reset = %v", got)
	}
}

func TestDictSizeBytes(t *testing.T) {
	d := NewDict()
	empty := d.SizeBytes()
	if empty <= 0 {
		t.Fatalf("empty dict SizeBytes = %d", empty)
	}
	d.Intern("p:1.2.3")
	one := d.SizeBytes()
	if one <= empty {
		t.Errorf("SizeBytes did not grow on intern: %d -> %d", empty, one)
	}
	if delta := one - empty; delta < len("p:1.2.3") {
		t.Errorf("per-key delta %d smaller than the key itself", delta)
	}
	d.Reset()
	if got := d.SizeBytes(); got != empty {
		t.Errorf("SizeBytes after Reset = %d, want %d", got, empty)
	}
}
