package trace

import "testing"

// Scopes nest, Close restores the parent, and leaves land under the
// innermost open scope.
func TestScopesNest(t *testing.T) {
	r := New()
	it := r.Open(KindIteration, "iteration")
	if it.ID == 0 || it.Parent != 0 {
		t.Fatalf("root scope %+v", it)
	}
	layer := r.Open(KindLayer, "conv1")
	if layer.Parent != it.ID {
		t.Fatalf("nested parent %d, want %d", layer.Parent, it.ID)
	}
	conv := r.Open(KindConv, "conv2d(...)")
	r.AddLeaf(Event{Name: "k1"})
	r.Close(conv)
	r.AddLeaf(Event{Name: "k2"})
	r.Close(layer)
	r.AddLeaf(Event{Name: "k3"})
	r.Close(it)
	r.AddLeaf(Event{Name: "k4"})

	wantParent := map[string]uint64{"k1": conv.ID, "k2": layer.ID, "k3": it.ID, "k4": 0}
	for _, e := range r.Events() {
		if e.Parent != wantParent[e.Name] {
			t.Errorf("leaf %s parent %d, want %d", e.Name, e.Parent, wantParent[e.Name])
		}
	}
	scopes := r.Scopes()
	want := []Scope{it, layer, conv}
	if len(scopes) != len(want) {
		t.Fatalf("recorded %d scopes, want %d", len(scopes), len(want))
	}
	for i, s := range scopes {
		if s != want[i] {
			t.Errorf("scope %d = %+v, want %+v", i, s, want[i])
		}
	}
}

// Scopes and leaves draw from one ID space: every identifier in a
// recording is unique, in allocation order.
func TestScopesAndLeavesShareIDs(t *testing.T) {
	r := New()
	sc := r.Open(KindLayer, "conv1")
	r.AddLeaf(Event{Name: "k1"})
	r.Close(sc)
	sc2 := r.Open(KindLayer, "relu1")
	r.AddLeaf(Event{Name: "k2"})
	r.Close(sc2)
	evs := r.Events()
	got := []uint64{sc.ID, evs[0].Span, sc2.ID, evs[1].Span}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("IDs %v, want 1..4 in allocation order", got)
		}
	}
}

// Scope recording is off without a recorder: a nil recorder opens the
// zero Scope and closes anything without effect.
func TestNilRecorderScopes(t *testing.T) {
	var r *Recorder
	if s := r.Open(KindIteration, "iteration"); s != (Scope{}) {
		t.Fatalf("nil recorder opened %+v", s)
	}
	r.Close(Scope{ID: 3, Parent: 1})
	r.Close(Scope{})

	// Closing the zero Scope on a live recorder leaves its stack alone.
	live := New()
	sc := live.Open(KindLayer, "conv1")
	live.Close(Scope{})
	live.AddLeaf(Event{Name: "k"})
	if p := live.Events()[0].Parent; p != sc.ID {
		t.Fatalf("zero Close moved the open scope: leaf parent %d, want %d", p, sc.ID)
	}
}

// Two recorders number and parent their spans independently, however
// their calls interleave.
func TestRecordersNumberIndependently(t *testing.T) {
	a, b := New(), New()
	sa := a.Open(KindIteration, "a")
	sb := b.Open(KindIteration, "b")
	b.AddLeaf(Event{Name: "kb"})
	a.AddLeaf(Event{Name: "ka"})
	a.Close(sa)
	b.Close(sb)
	if sa.ID != 1 || sb.ID != 1 {
		t.Fatalf("first scopes numbered %d and %d, want 1 each", sa.ID, sb.ID)
	}
	for _, r := range []*Recorder{a, b} {
		e := r.Events()[0]
		if e.Span != 2 || e.Parent != 1 {
			t.Fatalf("leaf %s = span %d under %d, want span 2 under 1", e.Name, e.Span, e.Parent)
		}
		if len(r.Scopes()) != 1 {
			t.Fatalf("recorder holds %d scopes, want its own 1", len(r.Scopes()))
		}
	}
}
