package causal

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ucudnn/internal/trace"
)

// tev builds a raw trace event with explicit span wiring.
func tev(name, cat string, track int, start, dur time.Duration, span, parent uint64) trace.Event {
	return trace.Event{Name: name, Cat: cat, Track: track, Start: start, Dur: dur,
		Span: span, Parent: parent}
}

// Build must renumber raw allocation-ordered IDs canonically: the same
// logical recording with different raw IDs and insertion orders exports
// byte-identical JSON.
func TestBuildCanonicalRenumbering(t *testing.T) {
	scopesA := []Scope{
		{ID: 7, Parent: 0, Kind: KindIteration, Name: "iteration"},
		{ID: 9, Parent: 7, Kind: KindLayer, Name: "conv1"},
	}
	evsA := []trace.Event{
		tev("k1", "fwd", trace.TrackKernel, 0, 10, 21, 9),
		tev("k2", "fwd", trace.TrackKernel, 10, 5, 23, 9),
	}
	// Same recording, different raw IDs, events inserted reversed.
	scopesB := []Scope{
		{ID: 101, Parent: 0, Kind: KindIteration, Name: "iteration"},
		{ID: 150, Parent: 101, Kind: KindLayer, Name: "conv1"},
	}
	evsB := []trace.Event{
		tev("k2", "fwd", trace.TrackKernel, 10, 5, 3, 150),
		tev("k1", "fwd", trace.TrackKernel, 0, 10, 2, 150),
	}
	ta, tb := Build(evsA, scopesA), Build(evsB, scopesB)
	var ba, bb bytes.Buffer
	if err := ta.WriteJSON(&ba); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatalf("renumbered timelines differ:\n%s\nvs\n%s", ba.String(), bb.String())
	}
	if err := ta.Validate(); err != nil {
		t.Fatal(err)
	}
	// Canonical shape: scopes 1,2; events 3,4; parents remapped.
	if ta.Scopes[0].ID != 1 || ta.Scopes[1].ID != 2 || ta.Scopes[1].Parent != 1 {
		t.Fatalf("scope renumbering: %+v", ta.Scopes)
	}
	if ta.Events[0].Span != 3 || ta.Events[1].Span != 4 {
		t.Fatalf("event renumbering: %+v", ta.Events)
	}
	if ta.Events[0].Parent != 2 || ta.Events[1].Parent != 2 {
		t.Fatalf("event parents not remapped: %+v", ta.Events)
	}
}

// Round trip: WriteJSON → ReadTimeline preserves the timeline.
func TestTimelineRoundTrip(t *testing.T) {
	tl := Build([]trace.Event{
		tev("k1", "fwd", trace.TrackKernel, 0, 10, 1, 0),
	}, nil)
	var b bytes.Buffer
	if err := tl.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTimeline(&b)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 1 || got.Events[0].Name != "k1" || got.Events[0].DurNS != 10 {
		t.Fatalf("round trip mangled events: %+v", got.Events)
	}
}

func TestValidateRejects(t *testing.T) {
	// Canonical order: k1, the iteration bracket (same start, later
	// track), k2.
	base := func() *Timeline {
		return Build([]trace.Event{
			tev("k1", "fwd", trace.TrackKernel, 0, 10, 11, 5),
			tev("k2", "fwd", trace.TrackKernel, 10, 5, 12, 5),
			tev("iteration", "iteration", trace.TrackIteration, 0, 15, 4, 0),
		}, []Scope{{ID: 5, Kind: KindLayer, Name: "conv1"}})
	}
	cases := []struct {
		name   string
		mutate func(*Timeline)
		want   string
	}{
		{"schema", func(t *Timeline) { t.Schema = "bogus" }, "schema"},
		{"scope numbering", func(t *Timeline) { t.Scopes[0].ID = 3 }, "dense numbering"},
		{"scope parent", func(t *Timeline) { t.Scopes[0].Parent = 9 }, "precede"},
		{"event numbering", func(t *Timeline) { t.Events[0].Span = 99 }, "dense numbering"},
		{"negative dur", func(t *Timeline) { t.Events[0].DurNS = -1 }, "negative"},
		{"parent not scope", func(t *Timeline) { t.Events[0].Parent = 42 }, "not a scope"},
		{"order", func(t *Timeline) {
			t.Events[1], t.Events[2] = t.Events[2], t.Events[1]
			t.Events[1].Span, t.Events[2].Span = 3, 4
		}, "canonical order"},
		{"overlap", func(t *Timeline) { t.Events[2].StartNS = 5 }, "overlap"},
		{"gap", func(t *Timeline) { t.Events[2].StartNS = 11; t.Events[2].DurNS = 4 }, "gap at 10 ns"},
		{"tail gap", func(t *Timeline) { t.Events[2].DurNS = 3 }, "gap at 13 ns"},
	}
	for _, tc := range cases {
		tl := base()
		if err := tl.Validate(); err != nil {
			t.Fatalf("%s: base timeline invalid: %v", tc.name, err)
		}
		tc.mutate(tl)
		err := tl.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// Brackets (layer forward/backward, iteration, fault annotations) cover
// their children by design and must be exempt from overlap checking.
func TestValidateBracketExempt(t *testing.T) {
	tl := Build([]trace.Event{
		tev("conv1", "forward", trace.TrackLayer, 0, 15, 0, 0),
		tev("k1", "fwd", trace.TrackLayer, 0, 10, 1, 0),
		tev("k2", "fwd", trace.TrackLayer, 10, 5, 2, 0),
	}, nil)
	if err := tl.Validate(); err != nil {
		t.Fatalf("bracket span tripped overlap check: %v", err)
	}
}
