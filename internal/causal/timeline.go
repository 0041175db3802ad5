package causal

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ucudnn/internal/trace"
)

// Schema identifies the timeline JSON layout; ucudnn-time -check
// refuses anything else.
const Schema = "ucudnn-causal-timeline/v1"

// Timeline is the unified causal timeline: the scope tree (iterations,
// layers, conv calls) plus every recorded span, canonically numbered so
// the exported bytes are identical across worker counts and profiling
// on/off.
type Timeline struct {
	Schema string        `json:"schema"`
	Scopes []trace.Scope `json:"scopes"`
	Events []trace.Event `json:"events"`
}

// Build assembles the canonical timeline from a recorder's events, in
// canonical (trace.Less) order as Recorder.Events returns them, and its
// scope log (Recorder.Scopes). Raw span IDs are allocation-ordered and
// vary with recording interleaving; Build renumbers them positionally —
// scopes 1..S in recording order, events S+1.. in their given order —
// which is what makes the export deterministic. The events are
// renumbered in place.
func Build(events []trace.Event, scopes []trace.Scope) *Timeline {
	t := &Timeline{Schema: Schema, Scopes: []trace.Scope{}, Events: events}
	if t.Events == nil {
		t.Events = []trace.Event{}
	}
	scopeMap := make(map[uint64]uint64, len(scopes))
	for i, s := range scopes {
		id := uint64(i + 1)
		scopeMap[s.ID] = id
		t.Scopes = append(t.Scopes, trace.Scope{ID: id, Parent: scopeMap[s.Parent], Kind: s.Kind, Name: s.Name})
	}
	for i := range events {
		e := &events[i]
		e.Span, e.Parent = uint64(len(scopes)+i+1), scopeMap[e.Parent]
	}
	return t
}

// WriteJSON emits the canonical timeline JSON (the -check / determinism
// contract is over exactly these bytes).
func (t *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// WriteChrome renders the timeline as Chrome trace-event JSON with
// span/parent args and named tracks.
func (t *Timeline) WriteChrome(w io.Writer) error {
	return trace.WriteChromeEvents(w, t.Events)
}

// ReadTimeline parses a timeline exported by WriteJSON.
func ReadTimeline(r io.Reader) (*Timeline, error) {
	var t Timeline
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("causal: parse timeline: %w", err)
	}
	return &t, nil
}

// Validate checks the timeline invariants ucudnn-time -check enforces:
// the schema tag; scope IDs dense 1..S with parents preceding children;
// event IDs dense S+1.. in canonical (trace.Less) order; parents
// referencing scopes; leaf spans on one track never overlapping
// (bracket/annotation tracks are exempt — brackets cover their children
// by design); and the device stream's leaves tiling every iteration
// bracket with no gap (every clock advancement is a leaf, so an idle
// nanosecond inside an iteration is a lost charge).
func (t *Timeline) Validate() error {
	if t.Schema != Schema {
		return fmt.Errorf("causal: schema %q, want %q", t.Schema, Schema)
	}
	for i, s := range t.Scopes {
		if s.ID != uint64(i+1) {
			return fmt.Errorf("causal: scope %d has ID %d, want dense numbering", i, s.ID)
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("causal: scope %d parent %d does not precede it", s.ID, s.Parent)
		}
	}
	nScopes := uint64(len(t.Scopes))
	lastLeaf := map[int]trace.Event{}
	// Canonical order delivers the device stream's leaves by start time,
	// and an iteration bracket after the leaves that start with it, so
	// one pass tracks where the stream's current busy run ends (runEnd)
	// and the latest iteration end it still owes (due).
	var runEnd, due time.Duration
	gap := func(at, end time.Duration) error {
		return fmt.Errorf("causal: device stream has a gap at %d ns inside an iteration ending at %d ns", at, end)
	}
	for i, e := range t.Events {
		if e.Span != nScopes+uint64(i)+1 {
			return fmt.Errorf("causal: event %d has span %d, want dense numbering after %d scopes", i, e.Span, nScopes)
		}
		if e.Dur < 0 || e.Start < 0 {
			return fmt.Errorf("causal: event %d (%s) has negative time", e.Span, e.Name)
		}
		if e.Parent != 0 && e.Parent > nScopes {
			return fmt.Errorf("causal: event %d parent %d is not a scope", e.Span, e.Parent)
		}
		if i > 0 && trace.Less(e, t.Events[i-1]) {
			return fmt.Errorf("causal: events not in canonical order at %d (%s)", e.Span, e.Name)
		}
		switch {
		case e.Leaf():
			if last, ok := lastLeaf[e.Track]; ok && e.Start < last.End() {
				return fmt.Errorf("causal: track %d leaf spans overlap: %q and %q", e.Track, last.Name, e.Name)
			}
			lastLeaf[e.Track] = e
			if e.Track == trace.TrackKernel {
				if e.Start > runEnd && due > runEnd {
					return gap(runEnd, due)
				}
				runEnd = e.End()
			}
		case e.Cat == "iteration" && e.Dur > 0:
			// Every stream leaf starting at or before the bracket has been
			// seen, so its start must lie inside the current run.
			if e.Start >= runEnd {
				return gap(e.Start, e.End())
			}
			due = max(due, e.End())
		}
	}
	if due > runEnd {
		return gap(runEnd, due)
	}
	return nil
}
