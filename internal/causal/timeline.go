package causal

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"ucudnn/internal/trace"
)

// Schema identifies the timeline JSON layout; ucudnn-time -check
// refuses anything else.
const Schema = "ucudnn-causal-timeline/v1"

// TEvent is one leaf span of the exported timeline: a unit of work that
// occupied a track for [StartNS, StartNS+DurNS).
type TEvent struct {
	// Span is the event's canonical identifier (scopes are numbered
	// first, then events in timeline order).
	Span uint64 `json:"span"`
	// Parent is the enclosing scope's ID; 0 at the root.
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Cat     string `json:"cat"`
	Track   int    `json:"track"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// End is the event's completion time in nanoseconds.
func (e TEvent) End() int64 { return e.StartNS + e.DurNS }

// Timeline is the unified causal timeline: the scope tree (iterations,
// layers, conv calls) plus every recorded span, canonically numbered so
// the exported bytes are identical across worker counts and profiling
// on/off.
type Timeline struct {
	Schema string   `json:"schema"`
	Scopes []Scope  `json:"scopes"`
	Events []TEvent `json:"events"`
}

// bracketCats are the categories of non-leaf annotation spans: brackets
// mirror scopes on the timeline (their duration double-covers their
// children) and fault spans double-cover the retried kernels they
// explain. Everything else is a leaf that exclusively occupied its
// track.
var bracketCats = map[string]bool{
	"forward":   true,
	"backward":  true,
	"iteration": true,
	"fault":     true,
}

// Leaf reports whether the event is a leaf work span (exclusively
// occupies its track) rather than a bracket/annotation.
func (e TEvent) Leaf() bool { return !bracketCats[e.Cat] }

// Build assembles the canonical timeline from recorded trace events and
// the scope log. Raw span IDs are allocation-ordered and vary with
// recording interleaving; Build renumbers them positionally — scopes
// 1..S in recording order, events S+1.. in canonical (trace.Less)
// order — which is what makes the export deterministic.
func Build(events []trace.Event, scopes []Scope) *Timeline {
	t := &Timeline{Schema: Schema, Scopes: []Scope{}, Events: []TEvent{}}
	scopeMap := make(map[ID]ID, len(scopes))
	for i, s := range scopes {
		id := ID(i + 1)
		scopeMap[s.ID] = id
		t.Scopes = append(t.Scopes, Scope{ID: id, Parent: scopeMap[s.Parent], Kind: s.Kind, Name: s.Name})
	}
	evs := append([]trace.Event{}, events...)
	sort.SliceStable(evs, func(i, j int) bool { return trace.Less(evs[i], evs[j]) })
	for i, e := range evs {
		t.Events = append(t.Events, TEvent{
			Span:    uint64(len(scopes) + i + 1),
			Parent:  uint64(scopeMap[ID(e.Parent)]),
			Name:    e.Name,
			Cat:     e.Cat,
			Track:   e.Track,
			StartNS: e.Start.Nanoseconds(),
			DurNS:   e.Dur.Nanoseconds(),
		})
	}
	return t
}

// traceEvent converts e back to a trace event.
func (e TEvent) traceEvent() trace.Event {
	return trace.Event{
		Name: e.Name, Cat: e.Cat, Track: e.Track,
		Start: time.Duration(e.StartNS), Dur: time.Duration(e.DurNS),
		Span: e.Span, Parent: e.Parent,
	}
}

// TraceEvents converts the timeline back to trace events (for the
// Chrome renderer).
func (t *Timeline) TraceEvents() []trace.Event {
	out := make([]trace.Event, len(t.Events))
	for i, e := range t.Events {
		out[i] = e.traceEvent()
	}
	return out
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
	return trace.WriteChromeEvents(w, t.TraceEvents())
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
		if s.ID != ID(i+1) {
			return fmt.Errorf("causal: scope %d has ID %d, want dense numbering", i, s.ID)
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("causal: scope %d parent %d does not precede it", s.ID, s.Parent)
		}
	}
	nScopes := uint64(len(t.Scopes))
	lastLeaf := map[int]TEvent{}
	// Canonical order delivers the device stream's leaves by start time,
	// and an iteration bracket after the leaves that start with it, so
	// one pass tracks where the stream's current busy run ends (runEnd)
	// and the latest iteration end it still owes (due).
	var runEnd, due int64
	gap := func(at, end int64) error {
		return fmt.Errorf("causal: device stream has a gap at %d ns inside an iteration ending at %d ns", at, end)
	}
	var prev trace.Event
	for i, e := range t.Events {
		if e.Span != nScopes+uint64(i)+1 {
			return fmt.Errorf("causal: event %d has span %d, want dense numbering after %d scopes", i, e.Span, nScopes)
		}
		if e.DurNS < 0 || e.StartNS < 0 {
			return fmt.Errorf("causal: event %d (%s) has negative time", e.Span, e.Name)
		}
		if e.Parent != 0 && e.Parent > nScopes {
			return fmt.Errorf("causal: event %d parent %d is not a scope", e.Span, e.Parent)
		}
		cur := e.traceEvent()
		if i > 0 && trace.Less(cur, prev) {
			return fmt.Errorf("causal: events not in canonical order at %d (%s)", e.Span, e.Name)
		}
		prev = cur
		switch {
		case e.Leaf():
			if last, ok := lastLeaf[e.Track]; ok && e.StartNS < last.End() {
				return fmt.Errorf("causal: track %d leaf spans overlap: %q and %q", e.Track, last.Name, e.Name)
			}
			lastLeaf[e.Track] = e
			if e.Track == trace.TrackKernel {
				if e.StartNS > runEnd && due > runEnd {
					return gap(runEnd, due)
				}
				runEnd = e.End()
			}
		case e.Cat == "iteration" && e.DurNS > 0:
			// Every stream leaf starting at or before the bracket has been
			// seen, so its start must lie inside the current run.
			if e.StartNS >= runEnd {
				return gap(e.StartNS, e.End())
			}
			due = max(due, e.End())
		}
	}
	if due > runEnd {
		return gap(runEnd, due)
	}
	return nil
}
