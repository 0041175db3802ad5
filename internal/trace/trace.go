// Package trace records the simulated kernel timeline and exports it in
// the Chrome trace-event format (chrome://tracing, Perfetto). Loading a
// trace of a µ-cuDNN run visualizes the paper's Fig. 3: one convolution
// call expanded into a sequence of per-micro-batch kernels, each labeled
// with its algorithm and micro-batch size.
//
// A Recorder is also its run's correlation state, the way a cuDNN
// handle owns its stream: it keeps the run's span ID counter, the stack
// of open scopes (iteration → layer → convolution call) and the scope
// log, so every span it records names its enclosing scope and two
// traced runs in one process never share numbering or parents. Scopes
// are recorded exactly when a recorder is attached; on a nil recorder
// Open and Close do nothing.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// The well-known timeline tracks. Every clock charge — kernels and the
// out-of-core executor's modeled transfers alike — lands on the one
// device stream; layer and iteration brackets and fault annotations each
// get a dedicated lane. The numbers are part of the exported timeline,
// so a retired track's number (3 and 4 were transfer streams) is not
// reused.
const (
	// TrackKernel is the device compute stream (conv/gemm/transfer
	// charges).
	TrackKernel = 0
	// TrackLayer carries per-layer bracket spans.
	TrackLayer = 1
	// TrackFault carries fault/degradation annotations.
	TrackFault = 2
	// TrackIteration carries per-iteration bracket spans.
	TrackIteration = 5
)

// TrackName names a track for renderers (Chrome thread_name metadata,
// timeline tables).
func TrackName(t int) string {
	switch t {
	case TrackKernel:
		return "device stream"
	case TrackLayer:
		return "layers"
	case TrackFault:
		return "faults"
	case TrackIteration:
		return "iterations"
	}
	return fmt.Sprintf("track %d", t)
}

// Event is one completed span on the simulated device timeline. The
// JSON tags are the event layout of the exported causal timeline
// (causal.Timeline), so the field order is part of that export.
type Event struct {
	// Span is the event's causal identifier, stamped by AddLeaf (or the
	// scope's ID, for a bracket); 0 when nothing assigned one. An exported
	// timeline renumbers it canonically (causal.Build).
	Span uint64 `json:"span"`
	// Parent is the Span of the enclosing causal scope (a conv call, a
	// layer, an iteration); 0 at the root.
	Parent uint64 `json:"parent,omitempty"`
	// Name labels the span (e.g. "Forward FFT@32 64x27x27").
	Name string `json:"name"`
	// Cat groups spans ("conv", "layer", ...).
	Cat string `json:"cat"`
	// Track is the lane the span renders in (0 = device stream).
	Track int `json:"track"`
	// Start is the simulated-clock start time.
	Start time.Duration `json:"start_ns"`
	// Dur is the span length.
	Dur time.Duration `json:"dur_ns"`
}

// End is the event's completion time.
func (e Event) End() time.Duration { return e.Start + e.Dur }

// bracketCats are the categories of non-leaf annotation spans: brackets
// mirror causal scopes on the timeline (their duration double-covers
// their children) and fault spans double-cover the retried kernels they
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
func (e Event) Leaf() bool { return !bracketCats[e.Cat] }

// Scope kinds, outermost first. Kinds are plain strings so the timeline
// schema stays self-describing.
const (
	// KindIteration brackets one forward+backward pass.
	KindIteration = "iteration"
	// KindLayer brackets one layer's forward or backward execution.
	KindLayer = "layer"
	// KindConv brackets one convolution call (core.Handle.execute); its
	// children are the micro-batch kernel spans of the plan.
	KindConv = "conv"
)

// Scope is one recorded non-leaf span: a correlation node that may not
// itself appear on the device timeline (a convolution call has no
// charge of its own — its micro-batch kernels do). The JSON tags are
// the scope layout of the exported causal timeline.
type Scope struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
}

// Recorder accumulates events and the scope tree they belong to; it is
// safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	scopes []Scope
	last   uint64 // the last span ID handed out (scopes and leaves share them)
	cur    uint64 // the innermost open scope; 0 at the root
}

// New creates an empty recorder.
func New() *Recorder { return &Recorder{} }

// Add appends one event as given.
func (r *Recorder) Add(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

// AddLeaf appends ev as a leaf of the innermost open scope: it gets a
// fresh span ID and that scope as its parent, which is what links every
// clock charge back to its conv call, layer and iteration.
func (r *Recorder) AddLeaf(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last++
	ev.Span, ev.Parent = r.last, r.cur
	r.events = append(r.events, ev)
}

// Open opens a scope under the innermost open one, makes it innermost
// and returns it. On a nil recorder it returns the zero Scope.
func (r *Recorder) Open(kind, name string) Scope {
	if r == nil {
		return Scope{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last++
	s := Scope{ID: r.last, Parent: r.cur, Kind: kind, Name: name}
	r.scopes = append(r.scopes, s)
	r.cur = s.ID
	return s
}

// Close closes s, making its parent the innermost open scope again.
// Closing on a nil recorder, or the zero Scope, does nothing.
func (r *Recorder) Close(s Scope) {
	if r == nil || s.ID == 0 {
		return
	}
	r.mu.Lock()
	r.cur = s.Parent
	r.mu.Unlock()
}

// Scopes returns a snapshot of the scope log in recording (execution)
// order.
func (r *Recorder) Scopes() []Scope {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Scope(nil), r.scopes...)
}

// Less is the canonical timeline order, (Start, Track, Name, Span). The
// key is total over concurrent recordings, so exports sorted by it are
// byte-identical across runs regardless of the order events arrived in.
func Less(a, b Event) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Track != b.Track {
		return a.Track < b.Track
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Span < b.Span
}

// Events returns a snapshot in canonical order (Less).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Event{}, r.events...)
	sort.SliceStable(out, func(i, j int) bool { return Less(out[i], out[j]) })
	return out
}

// chromeEvent is the trace-event JSON schema ("X" complete events, "M"
// metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`  // microseconds
	Dur  int64          `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeEvents emits evs (in canonical order, Less) as a Chrome
// trace-event JSON array: thread_name metadata for every track used,
// then one complete event per span with its span/parent in args.
func WriteChromeEvents(w io.Writer, evs []Event) error {
	tracks := map[int]bool{}
	for _, e := range evs {
		tracks[e.Track] = true
	}
	order := make([]int, 0, len(tracks))
	for t := range tracks {
		order = append(order, t)
	}
	sort.Ints(order)
	out := make([]chromeEvent, 0, len(order)+len(evs))
	for _, t := range order {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: t + 1,
			Args: map[string]any{"name": TrackName(t)},
		})
	}
	for _, e := range evs {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   "X",
			TS:   e.Start.Microseconds(),
			Dur:  e.Dur.Microseconds(),
			PID:  1,
			TID:  e.Track + 1,
		}
		if e.Span != 0 {
			ce.Args = map[string]any{"span": e.Span}
			if e.Parent != 0 {
				ce.Args["parent"] = e.Parent
			}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
