// Package trace records the simulated kernel timeline and exports it in
// the Chrome trace-event format (chrome://tracing, Perfetto). Loading a
// trace of a µ-cuDNN run visualizes the paper's Fig. 3: one convolution
// call expanded into a sequence of per-micro-batch kernels, each labeled
// with its algorithm and micro-batch size.
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

// Event is one completed span on the simulated device timeline.
type Event struct {
	// Name labels the span (e.g. "Forward FFT@32 64x27x27").
	Name string
	// Cat groups spans ("conv", "layer", ...).
	Cat string
	// Start is the simulated-clock start time.
	Start time.Duration
	// Dur is the span length.
	Dur time.Duration
	// Track is the lane the span renders in (0 = device stream).
	Track int
	// Span is the event's causal identifier; 0 when correlation is off.
	Span uint64
	// Parent is the Span of the enclosing causal scope (a conv call, a
	// layer, an iteration); 0 at the root.
	Parent uint64
}

// Recorder accumulates events; it is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// New creates an empty recorder.
func New() *Recorder { return &Recorder{} }

// Add appends one event.
func (r *Recorder) Add(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
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
