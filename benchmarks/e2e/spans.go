package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program.
type span struct {
	ID     int
	Parent int // 0 for a root
	Name   string
	Iter   int // iteration the span belongs to; spans of one iteration share it
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanLog keeps spans in memory until the run ends. The network runs on
// one goroutine, so a plain stack tracks the open span. A nil log
// records nothing: the timed pass passes nil.
type spanLog struct {
	origin time.Time
	spans  []span
	open   []int // indexes into spans
	iter   int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under the innermost open one and returns the
// closure that ends it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	i := len(l.spans)
	l.spans = append(l.spans, span{ID: i + 1, Parent: parent, Name: name, Iter: l.iter, Start: time.Since(l.origin)})
	l.open = append(l.open, i)
	return func() {
		l.spans[i].End = time.Since(l.origin)
		l.open = l.open[:len(l.open)-1]
	}
}

// selfTimes returns each span's duration minus the part its direct
// children cover, keyed by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events; id, parent and iteration ride in args).
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "iter": s.Iter},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
