package dnn

import (
	"fmt"
	"sort"
	"time"

	"ucudnn/internal/trace"
)

// Schedule is the result of simulating a pass on multiple concurrent
// device streams: per-layer spans (stream-tagged) and the makespan.
// The paper's §III-A motivates Workspace Division with exactly this
// setting — Inception-style branches running concurrently, each with its
// own workspace segment.
type Schedule struct {
	// Makespan is the critical-path completion time.
	Makespan time.Duration
	// Spans lists one event per layer, with Track = stream index.
	Spans []trace.Event
}

// ScheduleForward simulates the forward pass on `streams` concurrent
// streams using per-layer durations from a prior timing report: a layer
// becomes ready when all its bottom blobs are produced, and the earliest-
// available stream runs it (greedy list scheduling). With one stream this
// degenerates to the sequential total; with several, independent branches
// overlap and the makespan approaches the critical path.
func (n *Net) ScheduleForward(rep *TimingReport, streams int) (*Schedule, error) {
	if streams < 1 {
		return nil, fmt.Errorf("dnn: need at least one stream")
	}
	if !n.ready {
		return nil, fmt.Errorf("dnn: ScheduleForward before Setup")
	}
	if len(rep.Layers) != len(n.layers) {
		return nil, fmt.Errorf("dnn: report has %d layers, net has %d", len(rep.Layers), len(n.layers))
	}
	// blobReady[name] = completion time of the producing layer.
	blobReady := map[string]time.Duration{n.inputName: 0}
	streamFree := make([]time.Duration, streams)
	out := &Schedule{}
	for i, li := range n.layers {
		ready := time.Duration(0)
		for _, b := range li.bottoms {
			t, ok := blobReady[b]
			if !ok {
				return nil, fmt.Errorf("dnn: blob %q scheduled before production", b)
			}
			ready = max(ready, t)
		}
		// Earliest-start stream: max(ready, streamFree) minimized.
		best := 0
		bestStart := max(ready, streamFree[0])
		for s := 1; s < streams; s++ {
			if st := max(ready, streamFree[s]); st < bestStart {
				best, bestStart = s, st
			}
		}
		dur := rep.Layers[i].Forward
		end := bestStart + dur
		streamFree[best] = end
		blobReady[li.top] = end
		out.Spans = append(out.Spans, trace.Event{
			Name:  li.layer.Name(),
			Cat:   "fwd",
			Start: bestStart,
			Dur:   dur,
			Track: best,
		})
		if end > out.Makespan {
			out.Makespan = end
		}
	}
	return out, nil
}

// CriticalPath returns the forward critical-path length (the makespan
// with unbounded streams): the lower bound concurrency can reach.
func (n *Net) CriticalPath(rep *TimingReport) (time.Duration, error) {
	s, err := n.ScheduleForward(rep, len(n.layers)+1)
	if err != nil {
		return 0, err
	}
	return s.Makespan, nil
}

// Validate checks the schedule invariants: spans on the same stream never
// overlap, and every span starts after its layer's inputs completed.
func (s *Schedule) Validate() error {
	byTrack := map[int][]trace.Event{}
	for _, ev := range s.Spans {
		byTrack[ev.Track] = append(byTrack[ev.Track], ev)
	}
	for tr, evs := range byTrack {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		for i := 1; i < len(evs); i++ {
			if evs[i].Start < evs[i-1].Start+evs[i-1].Dur {
				return fmt.Errorf("dnn: stream %d spans overlap: %q and %q", tr, evs[i-1].Name, evs[i].Name)
			}
		}
	}
	return nil
}
