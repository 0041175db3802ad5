package causal

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ucudnn/internal/obs"
)

// The stall taxonomy: every idle nanosecond on a critical path is
// attributed to exactly one cause by a first-match decision tree (see
// DESIGN.md).
const (
	// CauseSerialFallback: the degradation ladder hit the serial
	// MinWorkspace floor, so micro-batches ran without division benefits.
	CauseSerialFallback = "serial-fallback"
	// CauseWorkspaceWait: a workspace fault forced replanning/retries.
	CauseWorkspaceWait = "workspace-wait"
	// CauseOther: residual stall none of the model's causes explain.
	CauseOther = "other"
)

// The causal metric series.
const (
	// MetricStallSeconds accumulates attributed stall time by cause.
	MetricStallSeconds = "ucudnn_stall_seconds_total"
	// MetricCriticalPath gauges the per-analysis critical-path length.
	MetricCriticalPath = "ucudnn_critical_path_seconds"
)

// PathStep is one leaf span on an iteration's critical path, with the
// idle gap (and its attributed cause) separating it from the previous
// step.
type PathStep struct {
	Span    uint64 `json:"span"`
	Name    string `json:"name"`
	Track   int    `json:"track"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	// GapNS is the idle time between the previous step's end and this
	// step's start; Cause attributes it when positive.
	GapNS int64  `json:"gap_ns,omitempty"`
	Cause string `json:"cause,omitempty"`
}

// IterationPath is the critical path of one iteration: the longest
// dependency chain of leaf spans, found by backtracking from the
// latest-finishing leaf through latest-ending available predecessors.
type IterationPath struct {
	Span   uint64     `json:"span"`
	WallNS int64      `json:"wall_ns"`
	PathNS int64      `json:"path_ns"`
	Steps  []PathStep `json:"steps"`
	// Coverage is PathNS (plus attributed gaps) over WallNS; the engine
	// guarantees the chain spans the iteration, so busy coverage alone
	// is PathNS/WallNS.
	Coverage float64 `json:"coverage"`
}

// Analysis is the result of analyzing one timeline.
type Analysis struct {
	Iterations []IterationPath `json:"iterations"`
	// StallNS totals the critical paths' idle gaps by attributed cause.
	StallNS map[string]int64 `json:"stall_ns"`
	// CriticalPathNS sums the iterations' path lengths.
	CriticalPathNS int64 `json:"critical_path_ns"`
	WallNS         int64 `json:"wall_ns"`
}

// Analyze runs the critical-path engine over a timeline.
func Analyze(t *Timeline) *Analysis {
	a := &Analysis{StallNS: map[string]int64{}}
	leaves := make([]TEvent, 0, len(t.Events))
	var faults []TEvent
	for _, e := range t.Events {
		if e.Cat == "fault" {
			faults = append(faults, e)
		}
		if e.Leaf() {
			leaves = append(leaves, e)
		}
	}
	for _, it := range a.iterationWindows(t, leaves) {
		// Canonical order sorts events by start time, so each window's
		// leaves are a contiguous run: slice it out instead of rescanning
		// every leaf per iteration (long traces have many small windows).
		lo := sort.Search(len(leaves), func(i int) bool { return leaves[i].StartNS >= it.StartNS })
		hi := sort.Search(len(leaves), func(i int) bool { return leaves[i].StartNS > it.End() })
		p := criticalPath(it, leaves[lo:hi], faults)
		a.Iterations = append(a.Iterations, p)
		a.CriticalPathNS += p.PathNS
		a.WallNS += p.WallNS
		for _, s := range p.Steps {
			if s.GapNS > 0 {
				a.StallNS[s.Cause] += s.GapNS
			}
		}
	}
	return a
}

// iterationWindows returns the iteration bracket events, synthesizing
// one covering every leaf when the timeline has no iteration scope (a
// bare schedule or a single traced pass).
func (a *Analysis) iterationWindows(t *Timeline, leaves []TEvent) []TEvent {
	var iters []TEvent
	for _, e := range t.Events {
		if e.Cat == "iteration" {
			iters = append(iters, e)
		}
	}
	if len(iters) > 0 || len(leaves) == 0 {
		return iters
	}
	lo, hi := leaves[0].StartNS, int64(0)
	for _, e := range leaves {
		if e.StartNS < lo {
			lo = e.StartNS
		}
		if e.End() > hi {
			hi = e.End()
		}
	}
	return []TEvent{{Name: "iteration", Cat: "iteration", StartNS: lo, DurNS: hi - lo}}
}

// criticalPath backtracks from the latest-finishing leaf inside the
// iteration window through latest-ending available predecessors (the
// binding constraint at each step: nothing that finished later could
// have been waited on). On a serial measured timeline every clock
// advancement is a leaf, so the chain tiles the window and coverage is
// 1.0; on overlapped modeled schedules the chain is the longest
// dependency path, with idle gaps classified by the stall taxonomy.
func criticalPath(it TEvent, leaves, faults []TEvent) IterationPath {
	p := IterationPath{Span: it.Span, WallNS: it.DurNS}
	// Leaves inside the window, in canonical order.
	var in []TEvent
	for _, e := range leaves {
		if e.StartNS >= it.StartNS && e.End() <= it.End() {
			in = append(in, e)
		}
	}
	if len(in) == 0 {
		return p
	}
	// Start from the first leaf (in canonical order) with the maximum
	// end time.
	cur := 0
	for i := 1; i < len(in); i++ {
		if in[i].End() > in[cur].End() {
			cur = i
		}
	}
	var rev []PathStep
	for {
		e := in[cur]
		rev = append(rev, PathStep{
			Span: e.Span, Name: e.Name, Track: e.Track,
			StartNS: e.StartNS, DurNS: e.DurNS,
		})
		p.PathNS += e.DurNS
		// Latest-ending predecessor that completed before e started;
		// candidates are restricted to earlier canonical positions so
		// zero-duration spans cannot cycle.
		pred := -1
		for j := 0; j < cur; j++ {
			if in[j].End() <= e.StartNS && (pred < 0 || in[j].End() >= in[pred].End()) {
				pred = j
			}
		}
		if pred < 0 {
			if gap := e.StartNS - it.StartNS; gap > 0 && it.Span != 0 {
				rev[len(rev)-1].GapNS = gap
				rev[len(rev)-1].Cause = classifyGap(TEvent{}, e, faults)
			}
			break
		}
		if gap := e.StartNS - in[pred].End(); gap > 0 {
			rev[len(rev)-1].GapNS = gap
			rev[len(rev)-1].Cause = classifyGap(in[pred], e, faults)
		}
		cur = pred
	}
	for i := len(rev) - 1; i >= 0; i-- {
		p.Steps = append(p.Steps, rev[i])
	}
	if p.WallNS > 0 {
		covered := p.PathNS
		for _, s := range p.Steps {
			covered += s.GapNS
		}
		p.Coverage = float64(covered) / float64(p.WallNS)
	}
	return p
}

// classifyGap attributes one idle gap before cur: explicit fault
// evidence, else other.
func classifyGap(pred, cur TEvent, faults []TEvent) string {
	gapStart, gapEnd := pred.End(), cur.StartNS
	for _, f := range faults {
		if f.StartNS < gapEnd && f.End() > gapStart {
			if strings.Contains(f.Name, "-> floor") {
				return CauseSerialFallback
			}
			return CauseWorkspaceWait
		}
	}
	return CauseOther
}

// causes lists the causes with attributed stall time, sorted.
func (a *Analysis) causes() []string {
	out := make([]string, 0, len(a.StallNS))
	for c := range a.StallNS {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Metrics publishes the analysis onto an obs registry:
// ucudnn_stall_seconds_total by cause and ucudnn_critical_path_seconds.
func (a *Analysis) Metrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, c := range a.causes() {
		reg.FloatCounter(MetricStallSeconds, obs.L("cause", c)).Add(float64(a.StallNS[c]) / 1e9)
	}
	reg.Gauge(MetricCriticalPath).Set(float64(a.CriticalPathNS) / 1e9)
}

// WriteTable renders the analysis for terminals: per-iteration critical
// paths and the per-cause stall totals.
func (a *Analysis) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "critical path: %.6fs over %d iteration(s), wall %.6fs\n",
		float64(a.CriticalPathNS)/1e9, len(a.Iterations), float64(a.WallNS)/1e9)
	for i, it := range a.Iterations {
		fmt.Fprintf(w, "  iteration %d: path %.6fs / wall %.6fs (coverage %.1f%%), %d steps\n",
			i, float64(it.PathNS)/1e9, float64(it.WallNS)/1e9, it.Coverage*100, len(it.Steps))
	}
	for i, c := range a.causes() {
		if i == 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "stall[%s] = %.6fs\n", c, float64(a.StallNS[c])/1e9)
	}
}
