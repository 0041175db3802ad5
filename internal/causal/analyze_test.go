package causal

import (
	"math/rand"
	"testing"
	"time"

	"ucudnn/internal/trace"
)

// bruteLongest is the oracle: the maximum total duration over every
// dependency chain (e_1..e_k with e_i ending before e_{i+1} starts),
// found by exhaustive DP over the happens-before DAG. Events must be in
// start order with positive durations (which Build guarantees for
// measured timelines).
func bruteLongest(evs []TEvent) int64 {
	best := make([]int64, len(evs))
	var max int64
	for i, e := range evs {
		best[i] = e.DurNS
		for j := 0; j < i; j++ {
			if evs[j].End() <= e.StartNS && best[j]+e.DurNS > best[i] {
				best[i] = best[j] + e.DurNS
			}
		}
		if best[i] > max {
			max = best[i]
		}
	}
	return max
}

// oraclePath runs the engine over bare leaves (the analyzer synthesizes
// the iteration window) and compares PathNS to the brute-force oracle.
func oraclePath(t *testing.T, name string, evs []trace.Event) IterationPath {
	t.Helper()
	tl := Build(evs, nil)
	if err := tl.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	a := Analyze(tl)
	if len(a.Iterations) != 1 {
		t.Fatalf("%s: %d iterations, want 1", name, len(a.Iterations))
	}
	p := a.Iterations[0]
	if want := bruteLongest(tl.Events); p.PathNS != want {
		t.Fatalf("%s: engine path %d != brute-force longest chain %d", name, p.PathNS, want)
	}
	return p
}

// The critical-path engine vs the brute-force oracle on hand-built
// schedules: serial tiling, a fork-join, and a double-buffered
// three-stream layout.
func TestCriticalPathOracle(t *testing.T) {
	serial := []trace.Event{
		tev("a", "fwd", 0, 0, 5, 1, 0, 0),
		tev("b", "fwd", 0, 5, 3, 2, 0, 0),
		tev("c", "fwd", 0, 8, 12, 3, 0, 0),
	}
	p := oraclePath(t, "serial", serial)
	if p.PathNS != 20 || p.Coverage != 1.0 {
		t.Fatalf("serial tiling: path %d coverage %v, want 20 / 1.0", p.PathNS, p.Coverage)
	}

	forkJoin := []trace.Event{
		tev("long", "fwd", 0, 0, 10, 1, 0, 0),
		tev("short", "fwd", 1, 0, 4, 2, 0, 0),
		tev("join", "fwd", 0, 10, 5, 3, 0, 0),
	}
	if p := oraclePath(t, "fork-join", forkJoin); p.PathNS != 15 {
		t.Fatalf("fork-join: path %d, want 15 (long+join)", p.PathNS)
	}

	doubleBuffered := []trace.Event{
		tev("f1", "copy_in", 3, 0, 6, 1, 0, 0),
		tev("c1", "fwd", trace.TrackKernel, 6, 4, 2, 0, 0),
		tev("f2", "copy_in", 3, 6, 8, 3, 0, 0),
		tev("s1", "copy_out", 4, 10, 3, 4, 0, 0),
		tev("c2", "fwd", trace.TrackKernel, 14, 6, 5, 0, 0),
		tev("s2", "copy_out", 4, 20, 3, 6, 0, 0),
	}
	if p := oraclePath(t, "double-buffered", doubleBuffered); p.PathNS != 23 {
		t.Fatalf("double-buffered: path %d, want 23 (f1,f2,c2,s2)", p.PathNS)
	}
}

// Randomized serial tilings: the chain must cover the whole window, so
// the engine, the oracle and the plain sum must all agree.
func TestCriticalPathSerialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var evs []trace.Event
		var at, sum time.Duration
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			d := time.Duration(1 + rng.Intn(1000))
			evs = append(evs, tev("k", "fwd", 0, at, d, uint64(i+1), 0, 0))
			at += d
			sum += d
		}
		p := oraclePath(t, "serial random", evs)
		if p.PathNS != sum.Nanoseconds() {
			t.Fatalf("trial %d: path %d, want tiling sum %d", trial, p.PathNS, sum)
		}
		if p.Coverage != 1.0 {
			t.Fatalf("trial %d: coverage %v, want 1.0", trial, p.Coverage)
		}
	}
}

// Gaps on the critical path get exactly one cause from the taxonomy:
// fault evidence, else other.
func TestClassifyGap(t *testing.T) {
	faultFloor := TEvent{Name: "degrade conv -> floor", Cat: "fault", StartNS: 10, DurNS: 5}
	faultGrow := TEvent{Name: "degrade conv -> halved", Cat: "fault", StartNS: 10, DurNS: 5}
	pred := TEvent{Name: "k1", Cat: "fwd", StartNS: 0, DurNS: 10}
	cur := TEvent{Name: "k2", Cat: "fwd", StartNS: 20, DurNS: 10}
	if got := classifyGap(pred, cur, []TEvent{faultFloor}); got != CauseSerialFallback {
		t.Fatalf("floor fault gap = %q", got)
	}
	if got := classifyGap(pred, cur, []TEvent{faultGrow}); got != CauseWorkspaceWait {
		t.Fatalf("workspace fault gap = %q", got)
	}
	if got := classifyGap(pred, cur, nil); got != CauseOther {
		t.Fatalf("unexplained gap = %q", got)
	}
}
