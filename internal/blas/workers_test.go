package blas

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ucudnn/internal/prof"
)

// Fork hands every index of [0, n) to exactly one worker, worker w the
// range [w*chunk, (w+1)*chunk) of chunk = ceil(n/workers) clipped to n
// (the partition the layers' and kernels' bits are pinned to), and wakes
// only workers that get work: no worker sees an empty range when n > 0
// (an empty one would count as an idle worker in the launch's
// accounting).
func TestForkCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5, 6, 100} {
		for workers := 1; workers <= 5; workers++ {
			hits := make([]int32, n)
			var empty, misplaced atomic.Int32
			var seen [5]atomic.Int32
			chunk := (n + workers - 1) / workers
			Fork(workers, n, func(w, lo, hi int) {
				if n > 0 && lo == hi {
					empty.Add(1)
				}
				if n > 0 && (lo != w*chunk || hi != min((w+1)*chunk, n)) {
					misplaced.Add(1)
				}
				seen[w].Add(1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
			if e := empty.Load(); e != 0 {
				t.Errorf("n=%d workers=%d: %d workers got an empty range", n, workers, e)
			}
			if m := misplaced.Load(); m != 0 {
				t.Errorf("n=%d workers=%d: %d workers got a range off the ceil(n/workers) partition", n, workers, m)
			}
			for w := range seen {
				if s := seen[w].Load(); s > 1 {
					t.Errorf("n=%d workers=%d: worker %d ran %d times", n, workers, w, s)
				}
			}
		}
	}
}

// parked counts the idle workers, and those of them that still hold a
// body.
func parked() (n, holding int) {
	idle.Lock()
	defer idle.Unlock()
	for k := idle.top; k != nil; k = k.next {
		n++
		if k.f != nil {
			holding++
		}
	}
	return n, holding
}

// Two goroutines fork at once, each over its own buffer: every index is
// hit exactly once per call, the launches draw disjoint workers (the
// race detector would see two ranges sharing a worker's fields), the
// idle stack grows no further than the demand of both callers at once,
// and no parked worker keeps a body.
func TestForkConcurrentCallers(t *testing.T) {
	before, _ := parked()
	widths := []int{2, 3}
	var wg sync.WaitGroup
	errs := make([]string, len(widths))
	for i, width := range widths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits := make([]int32, 100)
			for call := 0; call < 200; call++ {
				n := width + call%len(hits[width:])
				Fork(width, n, func(_, lo, hi int) {
					for j := lo; j < hi; j++ {
						hits[j]++
					}
				})
				for j, h := range hits[:n] {
					if h != 1 {
						errs[i] = fmt.Sprintf("width %d, call %d (n=%d): index %d hit %d times", width, call, n, j, h)
						return
					}
					hits[j] = 0
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
	demand := 0
	for _, width := range widths {
		demand += width - 1 // the calling goroutine runs worker 0
	}
	n, holding := parked()
	if n > max(before, demand) {
		t.Errorf("%d workers parked after two callers needing %d at once (%d before)", n, demand, before)
	}
	if holding != 0 {
		t.Errorf("%d parked workers still hold a body", holding)
	}
}

// Two launches on two goroutines each account only their own crew. The
// schedule is forced with handshakes: launch A's worker 1 finishes while
// A's inline worker 0 waits, launch B runs start to end in that gap, and
// then A is released. Had B taken A's worker 1 into its own figures, A
// would read as one worker doing all the work: imbalance exactly 2.
func TestOverlappingLaunchesAccountOwnCrews(t *testing.T) {
	Fork(2, 2, func(_, _, _ int) {}) // leaves a parked worker for A to hire
	idle.Lock()
	a1 := idle.top
	idle.Unlock()
	prof.Reset()
	prof.Enable()
	defer func() {
		prof.Disable()
		prof.Reset()
	}()

	a0In, release, aDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(aDone)
		Fork(2, 2, func(w, _, _ int) {
			if w == 0 {
				close(a0In)
				<-release
			} else {
				<-a0In // both of A's workers are in flight
			}
		})
	}()
	// a1 reports done only after it has closed its busy window.
	for len(a1.done) == 0 {
		runtime.Gosched()
	}
	Fork(2, 2, func(_, _, _ int) {})
	close(release)
	<-aDone

	rows := prof.Snapshot()
	if len(rows) != 1 || rows[0].Workers.Launches != 2 {
		t.Fatalf("rows = %+v, want one row with the two launches", rows)
	}
	w := rows[0].Workers
	if w.MaxImbalance >= 2 {
		t.Errorf("max imbalance %v: a launch lost its worker 1's busy time to the other (%+v)", w.MaxImbalance, w)
	}
	if w.IdleNS < 0 {
		t.Errorf("idle %d ns: a launch counted more busy time than its workers had wall time (%+v)", w.IdleNS, w)
	}
}

// The cap never exceeds WorkerCap, whatever is asked for.
func TestMaxWorkersBoundedBySlots(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1000))
	if got := MaxWorkers(); got != WorkerCap {
		t.Fatalf("SetMaxWorkers(1000): MaxWorkers() = %d, want %d", got, WorkerCap)
	}
}

// BenchmarkForkEmpty times one launch on two workers of a body built
// once and doing nothing: the launcher's own cost (wake one parked
// worker, run inline, wait). Run it at -cpu 2.
func BenchmarkForkEmpty(b *testing.B) {
	body := func(_, _, _ int) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fork(2, 2, body)
	}
}
