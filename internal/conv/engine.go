package conv

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ucudnn/internal/prof"
)

// This file is the kernel execution engine: worker-count policy, batch
// striping, and the worker-indexed parallel runners the algorithm kernels
// are built on.
//
// The engine's contract has three parts:
//
//  1. Workspace(op, algo, cs) reports the scratch needed for *full*
//     parallelism: P = min(MaxWorkers, N) disjoint workspace strips for
//     the batch-striped algorithms (GEMM), plus per-worker scratch arenas
//     for the tile-parallel ones (Winograd). Optimizers therefore see the
//     real time-vs-workspace tradeoff of parallel execution.
//  2. MinWorkspace(op, algo, cs) is the single-strip floor. Run accepts
//     any workspace >= MinWorkspace and uses however many strips fit,
//     degrading to the serial single-strip path (with the inner SGEMM
//     re-parallelized) when only one fits.
//  3. Results are bit-identical at every worker count: striping only
//     redistributes *who* computes each sample/tile, never the per-element
//     operation order (see the BackwardFilter reduction in gemm.go).

// engineWorkers is the configured cap on kernel workers; 0 means "track
// runtime.GOMAXPROCS".
var engineWorkers atomic.Int32

// MaxWorkers returns the kernel engine's worker cap: the value set by
// SetMaxWorkers, or GOMAXPROCS when unset.
//
//ucudnn:hotpath
func MaxWorkers() int {
	if n := int(engineWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxWorkers caps the engine's parallelism (and with it the striped
// workspace sizes reported by Workspace) and returns the previous cap
// (0 = automatic). n <= 0 restores the automatic GOMAXPROCS-tracking
// default. Tests pin it for deterministic workspace accounting; callers
// that share a machine can bound kernel parallelism without touching
// GOMAXPROCS.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(engineWorkers.Swap(int32(n)))
}

// batchStripes returns the stripe count the workspace contract assumes
// for a batch of n samples: one strip per worker, never more than the
// samples available.
//
//ucudnn:hotpath
func batchStripes(n int) int {
	s := MaxWorkers()
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// fitStripes bounds want stripes by how many whole strips of stripElems
// float32s fit in a workspace of have float32s (at least one: Run has
// already validated the MinWorkspace floor).
//
//ucudnn:hotpath
func fitStripes(want int, have, stripElems int) int {
	if stripElems <= 0 {
		return want
	}
	fit := have / stripElems
	if fit < 1 {
		fit = 1
	}
	if want > fit {
		want = fit
	}
	return want
}

// stripedRun executes f(w) for w in [0, workers), worker 0 inline on the
// calling goroutine. It is the engine's fork-join primitive: each worker
// owns a disjoint workspace strip, so there is no shared mutable state
// beyond the output tensors' disjoint regions. Every parallel launch is
// accounted by the profiler: per-worker busy windows plus the launch's
// wall time, from which stripe load imbalance is derived.
func stripedRun(workers int, f func(w int)) {
	if workers <= 1 {
		f(0)
		return
	}
	ls := prof.LaunchStart()
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			bs := prof.WorkerStart()
			f(w)
			prof.WorkerEnd(w, bs)
		}(w)
	}
	bs := prof.WorkerStart()
	f(0)
	prof.WorkerEnd(0, bs)
	wg.Wait()
	prof.LaunchEnd(workers, ls)
}

// chunkBounds splits n items into chunks of ceil(n/workers) and returns
// the [lo, hi) range owned by worker w.
//
//ucudnn:hotpath
func chunkBounds(n, workers, w int) (int, int) {
	chunk := (n + workers - 1) / workers
	lo := w * chunk
	hi := lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// parallelForW runs f(w, i) for i in [0, n) across at most `workers`
// workers in contiguous deterministic chunks, passing each invocation the
// index of the worker (and therefore of its scratch arena). The serial
// case calls f inline so steady-state execution allocates nothing.
func parallelForW(workers, n int, f func(w, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	stripedRun(workers, func(w int) {
		lo, hi := chunkBounds(n, workers, w)
		for i := lo; i < hi; i++ {
			f(w, i)
		}
	})
}

// phaseForW is parallelForW with each worker's chunk timed as one
// window of phase ph. Timing is chunk-level by design: two clock
// readings per worker per stage, independent of how many tiles the
// chunk covers, so profiling overhead stays negligible against the
// chunk's own work. On the serial path the single window is wall time;
// inside a parallel launch each window is that worker's occupancy —
// exactly the halves the profiler's measured-time denominator is built
// from.
func phaseForW(ph prof.Kind, workers, n int, f func(w, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		t := prof.Enter()
		for i := 0; i < n; i++ {
			f(0, i)
		}
		prof.Exit(ph, t)
		return
	}
	stripedRun(workers, func(w int) {
		lo, hi := chunkBounds(n, workers, w)
		t := prof.Enter()
		for i := lo; i < hi; i++ {
			f(w, i)
		}
		prof.Exit(ph, t)
	})
}
