package conv

import (
	"sync"

	"ucudnn/internal/blas"
	"ucudnn/internal/prof"
)

// This file is the kernel execution engine: batch striping and the
// fork-join runner the algorithm kernels are built on. The worker-count
// policy itself (the cap and the small-product rule) is blas's.
//
// The engine's contract has three parts:
//
//  1. Workspace(op, algo, cs) reports the scratch needed for *full*
//     parallelism: P = min(MaxWorkers, N) disjoint workspace strips for
//     the batch-striped algorithms (GEMM), plus per-worker scratch arenas
//     for the tile-parallel ones (Winograd). Optimizers therefore see the
//     real time-vs-workspace tradeoff of parallel execution.
//  2. MinWorkspace(op, algo, cs) is the single-strip floor. Run accepts
//     any workspace >= MinWorkspace and uses however many strips fit;
//     with one strip (or fewer samples than workers) GEMM splits each
//     sample across the workers instead, when that uses more workers
//     than striping the batch (gemmLayout).
//  3. Results are bit-identical at every worker count: striping only
//     redistributes *who* computes each sample/tile, never the per-element
//     operation order (see the BackwardFilter reduction in gemm.go).

// MaxWorkers returns the kernel worker cap (blas.MaxWorkers): the value
// set by SetMaxWorkers, or GOMAXPROCS when unset.
func MaxWorkers() int { return blas.MaxWorkers() }

// SetMaxWorkers caps kernel parallelism — every fork in blas, conv and
// dnn, and with it the striped workspace sizes reported by Workspace —
// and returns the previous cap (0 = automatic). n <= 0 restores the
// automatic GOMAXPROCS-tracking default. Tests pin it for deterministic
// workspace accounting; callers that share a machine can bound kernel
// parallelism without touching GOMAXPROCS.
func SetMaxWorkers(n int) int { return blas.SetMaxWorkers(n) }

// batchStripes returns the stripe count the workspace contract assumes
// for a batch of n samples: one strip per worker, never more than the
// samples available.
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

// fork is the engine's fork-join primitive: it splits [0, n) into one
// contiguous range per worker (at most maxWorkers of them) and runs
// f(w, lo, hi) for each, worker 0 inline on the calling goroutine. Each
// worker owns a disjoint workspace strip, so there is no shared mutable
// state beyond the output tensors' disjoint regions. Every parallel
// launch is accounted by the profiler: per-worker busy windows plus the
// launch's wall time, from which stripe load imbalance is derived. A
// phase a body times is one window per worker chunk: on the serial path
// that window is wall time, inside a launch it is that worker's
// occupancy — the halves the profiler's measured-time denominator is
// built from.
//
// The closure f escapes, so call sites that must not allocate keep their
// own serial branch and call fork only with more than one worker.
func fork(maxWorkers, n int, f func(w, lo, hi int)) {
	// Bound once: the goroutine closures capture workers by value only
	// while it is never reassigned (otherwise it moves to the heap).
	workers := imin(maxWorkers, n)
	if workers <= 1 {
		f(0, 0, n)
		return
	}
	ls := prof.LaunchStart()
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		// A closure with no arguments: go with arguments wraps the call in
		// a second closure, one more allocation per goroutine.
		go func() {
			defer wg.Done()
			bs := prof.WorkerStart()
			lo, hi := blas.Chunk(n, workers, w)
			f(w, lo, hi)
			prof.WorkerEnd(w, bs)
		}()
	}
	bs := prof.WorkerStart()
	lo, hi := blas.Chunk(n, workers, 0)
	f(0, lo, hi)
	prof.WorkerEnd(0, bs)
	wg.Wait()
	prof.LaunchEnd(workers, ls)
}
