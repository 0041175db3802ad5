package conv

import "ucudnn/internal/blas"

// This file is the kernel execution engine's batch striping. The
// worker-count policy (the cap and the small-product rule) and the one
// launcher the algorithm kernels fork through (blas.Fork) are blas's.
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
