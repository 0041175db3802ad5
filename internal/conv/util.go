package conv

import "ucudnn/internal/prof"

// parallelFor runs f(i) for i in [0, n) across at most MaxWorkers workers
// in contiguous chunks. Chunk ownership is deterministic, so kernels that
// write disjoint regions per index stay reproducible.
func parallelFor(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	workers := MaxWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	stripedRun(workers, func(w int) {
		lo, hi := chunkBounds(n, workers, w)
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// phaseFor is parallelFor with each worker's chunk timed as one window
// of phase ph (see phaseForW for the accounting rationale).
func phaseFor(ph prof.Kind, n int, f func(i int)) {
	if n <= 0 {
		return
	}
	workers := MaxWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		t := prof.Enter()
		for i := 0; i < n; i++ {
			f(i)
		}
		prof.Exit(ph, t)
		return
	}
	stripedRun(workers, func(w int) {
		lo, hi := chunkBounds(n, workers, w)
		t := prof.Enter()
		for i := lo; i < hi; i++ {
			f(i)
		}
		prof.Exit(ph, t)
	})
}

// blend writes out = alpha*v + beta*out for one element.
//
//ucudnn:hotpath
func blend(out *float32, v, alpha, beta float32) {
	if beta == 0 {
		*out = alpha * v
	} else {
		*out = alpha*v + beta**out
	}
}

//ucudnn:hotpath
func imin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

//ucudnn:hotpath
func imax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

//ucudnn:hotpath
func ceilDiv(a, b int) int { return (a + b - 1) / b }
