package blas

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ucudnn/internal/prof"
)

// The one parallelism policy of the kernels: every fork in blas, conv
// and dnn takes its width from MaxWorkers, and a product too small to
// repay a goroutine runs on the calling one (AutoWorkers). Fork is the
// one launcher of blas and conv.

// maxWorkers is the configured cap on kernel workers; 0 means "track
// runtime.GOMAXPROCS".
var maxWorkers atomic.Int32

// parallelThreshold is the minimum number of multiply-adds below which
// the automatic width is one worker: spawning goroutines for tiny
// products costs more than the arithmetic.
const parallelThreshold = 1 << 16

// MaxWorkers returns the kernel worker cap: the value set by
// SetMaxWorkers, or GOMAXPROCS when unset.
func MaxWorkers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxWorkers caps kernel parallelism and returns the previous cap
// (0 = automatic). n <= 0 restores the automatic GOMAXPROCS-tracking
// default. Callers that share a machine can bound every kernel fork
// without touching GOMAXPROCS.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkers.Swap(int32(n)))
}

// AutoWorkers is the automatic width of a product of macs multiply-adds:
// the cap, or one worker below parallelThreshold.
func AutoWorkers(macs int64) int {
	if macs < parallelThreshold {
		return 1
	}
	return MaxWorkers()
}

// Chunk splits n items into chunks of ceil(n/workers) and returns the
// [lo, hi) range owned by worker w.
func Chunk(n, workers, w int) (lo, hi int) {
	chunk := (n + workers - 1) / workers
	return min(w*chunk, n), min((w+1)*chunk, n)
}

// Fork is the kernels' one launcher: it splits [0, n) into contiguous
// ranges of ceil(n/workers) items and runs f(w, lo, hi) for each, worker
// 0 inline on the calling goroutine. Only workers that get work start,
// so no range is empty when n > 0 and no launch counts an idle worker.
// Workers share nothing mutable beyond the disjoint regions f writes.
//
// Every launch is accounted by the profiler: per-worker busy windows
// plus the launch's wall time, from which load imbalance is derived. A
// phase f times is one window per worker chunk: on the serial path that
// window is wall time, inside a launch that worker's occupancy. A launch
// never nests: an SGEMM called inside f runs on that worker
// (SgemmWorkers(1, ...)) and records its own phase windows.
//
// The closure f escapes, so call sites that must not allocate keep their
// own serial branch and call Fork only with more than one worker.
func Fork(workers, n int, f func(w, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, 0, n)
		return
	}
	// Bound once: the goroutine closures capture chunk and launched by
	// value only while they are never reassigned (otherwise they move to
	// the heap, one more allocation per launch).
	chunk := (n + workers - 1) / workers
	launched := (n + chunk - 1) / chunk
	ls := prof.LaunchStart()
	var wg sync.WaitGroup
	wg.Add(launched - 1)
	for w := 1; w < launched; w++ {
		// A closure with no arguments: go with arguments wraps the call in
		// a second closure, one more allocation per goroutine.
		go func() {
			defer wg.Done()
			bs := prof.WorkerStart()
			f(w, w*chunk, min((w+1)*chunk, n))
			prof.WorkerEnd(w, bs)
		}()
	}
	bs := prof.WorkerStart()
	f(0, 0, chunk)
	prof.WorkerEnd(0, bs)
	wg.Wait()
	prof.LaunchEnd(launched, ls)
}
