package blas

import (
	"runtime"
	"sync/atomic"
)

// The one parallelism policy of the kernels: every fork in blas, conv
// and dnn takes its width from MaxWorkers, and a product too small to
// repay a goroutine runs on the calling one (AutoWorkers).

// maxWorkers is the configured cap on kernel workers; 0 means "track
// runtime.GOMAXPROCS".
var maxWorkers atomic.Int32

// parallelThreshold is the minimum number of multiply-adds below which
// the automatic width is one worker: spawning goroutines for tiny
// products costs more than the arithmetic.
const parallelThreshold = 1 << 16

// MaxWorkers returns the kernel worker cap: the value set by
// SetMaxWorkers, or GOMAXPROCS when unset.
//
//ucudnn:hotpath
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
//
//ucudnn:hotpath
func AutoWorkers(macs int64) int {
	if macs < parallelThreshold {
		return 1
	}
	return MaxWorkers()
}

// Chunk splits n items into chunks of ceil(n/workers) and returns the
// [lo, hi) range owned by worker w.
//
//ucudnn:hotpath
func Chunk(n, workers, w int) (lo, hi int) {
	chunk := (n + workers - 1) / workers
	return min(w*chunk, n), min((w+1)*chunk, n)
}
