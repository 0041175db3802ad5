package blas

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ucudnn/internal/prof"
)

// The one parallelism policy of the kernels: every fork in blas, conv
// and dnn takes its width from MaxWorkers, and a product too small to
// repay a launch runs on the calling goroutine (AutoWorkers). Fork is
// the one launcher of the module.

// maxWorkers is the configured cap on kernel workers; 0 means "track
// runtime.GOMAXPROCS".
var maxWorkers atomic.Int32

// WorkerCap bounds the worker cap: MaxWorkers never exceeds it, so a
// launch at the cap wakes at most WorkerCap-1 parked workers, and each
// concurrent launch adds at most that many to the parked stack.
const WorkerCap = 256

// parallelThreshold is the minimum number of multiply-adds below which
// the automatic width is one worker: waking workers for tiny products
// costs more than the arithmetic.
const parallelThreshold = 1 << 16

// MaxWorkers returns the kernel worker cap: the value set by
// SetMaxWorkers, or GOMAXPROCS when unset, and never more than
// WorkerCap.
func MaxWorkers() int {
	n := int(maxWorkers.Load())
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, WorkerCap)
}

// SetMaxWorkers caps kernel parallelism and returns the previous cap
// (0 = automatic). n <= 0 restores the automatic GOMAXPROCS-tracking
// default. Callers that share a machine can bound every kernel fork
// without touching GOMAXPROCS.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkers.Swap(int32(min(n, WorkerCap))))
}

// AutoWorkers is the automatic width of a product of macs multiply-adds:
// the cap, or one worker below parallelThreshold.
func AutoWorkers(macs int64) int {
	if macs < parallelThreshold {
		return 1
	}
	return MaxWorkers()
}

// A worker parks on its own channel between the ranges a launcher sets
// and wakes it for. It records how long its range took (its busy time,
// 0 with profiling off) for the launcher to read after done, and drops
// the body before it reports done, so a parked worker keeps nothing of a
// layer or a kernel reachable. Both channels hold one signal: a worker
// done before its launcher waits parks at once, rather than blocking
// until the launcher takes it.
type worker struct {
	wake, done chan struct{}
	f          func(w, lo, hi int)
	w, lo, hi  int
	busy       int64   // ns, written before done
	next       *worker // in the idle stack, or in the crew of a launch
}

func (k *worker) park() {
	for range k.wake {
		bs := prof.Enter()
		k.f(k.w, k.lo, k.hi)
		k.busy = prof.Since(bs)
		k.f = nil
		k.done <- struct{}{}
	}
}

// idle is the stack of parked workers. A launch pops its crew and pushes
// it back when done, so concurrent launches hold disjoint workers, and
// the stack never holds more workers than launches have used at once.
// Workers live as long as the process; nothing stops them.
var idle struct {
	sync.Mutex
	top *worker
}

// hire pops m parked workers, starting new ones when the stack runs out.
func hire(m int) (crew *worker) {
	idle.Lock()
	for ; m > 0 && idle.top != nil; m-- {
		k := idle.top
		idle.top, k.next = k.next, crew
		crew = k
	}
	idle.Unlock()
	for ; m > 0; m-- {
		k := &worker{wake: make(chan struct{}, 1), done: make(chan struct{}, 1), next: crew}
		go k.park()
		crew = k
	}
	return crew
}

// Fork is the module's one launcher: it splits [0, n) into contiguous
// ranges of ceil(n/workers) items and runs f(w, lo, hi) for each, worker
// 0 inline on the calling goroutine and the others on parked workers.
// Only workers that get work wake, so no range is empty when n > 0 and
// no launch counts an idle worker. Workers share nothing mutable beyond
// the disjoint regions f writes. A launch allocates nothing itself, but
// f escapes: a caller that must not allocate builds f once, or keeps its
// own serial branch and calls Fork only with more than one worker.
//
// Every launch accounts its own crew to the profiler: the launcher times
// worker 0 inline, sums the busy windows its workers report with done,
// and closes with the launch's wall time, busy sum and largest busy
// window, from which load imbalance is derived. Launches on concurrent
// callers therefore overlap without reading each other's workers. A
// phase f times is one window per worker chunk: on the serial path that
// window is wall time, inside a launch that worker's occupancy. A launch
// never nests: an SGEMM called inside f runs on that worker
// (SgemmWorkers(1, ...)) and records its own phase windows.
func Fork(workers, n int, f func(w, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	launched := (n + chunk - 1) / chunk
	ls := prof.Enter()
	crew := hire(launched - 1)
	w := 1
	for k := crew; k != nil; k = k.next {
		k.f, k.w, k.lo, k.hi = f, w, w*chunk, min((w+1)*chunk, n)
		k.wake <- struct{}{}
		w++
	}
	bs := prof.Enter()
	f(0, 0, chunk)
	busy := prof.Since(bs)
	maxBusy := busy
	last := crew
	for k := crew; k != nil; k = k.next {
		<-k.done
		busy += k.busy
		maxBusy = max(maxBusy, k.busy)
		last = k
	}
	idle.Lock()
	last.next, idle.top = idle.top, crew
	idle.Unlock()
	prof.LaunchEnd(launched, ls, busy, maxBusy)
}
