package dnn

import (
	"sync"

	"ucudnn/internal/blas"
)

// forkGrain is the number of tensor elements below which a second worker
// costs more than it saves: the element-wise layers offer one unit of
// work per forkGrain elements.
const forkGrain = 1 << 14

// forkJoin spreads a layer pass over the kernel workers (the one cap,
// blas.MaxWorkers) without allocating: the goroutine bodies are built
// once, in Setup, and a pass only starts them — a per-call fork helper
// would allocate its closure on every pass. The layer describes the pass
// in flight in the pass fields, which the bodies read; results must not
// depend on the worker count, so every worker takes a blas.Chunk range
// of independent samples, planes or elements. A layer holds its fork by
// pointer and builds it only when the context computes, so a planning
// context pays one nil word for it.
type forkJoin struct {
	body    func(w, workers int) // worker w's share of the pass in flight
	run     []func()             // the goroutine body of every worker but the calling one
	wg      sync.WaitGroup
	workers int // of the pass in flight

	// The pass in flight: forward reads x and writes y, backward reads dy
	// (and what of x, y the layer's gradient needs) and writes dx.
	pass struct {
		backward     bool
		x, y, dy, dx []float32
	}
}

// newForkJoin sizes the fork for the parallelism available now, as the
// conv engine sizes its workspace strips: at most maxUnits workers, and a
// pass uses as many of them as the worker cap then allows.
func newForkJoin(maxUnits int, body func(w, workers int)) *forkJoin {
	f := &forkJoin{body: body}
	f.run = make([]func(), imax(1, imin(blas.MaxWorkers(), maxUnits))-1)
	for i := range f.run {
		w := i + 1
		f.run[i] = func() {
			defer f.wg.Done()
			f.body(w, f.workers)
		}
	}
	return f
}

// maxWorkers is the widest pass the fork was built for.
func (f *forkJoin) maxWorkers() int { return len(f.run) + 1 }

// forward and backward run body(w, workers) for every worker of a pass
// with units units of work, worker 0 on the calling goroutine.
func (f *forkJoin) forward(units int, x, y []float32) {
	f.pass.backward = false
	f.pass.x, f.pass.y = x, y
	f.do(units)
}

func (f *forkJoin) backward(units int, x, y, dy, dx []float32) {
	f.pass.backward = true
	f.pass.x, f.pass.y, f.pass.dy, f.pass.dx = x, y, dy, dx
	f.do(units)
}

func (f *forkJoin) do(units int) {
	f.workers = imax(1, imin(imin(blas.MaxWorkers(), f.maxWorkers()), units))
	f.wg.Add(f.workers - 1)
	for w := 1; w < f.workers; w++ {
		go f.run[w-1]()
	}
	f.body(0, f.workers)
	f.wg.Wait()
}
