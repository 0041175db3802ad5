package core

import (
	"ucudnn/internal/cudnn"
	"ucudnn/internal/obs"
)

// Bencher measures (or, with the model backend, predicts) per-algorithm
// kernel performance for the optimizers, with caching. Benchmarking is
// serial: µ-cuDNN spreads micro-benchmarks over several GPUs, but on one
// host concurrent timings would contend for the same cores and skew one
// another (see DESIGN.md's substitutions).
type Bencher struct {
	h     *cudnn.Handle
	cache *Cache
	m     *metricSet
}

// NewBencher builds a bencher over the given cuDNN handle.
func NewBencher(h *cudnn.Handle, cache *Cache) *Bencher {
	if cache == nil {
		cache, _ = NewCache("", nil)
	}
	return &Bencher{h: h, cache: cache, m: newMetricSet(nil)}
}

// SetMetrics mirrors the bencher's (and its cache's) activity, plus the
// optimizer runs driven through it, into registry r. Pass before
// optimizing; a nil r restores the no-op default.
func (b *Bencher) SetMetrics(r *obs.Registry) {
	b.m = newMetricSet(r)
	b.cache.instrument(b.m)
}

// Perfs returns the per-algorithm results for kernel k, fastest first,
// consulting the cache.
func (b *Bencher) Perfs(k Kernel) []cudnn.AlgoPerf {
	key := newCacheKey(b.h.Device().Name, b.h.Backend(), k.Op, k.Shape)
	if p, ok := b.cache.lookup(key); ok {
		return p
	}
	p := b.h.AlgoPerfs(k.Op, k.Shape)
	b.m.benchKernels.Inc()
	_ = b.cache.store(key, p)
	return p
}

// PerfsForSizes benchmarks kernel k at each micro-batch size, in the
// order given, so a file cache records them in a deterministic order.
func (b *Bencher) PerfsForSizes(k Kernel, sizes []int) map[int][]cudnn.AlgoPerf {
	out := make(map[int][]cudnn.AlgoPerf, len(sizes))
	for _, n := range sizes {
		out[n] = b.Perfs(Kernel{Op: k.Op, Shape: k.Shape.WithN(n)})
	}
	return out
}
