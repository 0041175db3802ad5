package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/obs"
	"ucudnn/internal/tensor"
)

// TestWDPopulatesOptimizerMetrics runs a ucudnn-optimize-equivalent WD
// pass and checks the §IV-B cost metrics land in the registry: optimizer
// wall-clock, DP state counts, ILP variable/node counts, LP hull steps
// (the solver's equivalent of simplex pivots, under the counter's old name).
func TestWDPopulatesOptimizerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	b := modelBencher()
	b.SetMetrics(reg)
	kernels := []Kernel{
		{Op: conv.Forward, Shape: conv2Shape(64)},
		{Op: conv.Forward, Shape: conv2Shape(64)}, // duplicate: exercises grouping
		{Op: conv.BackwardFilter, Shape: conv2Shape(64)},
	}
	res, err := OptimizeWD(b, kernels, 256<<20, PolicyPowerOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Histogram(MetricWDSeconds, obs.DurationBuckets).Count() != 1 {
		t.Fatal("WD wall-clock not observed")
	}
	if reg.Histogram(MetricDesirableSeconds, obs.DurationBuckets).Count() != 2 {
		t.Fatal("want one desirable-set timing per unique kernel")
	}
	if reg.Counter(MetricDesirableStates).Value() <= 0 {
		t.Fatal("desirable DP states not counted")
	}
	if got := reg.Gauge(MetricILPVariables).Value(); got != float64(res.ILPVars) {
		t.Fatalf("ILP variables gauge = %v, want %d", got, res.ILPVars)
	}
	if got := reg.Counter(MetricILPNodes).Value(); got != int64(res.ILPNodes) {
		t.Fatalf("ILP nodes counter = %d, want %d", got, res.ILPNodes)
	}
	if got := reg.Counter(MetricSimplexIters).Value(); got != int64(res.SimplexIters) || got <= 0 {
		t.Fatalf("LP hull steps counter = %d, want %d > 0", got, res.SimplexIters)
	}
	if reg.Histogram(MetricWDSolveSeconds, obs.DurationBuckets).Count() != 1 {
		t.Fatal("ILP solve time not observed")
	}
	if got := reg.Gauge(MetricWDWorkspace).Value(); got != float64(res.TotalWorkspace) {
		t.Fatalf("WD workspace gauge = %v, want %d", got, res.TotalWorkspace)
	}
	if reg.Counter(MetricCacheMisses).Value() <= 0 {
		t.Fatal("cache misses not counted")
	}
	// Second identical run is fully cached.
	misses := reg.Counter(MetricCacheMisses).Value()
	if _, err := OptimizeWD(b, kernels, 256<<20, PolicyPowerOfTwo); err != nil {
		t.Fatal(err)
	}
	if reg.Counter(MetricCacheMisses).Value() != misses {
		t.Fatal("second WD run must hit the cache")
	}
	if reg.Counter(MetricCacheHits).Value() <= 0 {
		t.Fatal("cache hits not counted")
	}
}

// TestWRPopulatesMetrics checks the WR DP reports its timing and state
// count.
func TestWRPopulatesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	b := modelBencher()
	b.SetMetrics(reg)
	if _, err := OptimizeWR(b, Kernel{Op: conv.Forward, Shape: conv2Shape(64)}, 64<<20, PolicyPowerOfTwo); err != nil {
		t.Fatal(err)
	}
	if reg.Histogram(MetricWRSeconds, obs.DurationBuckets).Count() != 1 {
		t.Fatal("WR wall-clock not observed")
	}
	if reg.Counter(MetricWRDPStates).Value() <= 0 {
		t.Fatal("WR DP states not counted")
	}
	if reg.Counter(MetricBenchKernels).Value() <= 0 {
		t.Fatal("benchmarked kernels not counted")
	}
}

// TestCacheStats covers the cache's counts in the registry: hits,
// misses, file traffic, entry count — including replay of loads that
// happened before instrumentation.
func TestCacheStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	c, err := NewCache(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.instrument(newMetricSet(reg))
	h := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	key := CacheKey(h.Device().Name, h.Backend(), conv.Forward, conv2Shape(8))
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache must miss")
	}
	if err := c.Put(key, h.AlgoPerfs(conv.Forward, conv2Shape(8))); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("stored entry must hit")
	}
	hits, misses := reg.Counter(MetricCacheHits).Value(), reg.Counter(MetricCacheMisses).Value()
	stores, entries := reg.Counter(MetricCacheFileStores).Value(), reg.Gauge(MetricCacheEntries).Value()
	if hits != 1 || misses != 1 || stores != 1 || entries != 1 {
		t.Fatalf("hits %d, misses %d, file stores %d, entries %v; want 1 each", hits, misses, stores, entries)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the file load happens before metrics attach; instrument must
	// replay it into the registry.
	c2, err := NewCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	reg = obs.NewRegistry()
	b := NewBencher(cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend), c2)
	b.SetMetrics(reg)
	if reg.Counter(MetricCacheFileLoads).Value() != 1 {
		t.Fatal("file loads not replayed into registry")
	}
	if reg.Gauge(MetricCacheEntries).Value() != 1 {
		t.Fatal("entry gauge not replayed")
	}
}

// TestHandleMetricsExport checks the export path of an integration that
// owns its registry: the handle records into it, and the registry's
// WriteFile writes a summary containing the selection and workspace
// series.
func TestHandleMetricsExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.txt")
	reg := obs.NewRegistry()
	h := newTestHandle(t, cudnn.ModelBackend, WithMetrics(reg), WithWorkspaceLimit(1<<20))
	if h.Metrics() != reg {
		t.Fatal("the handle must record into the registry it was given")
	}
	xd, wd, cd, yd, cs := smallConv(16)
	rng := rand.New(rand.NewSource(7))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	w := tensor.NewFilter(12, 8, 3, 3)
	w.Randomize(rng, 0.5)
	y := tensor.NewShaped(cs.OutShape())
	algo, _ := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, 1<<20)
	if err := h.ConvolutionForward(1, xd, x, wd, w, cd, algo, nil, 0, yd, y); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{MetricAlgoSelected, MetricMicrobatchCount, MetricWSGranted} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("exported metrics lack %s:\n%s", want, data)
		}
	}
}
