package core

import (
	"sync/atomic"

	"ucudnn/internal/conv"
	"ucudnn/internal/obs"
)

// Metric names exported by the µ-cuDNN core. They are documented in
// README.md ("Observability"); renaming one is a breaking change for
// dashboards scraping the Prometheus exposition.
const (
	MetricAlgoSelected     = "ucudnn_algo_selected_total"
	MetricMicrobatchCount  = "ucudnn_microbatch_count"
	MetricWSRequested      = "ucudnn_workspace_requested_bytes_total"
	MetricWSGranted        = "ucudnn_workspace_granted_bytes_total"
	MetricCacheHits        = "ucudnn_cache_hits_total"
	MetricCacheMisses      = "ucudnn_cache_misses_total"
	MetricCacheFileLoads   = "ucudnn_cache_file_loads_total"
	MetricCacheFileStores  = "ucudnn_cache_file_stores_total"
	MetricCacheEntries     = "ucudnn_cache_entries"
	MetricCacheCorrupt     = "ucudnn_cache_corrupt_lines_total"
	MetricFallback         = "ucudnn_fallback_total"
	MetricDegradedPlans    = "ucudnn_fault_degraded_plans"
	MetricBenchKernels     = "ucudnn_bench_kernels_total"
	MetricWRSeconds        = "ucudnn_opt_wr_seconds"
	MetricWRDPStates       = "ucudnn_opt_wr_dp_states_total"
	MetricDesirableSeconds = "ucudnn_opt_desirable_seconds"
	MetricDesirableStates  = "ucudnn_opt_desirable_dp_states_total"
	MetricDesirableFront   = "ucudnn_opt_desirable_front_size"
	MetricWDSeconds        = "ucudnn_opt_wd_seconds"
	MetricWDSolveSeconds   = "ucudnn_ilp_solve_seconds"
	MetricILPVariables     = "ucudnn_ilp_variables"
	MetricILPNodes         = "ucudnn_ilp_nodes_total"
	MetricSimplexIters     = "ucudnn_lp_simplex_iterations_total"
	MetricWDWorkspace      = "ucudnn_wd_total_workspace_bytes"
	MetricWDPredicted      = "ucudnn_wd_predicted_time_seconds"
)

// metricSet holds pre-resolved handles into an obs.Registry for the hot
// and warm paths of the core. A set built over a nil registry has only
// nil handles, whose operations are no-ops — instrumented code never
// branches on whether observability is enabled (the ISSUE's "nil-safe
// no-op default").
type metricSet struct {
	reg *obs.Registry

	microbatchCount *obs.Histogram
	wsRequested     *obs.Counter
	wsGranted       *obs.Counter

	cacheHits         *obs.Counter
	cacheMisses       *obs.Counter
	cacheFileLoads    *obs.Counter
	cacheFileStores   *obs.Counter
	cacheEntries      *obs.Gauge
	cacheCorruptLines *obs.Counter

	degradedPlans *obs.Gauge

	benchKernels *obs.Counter

	wrSeconds        *obs.Histogram
	wrDPStates       *obs.Counter
	desirableSeconds *obs.Histogram
	desirableStates  *obs.Counter
	desirableFront   *obs.Histogram
	wdSeconds        *obs.Histogram
	wdSolveSeconds   *obs.Histogram
	ilpVariables     *obs.Gauge
	ilpNodes         *obs.Counter
	simplexIters     *obs.Counter
	wdWorkspace      *obs.Gauge
	wdPredicted      *obs.Gauge

	// algoSeries holds the labeled ucudnn_algo_selected_total series
	// of each (op, algo), resolved on its first selection, so a series
	// appears only once counted.
	algoSeries [conv.NumOps][conv.NumAlgos]atomic.Pointer[obs.Counter]
}

// newMetricSet resolves the core's metric handles in r. A nil r yields a
// set of nil handles (all operations no-ops).
func newMetricSet(r *obs.Registry) *metricSet {
	ms := &metricSet{reg: r}
	if r == nil {
		return ms
	}
	ms.microbatchCount = r.Histogram(MetricMicrobatchCount, obs.CountBuckets)
	ms.wsRequested = r.Counter(MetricWSRequested)
	ms.wsGranted = r.Counter(MetricWSGranted)
	ms.cacheHits = r.Counter(MetricCacheHits)
	ms.cacheMisses = r.Counter(MetricCacheMisses)
	ms.cacheFileLoads = r.Counter(MetricCacheFileLoads)
	ms.cacheFileStores = r.Counter(MetricCacheFileStores)
	ms.cacheEntries = r.Gauge(MetricCacheEntries)
	ms.cacheCorruptLines = r.Counter(MetricCacheCorrupt)
	ms.degradedPlans = r.Gauge(MetricDegradedPlans)
	ms.benchKernels = r.Counter(MetricBenchKernels)
	ms.wrSeconds = r.Histogram(MetricWRSeconds, obs.DurationBuckets)
	ms.wrDPStates = r.Counter(MetricWRDPStates)
	ms.desirableSeconds = r.Histogram(MetricDesirableSeconds, obs.DurationBuckets)
	ms.desirableStates = r.Counter(MetricDesirableStates)
	ms.desirableFront = r.Histogram(MetricDesirableFront, obs.CountBuckets)
	ms.wdSeconds = r.Histogram(MetricWDSeconds, obs.DurationBuckets)
	ms.wdSolveSeconds = r.Histogram(MetricWDSolveSeconds, obs.DurationBuckets)
	ms.ilpVariables = r.Gauge(MetricILPVariables)
	ms.ilpNodes = r.Counter(MetricILPNodes)
	ms.simplexIters = r.Counter(MetricSimplexIters)
	ms.wdWorkspace = r.Gauge(MetricWDWorkspace)
	ms.wdPredicted = r.Gauge(MetricWDPredicted)
	return ms
}

// algoSelected counts one micro-batch kernel execution of algo for op.
// Only the first selection of a pair builds its labels.
func (ms *metricSet) algoSelected(op conv.Op, algo conv.Algo) {
	if ms.reg == nil {
		return
	}
	slot := &ms.algoSeries[op][algo]
	c := slot.Load()
	if c == nil {
		c = ms.reg.Counter(MetricAlgoSelected, obs.L("op", op.String()), obs.L("algo", algo.String()))
		slot.Store(c)
	}
	c.Inc()
}

// fallback counts one successful degradation, labeled with the ladder
// stage that recovered execution (pareto, finer, floor).
func (ms *metricSet) fallback(stage string) {
	if ms.reg == nil {
		return
	}
	ms.reg.Counter(MetricFallback, obs.L("stage", stage)).Inc()
}
