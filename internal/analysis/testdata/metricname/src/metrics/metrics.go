// Package metrics is a metricname fixture exercising the naming scheme.
package metrics

import "obs"

var reg = obs.NewRegistry()

const convOps = "ucudnn_conv_ops_total"

func compliant() {
	reg.Counter("ucudnn_conv_runs_total", obs.L("algo", "gemm"))
	reg.Counter(convOps, obs.L("layer_kind", "conv"))
	reg.Gauge("ucudnn_workspace_bytes")
	reg.Histogram("ucudnn_kernel_seconds", []float64{0.001, 0.01, 0.1}, obs.L("algo", "fft"))
}

// compliantOOC covers the out-of-core streaming series: transfer byte
// counters, the per-stage degradation counter and working-set gauges.
func compliantOOC() {
	reg.Counter("ucudnn_ooc_fetch_bytes_total")
	reg.Counter("ucudnn_ooc_spill_bytes_total")
	reg.Counter("ucudnn_ooc_recompute_bytes_total")
	reg.Counter("ucudnn_ooc_degraded_total", obs.L("stage", "fetch"))
	reg.Gauge("ucudnn_ooc_micro_batches")
	reg.Gauge("ucudnn_ooc_peak_bytes")
}

func badNames(dyn string) {
	reg.Counter("ucudnn-conv-runs")                   // want `does not match` `must end in _total`
	reg.Counter("conv_runs_total")                    // want `does not match`
	reg.Counter("ucudnn_conv_runs")                   // want `must end in _total`
	reg.Gauge("ucudnn_queue_depth_total")             // want `must not end in _total`
	reg.Histogram("ucudnn_lat_total", nil)            // want `must not end in _total`
	reg.Counter(dyn)                                  // want `compile-time string constant`
	reg.Counter("ucudnn_d_total", obs.L(dyn, "x"))    // want `constant name`
	reg.Counter("ucudnn_c_total", obs.L("Algo", "x")) // want `must be snake_case`
}

func unstable() {
	reg.Gauge("ucudnn_depth", obs.L("queue", "a"))
	reg.Gauge("ucudnn_depth", obs.L("pool", "b"))                    // want `label sets must be stable`
	reg.Histogram("ucudnn_depth", []float64{1}, obs.L("queue", "a")) // want `one kind`
}

// accepted documents a justified exception to the scheme.
func accepted() {
	//ucudnn:allow metricname -- legacy dashboard series, renaming tracked separately
	reg.Gauge("legacy_queue_depth")
}
