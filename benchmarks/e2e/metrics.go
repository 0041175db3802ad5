package main

import "ucudnn/internal/conv"

// metricDecl declares one metric. BENCHMARK.json at the repository root
// lists the same names, units and directions (a test keeps the two in
// step); the bound and the exact flag drive -compare.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression.
	Bound float64
	// Layer is the package a per-layer metric belongs to.
	Layer string
	// Exact marks counts (and the analytical device clock) that repeat
	// exactly from run to run: any difference is a plan change, never a
	// timing verdict.
	Exact bool
}

// endToEnd are the metrics a user of the stack would see, measured with
// tracing off. Bounds come from the noise floor recorded in
// benchmarks/README.md. The failed share is carried by the result's
// attempted/failed counts; any increase is a regression.
var endToEnd = []metricDecl{
	{Name: "iter_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mib_per_iter", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced pass's metrics, by package. Times are per
// iteration (medians over the traced iterations) unless they belong to
// set-up; counts are per iteration.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	t := func(layer, name string) metricDecl {
		return metricDecl{Name: name, Unit: "ms", Better: "lower", Layer: layer}
	}
	n := func(layer, name, unit string) metricDecl {
		return metricDecl{Name: name, Unit: unit, Better: "lower", Layer: layer, Exact: true}
	}
	out := []metricDecl{
		t("dnn", "dnn.fwd_ms"), t("dnn", "dnn.bwd_ms"), t("dnn", "dnn.self_ms"),
		t("dnn", "dnn.setup_ms"), t("dnn", "dnn.ooc_plan_ms"),
		n("dnn", "dnn.ooc_windows", "count"), n("dnn", "dnn.ooc_fetch_mib", "MiB"),
		n("dnn", "dnn.ooc_spill_mib", "MiB"), n("dnn", "dnn.ooc_recompute_mib", "MiB"),

		t("core", "core.conv_ms"), t("core", "core.self_ms"), t("core", "core.query_ms"),
		t("core", "core.finalize_ms"), t("core", "core.optimize_ms"),
		n("core", "core.conv_calls", "count"), n("core", "core.kernels_planned", "count"),
		n("core", "core.kernels_divided", "count"), n("core", "core.micro_batches", "count"),
		n("core", "core.ws_planned_mib", "MiB"), n("core", "core.wr_dp_states", "count"),
		n("core", "core.desirable_dp_states", "count"), n("core", "core.bench_kernels", "count"),

		n("cudnn", "cudnn.kernel_launches", "count"), n("cudnn", "cudnn.model_iter_ms", "ms"),
		{Name: "device.rank_agreement", Unit: "ratio", Better: "higher", Layer: "device"},

		t("conv", "conv.replay_ms"),
		{Name: "conv.gflops", Unit: "GFLOP/s", Better: "higher", Layer: "conv"},
	}
	for a := conv.Algo(0); a < conv.NumAlgos; a++ {
		out = append(out, t("conv", "conv.ms."+a.String()))
	}
	for a := conv.Algo(0); a < conv.NumAlgos; a++ {
		out = append(out, n("conv", "conv.calls."+a.String(), "count"))
	}
	return append(out,
		n("ilp", "ilp.vars", "count"), n("ilp", "ilp.nodes", "count"),
		n("lp", "lp.simplex_iters", "count"), t("ilp", "ilp.solve_ms"),
		metricDecl{Name: "telemetry.iter_ratio", Unit: "ratio", Better: "lower", Layer: "telemetry"},
		t("bench", "bench.traced_iter_ms"),
	)
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run prints as its last line: the contract the
// benchmark driver reads.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills every declared metric with zero, so a metric that
// does not apply to a workload is reported as such, not omitted.
func newResult(decls []metricDecl) *runResult {
	r := &runResult{Metrics: make(map[string]metricValue, len(decls))}
	for _, d := range decls {
		r.Metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	return r
}

// set stores a declared metric; an undeclared name is a bug here.
func (r *runResult) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("e2e: undeclared metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}
