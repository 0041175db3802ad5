package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ucudnn_c_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("ucudnn_g")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
	h := r.Histogram("ucudnn_h_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(50)
	if h.Count() != 3 {
		t.Fatalf("histogram count = %d, want 3", h.Count())
	}
	if got := h.Sum(); got != 50.055 {
		t.Fatalf("histogram sum = %v", got)
	}
}

func TestRegistryReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ucudnn_x_total", L("op", "fwd"))
	b := r.Counter("ucudnn_x_total", L("op", "fwd"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("ucudnn_x_total", L("op", "bwd"))
	if a == other {
		t.Fatal("different labels must return distinct counters")
	}
	// Label order must not matter.
	h1 := r.Histogram("ucudnn_hh", CountBuckets, L("a", "1"), L("b", "2"))
	h2 := r.Histogram("ucudnn_hh", CountBuckets, L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order must not create a new series")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("ucudnn_c")
	g := r.Gauge("ucudnn_g")
	h := r.Histogram("ucudnn_h", DurationBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	// None of these may panic.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFile(""); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentUpdates exercises every metric type from many goroutines;
// run under -race it verifies the lock-free paths.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("ucudnn_c_total").Inc()
				r.Counter("ucudnn_labeled_total", L("w", "shared")).Inc()
				r.Gauge("ucudnn_g").Add(1)
				r.Histogram("ucudnn_h", CountBuckets).Observe(float64(i % 70))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ucudnn_c_total").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Counter("ucudnn_labeled_total", L("w", "shared")).Value(); got != workers*per {
		t.Fatalf("labeled counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("ucudnn_g").Value(); got != workers*per {
		t.Fatalf("gauge = %v, want %d", got, workers*per)
	}
	if got := r.Histogram("ucudnn_h", CountBuckets).Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestLabelValueEscaping pins the exposition-format escaping rules:
// backslash, double quote and line feed are escaped; everything else —
// including non-ASCII UTF-8 — passes through verbatim (Go's %q would
// over-escape it).
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("ucudnn_esc_total", L("path", "C:\\tmp\n\"x\"")).Inc()
	r.Counter("ucudnn_utf_total", L("dev", "µ-cuDNN ©")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ucudnn_esc_total{path="C:\\tmp\n\"x\""} 1`,
		`ucudnn_utf_total{dev="µ-cuDNN ©"} 1`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("ucudnn_q_seconds", []float64{0.01, 1})
	for _, q := range []float64{0, 0.5, 1} {
		if !math.IsNaN(h.Quantile(q)) {
			t.Fatalf("empty histogram Quantile(%g) = %g, want NaN", q, h.Quantile(q))
		}
	}
	h.Observe(0.004)
	h.Observe(0.146)
	h.Observe(40)
	if got := h.Quantile(0.5); got != 0.505 {
		t.Errorf("p50 = %g, want 0.505 (interpolated inside (0.01, 1])", got)
	}
	// Ranks landing in the +Inf bucket clamp to the highest finite bound.
	for _, q := range []float64{0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 1 {
			t.Errorf("Quantile(%g) = %g, want 1 (clamped)", q, got)
		}
	}
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.1)) {
		t.Error("out-of-range q must be NaN")
	}
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Error("nil histogram Quantile must be NaN")
	}
}

const goldenPrometheus = `# TYPE ucudnn_cache_hits_total counter
ucudnn_cache_hits_total 7
# TYPE ucudnn_ilp_variables gauge
ucudnn_ilp_variables 562
# TYPE ucudnn_opt_wr_seconds histogram
ucudnn_opt_wr_seconds_bucket{le="0.01"} 1
ucudnn_opt_wr_seconds_bucket{le="1"} 2
ucudnn_opt_wr_seconds_bucket{le="+Inf"} 3
ucudnn_opt_wr_seconds_sum 40.15
ucudnn_opt_wr_seconds_count 3
# TYPE ucudnn_selected_total counter
ucudnn_selected_total{algo="fft",op="Forward"} 2
ucudnn_selected_total{algo="gemm",op="Forward"} 1
`

const goldenSummary = `metric                                           value
ucudnn_cache_hits_total                          7
ucudnn_ilp_variables                             562
ucudnn_opt_wr_seconds                            count=3 sum=40.15 mean=13.383333333333333 p50=0.505 p95=1 p99=1
ucudnn_selected_total{algo="fft",op="Forward"}   2
ucudnn_selected_total{algo="gemm",op="Forward"}  1
`

func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("ucudnn_cache_hits_total").Add(7)
	r.Gauge("ucudnn_ilp_variables").Set(562)
	h := r.Histogram("ucudnn_opt_wr_seconds", []float64{0.01, 1})
	h.Observe(0.004)
	h.Observe(0.146)
	h.Observe(40)
	r.Counter("ucudnn_selected_total", L("op", "Forward"), L("algo", "fft")).Add(2)
	r.Counter("ucudnn_selected_total", L("op", "Forward"), L("algo", "gemm")).Inc()
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != goldenPrometheus {
		t.Fatalf("prometheus exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), goldenPrometheus)
	}
}

func TestWriteSummaryGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != goldenSummary {
		t.Fatalf("summary mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), goldenSummary)
	}
}

// Updating a metric through a held handle is the instrumented hot path:
// kernels and the optimizers update series per call, so no handle
// operation may allocate.
func TestMetricHandlesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ucudnn_c_total")
	g := r.Gauge("ucudnn_g")
	h := r.Histogram("ucudnn_h_seconds", DurationBuckets)
	ops := map[string]func(){
		"Counter.Add":       func() { c.Add(2) },
		"Gauge.Set":         func() { g.Set(1.5) },
		"Gauge.Add":         func() { g.Add(0.5) },
		"Histogram.Observe": func() { h.Observe(0.003) },
	}
	for name, f := range ops {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// Creating a series holds it to the naming scheme; a violation panics
// at the first registration, as prof.Register does for phase names.
func TestRegistryRejectsMisnamedSeries(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"counter without _total":  func(r *Registry) { r.Counter("ucudnn_hits") },
		"gauge with _total":       func(r *Registry) { r.Gauge("ucudnn_hits_total") },
		"histogram with _total":   func(r *Registry) { r.Histogram("ucudnn_wait_total", CountBuckets) },
		"missing ucudnn_ prefix":  func(r *Registry) { r.Gauge("queue_depth") },
		"upper case":              func(r *Registry) { r.Gauge("ucudnn_Queue") },
		"gauge then counter":      func(r *Registry) { r.Gauge("ucudnn_x"); r.Counter("ucudnn_x").Inc() },
		"counter then histogram":  func(r *Registry) { r.Counter("ucudnn_x_total"); r.Histogram("ucudnn_x_total", CountBuckets) },
		"label names differ":      func(r *Registry) { r.Gauge("ucudnn_x", L("op", "a")); r.Gauge("ucudnn_x", L("algo", "a")) },
		"label added to a series": func(r *Registry) { r.Gauge("ucudnn_x"); r.Gauge("ucudnn_x", L("op", "a")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registered without a panic", name)
				}
			}()
			register(NewRegistry())
		}()
	}
}
