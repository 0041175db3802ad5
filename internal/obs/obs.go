// Package obs is a lightweight, dependency-free metrics layer for the
// µ-cuDNN reproduction: atomic counters, gauges and fixed-bucket latency
// histograms collected in a Registry, exported either as Prometheus text
// exposition or as a human-readable summary table.
//
// Every handle type is safe for concurrent use, and every operation is a
// no-op on a nil receiver: instrumented code paths hold possibly-nil
// metric handles and never branch on whether observability is enabled,
// so a run without a registry pays only a nil check.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value dimension of a metric series.
type Label struct {
	Name  string
	Value string
}

// L builds a label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// promEscaper escapes a label value per the Prometheus text exposition
// format (version 0.0.4): exactly backslash, double quote and line feed.
// Go's %q is not equivalent — it would also escape other control and
// non-ASCII characters, which the format passes through as raw UTF-8.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelString renders labels in deterministic (sorted-by-name) order as
// the {a="x",b="y"} suffix of a series; empty for no labels.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Name + `="` + promEscaper.Replace(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram (cumulative on export, like
// Prometheus): bounds are ascending upper bounds, with an implicit +Inf
// bucket at the end.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    Gauge
}

// DurationBuckets are upper bounds in seconds suited to the optimizer
// timings the paper reports (§IV-B: microseconds to tens of seconds).
var DurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60}

// CountBuckets are power-of-two upper bounds suited to micro-batch
// division counts and other small cardinalities.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the time elapsed since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Quantile estimates the q-quantile (q in [0, 1]) from the buckets by
// linear interpolation inside the bucket holding the target rank — the
// same estimate Prometheus's histogram_quantile gives, with the same
// caveats: resolution is bounded by the bucket bounds, ranks landing in
// the +Inf bucket clamp to the highest finite bound, and an empty
// histogram (or out-of-range q) returns NaN.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 || q < 0 || q > 1 || len(h.bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, bound := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum+c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (bound-lo)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// metric is one registered series.
type metric struct {
	name   string
	labels string // rendered suffix, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// seriesKey identifies a series by kind, name and rendered labels, so
// asking for an existing name as another kind creates a series, which
// checkNew rejects.
type seriesKey struct{ kind, series string }

// metricNameRe is the series-name scheme dashboards rely on.
var metricNameRe = regexp.MustCompile(`^ucudnn(_[a-z0-9]+)+$`)

// Registry holds metric series keyed by kind, name and labels. The zero value
// is not usable; a nil *Registry is: every lookup returns a nil handle,
// whose operations are no-ops.
type Registry struct {
	mu       sync.Mutex
	metrics  map[seriesKey]*metric
	families map[string]string // name -> kind{label names}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[seriesKey]*metric{}, families: map[string]string{}}
}

func (r *Registry) lookup(kind, name string, labels []Label) (*metric, bool) {
	suffix := labelString(labels)
	key := seriesKey{kind, name + suffix}
	m, ok := r.metrics[key]
	if !ok {
		r.checkNew(kind, name, labels)
		m = &metric{name: name, labels: suffix}
		r.metrics[key] = m
	}
	return m, ok
}

// checkNew holds a series about to be created to the naming scheme and
// panics, as prof.Register does, when it breaks it: the name is ucudnn_*
// snake_case, it ends in _total exactly when it is a counter, and it
// keeps one kind and one set of label names across the registry.
func (r *Registry) checkNew(kind, name string, labels []Label) {
	names := make([]string, len(labels))
	for i, l := range labels {
		names[i] = l.Name
	}
	sort.Strings(names)
	family := kind + "{" + strings.Join(names, ",") + "}"
	var problem string
	switch prev, seen := r.families[name]; {
	case !metricNameRe.MatchString(name):
		problem = "is not ucudnn_* snake_case"
	case strings.HasSuffix(name, "_total") != (kind == "counter"):
		problem = "must end in _total exactly when it is a counter"
	case seen && prev != family:
		problem = "is already a " + prev
	default:
		r.families[name] = family
		return
	}
	panic(fmt.Sprintf("obs: %s %q %s", family, name, problem))
}

// Counter returns (creating if needed) the counter series name{labels}.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup("counter", name, labels)
	if !existed {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns (creating if needed) the gauge series name{labels}.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup("gauge", name, labels)
	if !existed {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns (creating if needed) the histogram series
// name{labels} with the given ascending bucket upper bounds. The bounds
// of the first registration win; later calls ignore theirs.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup("histogram", name, labels)
	if !existed {
		m.h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}
	return m.h
}

// snapshot returns the registered series sorted by (name, labels).
func (r *Registry) snapshot() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}
