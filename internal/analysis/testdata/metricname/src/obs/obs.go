// Package obs is a miniature stand-in for ucudnn/internal/obs with the
// same registration surface, so metricname fixtures type-check without
// importing the real module.
package obs

type Label struct {
	Name  string
	Value string
}

func L(name, value string) Label { return Label{Name: name, Value: value} }

type Registry struct{}

func NewRegistry() *Registry { return &Registry{} }

type Counter struct{}
type Gauge struct{}
type Histogram struct{}

func (r *Registry) Counter(name string, labels ...Label) *Counter { return &Counter{} }

func (r *Registry) Gauge(name string, labels ...Label) *Gauge { return &Gauge{} }

func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	return &Histogram{}
}
