package dnn

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// LayerTiming is the measured (or simulated) cost of one layer over a
// timing run, split into forward and backward passes — the unit of the
// paper's per-layer breakdown figures.
type LayerTiming struct {
	Name     string
	Forward  time.Duration
	Backward time.Duration
}

// Total returns forward + backward.
func (t LayerTiming) Total() time.Duration { return t.Forward + t.Backward }

// TimingReport is the result of Time: the `caffe time` equivalent.
type TimingReport struct {
	Iterations int
	Layers     []LayerTiming // averaged per iteration, execution order
}

// TotalForward sums the per-layer forward times.
func (r *TimingReport) TotalForward() time.Duration {
	var s time.Duration
	for _, l := range r.Layers {
		s += l.Forward
	}
	return s
}

// TotalBackward sums the per-layer backward times.
func (r *TimingReport) TotalBackward() time.Duration {
	var s time.Duration
	for _, l := range r.Layers {
		s += l.Backward
	}
	return s
}

// Total sums forward and backward.
func (r *TimingReport) Total() time.Duration {
	return r.TotalForward() + r.TotalBackward()
}

// Layer returns the timing entry with the given name (nil if absent).
func (r *TimingReport) Layer(name string) *LayerTiming {
	for i := range r.Layers {
		if r.Layers[i].Name == name {
			return &r.Layers[i]
		}
	}
	return nil
}

// SumMatching sums the layers selected by the predicate; used to report
// convolution-only totals as the paper does.
func (r *TimingReport) SumMatching(match func(name string) bool) time.Duration {
	var s time.Duration
	for _, l := range r.Layers {
		if match(l.Name) {
			s += l.Total()
		}
	}
	return s
}

// Print writes a `caffe time`-style table.
func (r *TimingReport) Print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "layer\tforward\tbackward\ttotal\n")
	for _, l := range r.Layers {
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\n", l.Name, l.Forward, l.Backward, l.Total())
	}
	fmt.Fprintf(tw, "TOTAL\t%v\t%v\t%v\n", r.TotalForward(), r.TotalBackward(), r.Total())
	tw.Flush()
}

// Time runs iters forward-backward iterations, attributing the simulated
// clock to layers; the first (setup/optimization) iteration is excluded,
// as the paper excludes µ-cuDNN's one-time optimization from kernel
// timings.
func (n *Net) Time(iters int) (*TimingReport, error) {
	if err := n.Setup(); err != nil {
		return nil, err
	}
	if iters < 1 {
		iters = 1
	}
	// Warm-up iteration triggers plan optimization outside the timed loop.
	if err := n.Forward(); err != nil {
		return nil, err
	}
	if err := n.Backward(); err != nil {
		return nil, err
	}
	fwd := make([]time.Duration, len(n.layers))
	bwd := make([]time.Duration, len(n.layers))
	for it := 0; it < iters; it++ {
		for i := range n.layers {
			start := n.ctx.Cudnn.Elapsed()
			if err := n.forwardLayer(i); err != nil {
				return nil, err
			}
			fwd[i] += n.ctx.Cudnn.Elapsed() - start
		}
		for i := len(n.layers) - 1; i >= 0; i-- {
			start := n.ctx.Cudnn.Elapsed()
			if err := n.backwardLayer(i); err != nil {
				return nil, err
			}
			bwd[i] += n.ctx.Cudnn.Elapsed() - start
		}
	}
	rep := &TimingReport{Iterations: iters}
	for i, li := range n.layers {
		rep.Layers = append(rep.Layers, LayerTiming{
			Name:     li.layer.Name(),
			Forward:  fwd[i] / time.Duration(iters),
			Backward: bwd[i] / time.Duration(iters),
		})
	}
	return rep, nil
}
