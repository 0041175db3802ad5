package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/dnn"
	"ucudnn/internal/tensor"
)

// Span names. The core.* spans are the time spent below the ConvHandle
// boundary; everything else in an iteration is dnn's.
const (
	spanSetup         = "setup"
	spanWarmup        = "warmup"
	spanIteration     = "iteration"
	spanIterTelemetry = "iteration+telemetry"
	spanIterReplay    = "iteration+replay"
	spanForward       = "forward"
	spanBackward      = "backward"
	spanPlanOOC       = "dnn.plan_ooc"
	spanNetSetup      = "dnn.setup"
	spanFinalize      = "core.finalize"
	spanQuery         = "core.query"
	spanConv          = "core.conv"
)

// convCall is one Convolution* call as the network issued it.
type convCall struct {
	op   conv.Op
	algo conv.Algo // core.VirtualAlgo under µ-cuDNN
	cs   tensor.ConvShape
}

// tracedConv is the benchmark's interposer on dnn.Context.Conv: every
// call and argument is forwarded unchanged, with a span around it.
// Convolution* calls are also logged so the replay knows what ran.
type tracedConv struct {
	h     dnn.ConvHandle
	spans *spanLog
	calls []convCall
	// replay, when set, re-times each call's kernels right after it.
	replay *replayer
}

// log records a Convolution* call before it is forwarded.
func (t *tracedConv) log(c convCall) convCall {
	t.calls = append(t.calls, c)
	return c
}

// after hands a finished call's operands to the replayer, if any.
func (t *tracedConv) after(c convCall, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor) {
	if t.replay != nil {
		t.replay.observe(c, x, w, y)
	}
}

func (t *tracedConv) GetConvolutionForwardAlgorithm(x cudnn.TensorDesc, w cudnn.FilterDesc, cd cudnn.ConvDesc, y cudnn.TensorDesc, pref cudnn.Pref, wsLimit int64) (conv.Algo, error) {
	defer t.spans.begin(spanQuery)()
	return t.h.GetConvolutionForwardAlgorithm(x, w, cd, y, pref, wsLimit)
}

func (t *tracedConv) GetConvolutionBackwardDataAlgorithm(w cudnn.FilterDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dx cudnn.TensorDesc, pref cudnn.Pref, wsLimit int64) (conv.Algo, error) {
	defer t.spans.begin(spanQuery)()
	return t.h.GetConvolutionBackwardDataAlgorithm(w, dy, cd, dx, pref, wsLimit)
}

func (t *tracedConv) GetConvolutionBackwardFilterAlgorithm(x cudnn.TensorDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dw cudnn.FilterDesc, pref cudnn.Pref, wsLimit int64) (conv.Algo, error) {
	defer t.spans.begin(spanQuery)()
	return t.h.GetConvolutionBackwardFilterAlgorithm(x, dy, cd, dw, pref, wsLimit)
}

func (t *tracedConv) GetConvolutionForwardWorkspaceSize(x cudnn.TensorDesc, w cudnn.FilterDesc, cd cudnn.ConvDesc, y cudnn.TensorDesc, algo conv.Algo) (int64, error) {
	defer t.spans.begin(spanQuery)()
	return t.h.GetConvolutionForwardWorkspaceSize(x, w, cd, y, algo)
}

func (t *tracedConv) GetConvolutionBackwardDataWorkspaceSize(w cudnn.FilterDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dx cudnn.TensorDesc, algo conv.Algo) (int64, error) {
	defer t.spans.begin(spanQuery)()
	return t.h.GetConvolutionBackwardDataWorkspaceSize(w, dy, cd, dx, algo)
}

func (t *tracedConv) GetConvolutionBackwardFilterWorkspaceSize(x cudnn.TensorDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dw cudnn.FilterDesc, algo conv.Algo) (int64, error) {
	defer t.spans.begin(spanQuery)()
	return t.h.GetConvolutionBackwardFilterWorkspaceSize(x, dy, cd, dw, algo)
}

func (t *tracedConv) ConvolutionForward(alpha float32, xd cudnn.TensorDesc, x *tensor.Tensor, wd cudnn.FilterDesc, w *tensor.FilterTensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, yd cudnn.TensorDesc, y *tensor.Tensor) error {
	c := t.log(convCall{conv.Forward, algo, cudnn.Shape(xd, wd, cd)})
	end := t.spans.begin(spanConv)
	err := t.h.ConvolutionForward(alpha, xd, x, wd, w, cd, algo, ws, beta, yd, y)
	end()
	t.after(c, x, w, y)
	return err
}

func (t *tracedConv) ConvolutionBackwardData(alpha float32, wd cudnn.FilterDesc, w *tensor.FilterTensor, dyd cudnn.TensorDesc, dy *tensor.Tensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, dxd cudnn.TensorDesc, dx *tensor.Tensor) error {
	c := t.log(convCall{conv.BackwardData, algo, cudnn.Shape(dxd, wd, cd)})
	end := t.spans.begin(spanConv)
	err := t.h.ConvolutionBackwardData(alpha, wd, w, dyd, dy, cd, algo, ws, beta, dxd, dx)
	end()
	t.after(c, dx, w, dy)
	return err
}

func (t *tracedConv) ConvolutionBackwardFilter(alpha float32, xd cudnn.TensorDesc, x *tensor.Tensor, dyd cudnn.TensorDesc, dy *tensor.Tensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, dwd cudnn.FilterDesc, dw *tensor.FilterTensor) error {
	c := t.log(convCall{conv.BackwardFilter, algo, cudnn.Shape(xd, dwd, cd)})
	end := t.spans.begin(spanConv)
	err := t.h.ConvolutionBackwardFilter(alpha, xd, x, dyd, dy, cd, algo, ws, beta, dwd, dw)
	end()
	t.after(c, x, dw, dy)
	return err
}

// microKernel is one kernel execution as conv.Run saw it.
type microKernel struct {
	op   conv.Op
	algo conv.Algo
	cs   tensor.ConvShape
}

func (m microKernel) String() string {
	return fmt.Sprintf("%v %v[%v]", m.algo, m.op, m.cs)
}

// expand turns one logged call into the kernels it executed: itself on a
// plain handle, the plan's micro-batches under µ-cuDNN.
func expand(c convCall, plans map[string]core.Plan) ([]microKernel, error) {
	if c.algo != core.VirtualAlgo {
		return []microKernel{{c.op, c.algo, c.cs}}, nil
	}
	key := core.Kernel{Op: c.op, Shape: c.cs}.String()
	p, ok := plans[key]
	if !ok {
		return nil, fmt.Errorf("no plan for executed kernel %s", key)
	}
	out := make([]microKernel, len(p.Config))
	for i, mc := range p.Config {
		out[i] = microKernel{c.op, mc.Algo, c.cs.WithN(mc.BatchSize)}
	}
	return out, nil
}

func planIndex(uc *core.Handle) map[string]core.Plan {
	idx := map[string]core.Plan{}
	if uc != nil {
		for _, p := range uc.Plans() {
			idx[p.Kernel.String()] = p
		}
	}
	return idx
}

// planHash fingerprints what the workload decided to run: FNV-1a over
// the sorted plan strings (µ-cuDNN), or over the sorted executed kernels
// when a plain handle chose the algorithms.
func planHash(uc *core.Handle, calls []convCall) string {
	var lines []string
	if uc != nil {
		for _, p := range uc.Plans() {
			lines = append(lines, p.String())
		}
	} else {
		seen := map[string]bool{}
		for _, c := range calls {
			s := microKernel{c.op, c.algo, c.cs}.String()
			if !seen[s] {
				seen[s] = true
				lines = append(lines, s)
			}
		}
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// replayReps is how often each kernel execution is re-timed; the median
// counts. The real call has just run on the same operands, so no
// separate warm-up is needed.
const replayReps = 3

// replayed is the isolated cost of one distinct kernel over an iteration.
type replayed struct {
	k     microKernel
	count int     // executions per iteration
	ms    float64 // summed over those executions
}

// replayer re-times every kernel execution of one iteration through
// conv.Run, directly after the real call and on that call's own input
// operands: what the kernels cost without core or dnn around them. The
// operands matter — the implicit kernels skip zero gradients, so dense
// scratch data would overstate them. Outputs go to scratch tensors; the
// network's state is untouched.
type replayer struct {
	plans map[string]core.Plan
	byKey map[string]*replayed
	order []string
	ws    []float32
	err   error
}

func newReplayer(plans map[string]core.Plan) *replayer {
	return &replayer{plans: plans, byKey: map[string]*replayed{}}
}

// observe replays one Convolution* call's kernels. x, w, y are in conv.Run
// roles (for BackwardData x is dX, for BackwardFilter w is dW).
func (r *replayer) observe(c convCall, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor) {
	if r.err != nil {
		return
	}
	ks, err := expand(c, r.plans)
	if err != nil {
		r.err = err
		return
	}
	off := 0
	for _, k := range ks {
		n := k.cs.In.N
		mx, mw, my := x.Sample(off, n), w, y.Sample(off, n)
		off += n
		switch k.op {
		case conv.Forward:
			my = tensor.NewShaped(my.Shape)
		case conv.BackwardData:
			mx = tensor.NewShaped(mx.Shape)
		case conv.BackwardFilter:
			mw = tensor.NewFilter(w.Filter.K, w.Filter.C, w.Filter.R, w.Filter.S)
		}
		bytes, ok := conv.Workspace(k.op, k.algo, k.cs)
		if !ok {
			r.err = fmt.Errorf("replay: %v is not supported", k)
			return
		}
		if need := int((bytes + 3) / 4); len(r.ws) < need {
			r.ws = make([]float32, need)
		}
		var times []float64
		for rep := 0; rep < replayReps; rep++ {
			start := time.Now()
			if err := conv.Run(k.op, k.algo, k.cs, mx, mw, my, 1, 0, r.ws); err != nil {
				r.err = fmt.Errorf("replay %v: %w", k, err)
				return
			}
			times = append(times, msSince(start))
		}
		key := k.String()
		e := r.byKey[key]
		if e == nil {
			e = &replayed{k: k}
			r.byKey[key] = e
			r.order = append(r.order, key)
		}
		e.count++
		e.ms += median(times)
	}
}

// results lists the distinct kernels in first-execution order.
func (r *replayer) results() []replayed {
	out := make([]replayed, len(r.order))
	for i, key := range r.order {
		out[i] = *r.byKey[key]
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
