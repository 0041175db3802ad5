package dnn

import (
	"fmt"
	"math"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/tensor"
)

// Conv is a 2-D convolution layer with optional bias. It is the only
// layer that touches the kernel library, doing so exactly the way Caffe
// does: one Get*Algorithm call per kernel at setup (passing the
// framework's per-layer workspace limit), one workspace-size query, and
// Convolution* calls per iteration. Under µ-cuDNN the returned algorithm
// is virtual and the workspace sizes are zero.
type Conv struct {
	name                           string
	k, r, s                        int
	strideH, strideW               int
	padH, padW                     int
	withBias                       bool
	filterParam, biasParam         *Param
	xd, yd                         cudnn.TensorDesc
	wd                             cudnn.FilterDesc
	cd                             cudnn.ConvDesc
	wsFBytes, wsBDBytes, wsBFBytes int64
	skipInputGrad                  bool

	// Grouped-convolution state: the descriptors above describe one
	// group's kernel, called on channel views of the blobs as Caffe calls
	// cuDNN per group. filt and dFilt are the groups' filter views; xv and
	// yv, the x-side (x or dX) and y-side (y or dY) operands, are
	// re-pointed in place, so a grouped pass allocates nothing more.
	groups      int
	in, out     tensor.Shape
	filt, dFilt []tensor.FilterTensor
	xv, yv      tensor.Tensor
	// xw and yw are the x-side and y-side sample windows of a divided
	// pass, re-pointed in place like xv and yv.
	xw, yw tensor.Tensor

	// Window state. Every pass runs over a partition of the batch into
	// ascending contiguous sample windows — the whole batch as one window
	// (whole) normally, the out-of-core executor's partition under a blob
	// budget — and win holds the kernel state per window size. Setup
	// seeds the planned sizes (so WD registers the kernels actually
	// executed); sizes the degradation ladder improvises later are
	// queried lazily and fall to the library's WR path.
	whole [1]int
	win   []convWindow
}

// convWindow is the kernel state for windows of n samples: window-shaped
// descriptors plus the library's algorithm and workspace answers.
type convWindow struct {
	n               int
	xd, yd          cudnn.TensorDesc
	fwd, bwdD, bwdF conv.Algo
	wsF, wsBD, wsBF int64
}

// NewConv builds a conv layer with square kernels.
func NewConv(name string, k, kernel, stride, pad int, bias bool) *Conv {
	return &Conv{
		name: name, k: k, r: kernel, s: kernel,
		strideH: stride, strideW: stride, padH: pad, padW: pad,
		withBias: bias, groups: 1,
	}
}

// NewConvGrouped builds a grouped convolution (Caffe's group parameter):
// input and output channels are split into `groups` independent
// convolutions, executed as separate kernels on each group's channels in
// place, exactly as Caffe issues them to cuDNN — so each group's kernel
// is individually optimizable by µ-cuDNN.
func NewConvGrouped(name string, k, kernel, stride, pad, groups int, bias bool) *Conv {
	c := NewConv(name, k, kernel, stride, pad, bias)
	c.groups = groups
	return c
}

// SkipInputGrad marks the layer as the network's first convolution, whose
// BackwardData kernel frameworks skip (no gradient flows to raw data).
func (l *Conv) SkipInputGrad() *Conv { l.skipInputGrad = true; return l }

// Name implements Layer.
func (l *Conv) Name() string { return l.name }

// Params implements Layer.
func (l *Conv) Params() []*Param {
	if l.biasParam != nil {
		return []*Param{l.filterParam, l.biasParam}
	}
	return []*Param{l.filterParam}
}

// Shape returns the layer's convolution shape (for inspection/benches).
func (l *Conv) Shape() tensor.ConvShape { return cudnn.Shape(l.xd, l.wd, l.cd) }

// Setup implements Layer.
func (l *Conv) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) != 1 {
		return tensor.Shape{}, fmt.Errorf("conv %s: want 1 bottom, got %d", l.name, len(bottoms))
	}
	in := bottoms[0]
	if l.groups < 1 {
		l.groups = 1
	}
	if in.C%l.groups != 0 || l.k%l.groups != 0 {
		return tensor.Shape{}, fmt.Errorf("conv %s: channels %d/%d not divisible by %d groups", l.name, in.C, l.k, l.groups)
	}
	cg, kg := in.C/l.groups, l.k/l.groups
	var err error
	// Descriptors describe one group's kernel (the whole layer when
	// groups == 1), which is the unit cuDNN — and hence µ-cuDNN — sees.
	if l.xd, err = cudnn.NewTensorDesc(in.N, cg, in.H, in.W); err != nil {
		return tensor.Shape{}, err
	}
	if l.wd, err = cudnn.NewFilterDesc(kg, cg, l.r, l.s); err != nil {
		return tensor.Shape{}, err
	}
	if l.cd, err = cudnn.NewConvDesc(l.padH, l.padW, l.strideH, l.strideW, 1, 1); err != nil {
		return tensor.Shape{}, err
	}
	if l.yd, err = cudnn.GetOutputDim(l.xd, l.wd, l.cd); err != nil {
		return tensor.Shape{}, err
	}
	l.in = in
	l.out = tensor.Shape{N: in.N, C: l.k, H: l.yd.H, W: l.yd.W}

	// Parameters: He initialization (drawing nothing in a timing-only
	// context, whose parameters have no host storage). Grouped filters
	// are K x C/G x R x S, as in Caffe; the KCRS layout makes each group's
	// K/G filter rows contiguous.
	filt := tensor.Filter{K: l.k, C: cg, R: l.r, S: l.s}
	l.filterParam = newParam(ctx, l.name+".weight", filt.Elems())
	w := tensor.FilterTensor{Filter: filt, Data: l.filterParam.Data}
	w.Randomize(ctx.RNG, float32(math.Sqrt(2.0/float64(cg*l.r*l.s))))
	if l.withBias {
		l.biasParam = newParam(ctx, l.name+".bias", l.k)
	}
	l.filt, l.dFilt = make([]tensor.FilterTensor, l.groups), make([]tensor.FilterTensor, l.groups)
	f := tensor.Filter{K: kg, C: cg, R: l.r, S: l.s}
	for g := range l.groups {
		l.filt[g], l.dFilt[g] = tensor.FilterTensor{Filter: f}, tensor.FilterTensor{Filter: f}
		if l.filterParam.Data != nil {
			per := f.Elems()
			l.filt[g].Data = l.filterParam.Data[g*per : (g+1)*per]
			l.dFilt[g].Data = l.filterParam.Grad[g*per : (g+1)*per]
		}
	}
	if err := ctx.Cudnn.Mem().Alloc(2 * filt.Bytes()); err != nil {
		return tensor.Shape{}, err
	}
	if l.withBias {
		if err := ctx.Cudnn.Mem().Alloc(2 * int64(l.k) * 4); err != nil {
			return tensor.Shape{}, err
		}
	}

	// Algorithm selection and workspace queries through the framework's
	// preference convention (Caffe: explicit limit; TF: PreferFastest),
	// one set per window size the layer will execute: those shapes — the
	// whole batch only when no blob budget divides it — are what the
	// library must select algorithms (and, under WD, register kernels)
	// for.
	l.whole[0] = in.N
	sizes := l.whole[:]
	if ctx.OOC != nil {
		sizes = ctx.OOC.SetupSizes()
	}
	l.win = nil
	l.wsFBytes, l.wsBDBytes, l.wsBFBytes = 0, 0, 0
	for _, n := range sizes {
		w, err := l.winFor(ctx, n)
		if err != nil {
			return tensor.Shape{}, err
		}
		l.wsFBytes = max(l.wsFBytes, w.wsF)
		l.wsBDBytes = max(l.wsBDBytes, w.wsBD)
		l.wsBFBytes = max(l.wsBFBytes, w.wsBF)
	}
	// Each kernel's workspace counts against device memory individually
	// (frameworks allocate per layer); the host backing is the context's
	// shared arena since execution is sequential.
	if err := ctx.Cudnn.Mem().Alloc(l.wsFBytes + l.wsBDBytes + l.wsBFBytes); err != nil {
		return tensor.Shape{}, err
	}
	return l.out, nil
}

// WorkspaceBytes reports the layer's three per-kernel workspace sizes
// (Forward, BackwardData, BackwardFilter).
func (l *Conv) WorkspaceBytes() (fwd, bwdData, bwdFilter int64) {
	return l.wsFBytes, l.wsBDBytes, l.wsBFBytes
}

// partition is the window partition the current pass executes:
// ascending contiguous sample counts summing to the batch.
func (l *Conv) partition(ctx *Context) []int {
	if ctx.OOC != nil {
		return ctx.OOC.partition()
	}
	return l.whole[:]
}

// window re-points v at the [lo, lo+n) sample window of t and returns
// it. A window covering the batch is t itself, and nil passes through
// for timing-only runs whose blobs have no host backing.
func window(v, t *tensor.Tensor, lo, n int) *tensor.Tensor {
	if t == nil || n == t.Shape.N {
		return t
	}
	*v = t.SampleView(lo, n)
	return v
}

// channels re-points v at channels [c0, c0+n) of t and returns it. A
// timing-only blob (nil) passes through: the library gets no operand.
func channels(v, t *tensor.Tensor, c0, n int) *tensor.Tensor {
	if t == nil {
		return nil
	}
	*v = t.Channels(c0, n)
	return v
}

// winFor returns (querying the library on first use) the kernel state
// for windows of n samples.
func (l *Conv) winFor(ctx *Context, n int) (convWindow, error) {
	for i := range l.win {
		if l.win[i].n == n {
			return l.win[i], nil
		}
	}
	w := convWindow{n: n}
	var err error
	if w.xd, err = cudnn.NewTensorDesc(n, l.in.C/l.groups, l.in.H, l.in.W); err != nil {
		return w, err
	}
	if w.yd, err = cudnn.GetOutputDim(w.xd, l.wd, l.cd); err != nil {
		return w, err
	}
	pref, limit := ctx.Pref, ctx.WorkspaceLimit
	if w.fwd, err = ctx.Conv.GetConvolutionForwardAlgorithm(w.xd, l.wd, l.cd, w.yd, pref, limit); err != nil {
		return w, err
	}
	if w.bwdD, err = ctx.Conv.GetConvolutionBackwardDataAlgorithm(l.wd, w.yd, l.cd, w.xd, pref, limit); err != nil {
		return w, err
	}
	if w.bwdF, err = ctx.Conv.GetConvolutionBackwardFilterAlgorithm(w.xd, w.yd, l.cd, l.wd, pref, limit); err != nil {
		return w, err
	}
	if w.wsF, err = ctx.Conv.GetConvolutionForwardWorkspaceSize(w.xd, l.wd, l.cd, w.yd, w.fwd); err != nil {
		return w, err
	}
	if w.wsBD, err = ctx.Conv.GetConvolutionBackwardDataWorkspaceSize(l.wd, w.yd, l.cd, w.xd, w.bwdD); err != nil {
		return w, err
	}
	if w.wsBF, err = ctx.Conv.GetConvolutionBackwardFilterWorkspaceSize(w.xd, w.yd, l.cd, l.wd, w.bwdF); err != nil {
		return w, err
	}
	l.win = append(l.win, w)
	return w, nil
}

// Forward implements Layer. Each window is a whole kernel call on
// window-shaped descriptors; per-sample independence makes the
// concatenated windows bitwise equal to the undivided call.
func (l *Conv) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	cg, kg := l.in.C/l.groups, l.k/l.groups
	lo := 0
	for _, c := range l.partition(ctx) {
		w, err := l.winFor(ctx, c)
		if err != nil {
			return err
		}
		x, y := window(&l.xw, bottoms[0], lo, c), window(&l.yw, top, lo, c)
		for g := 0; g < l.groups; g++ {
			if err := ctx.Conv.ConvolutionForward(1, w.xd, channels(&l.xv, x, g*cg, cg), l.wd, &l.filt[g], l.cd, w.fwd, ctx.Workspace(w.wsF), 0, w.yd, channels(&l.yv, y, g*kg, kg)); err != nil {
				return err
			}
		}
		lo += c
	}
	if l.withBias {
		ctx.ChargeMem(2 * l.out.Bytes())
		if !ctx.SkipCompute {
			plane := l.out.H * l.out.W
			for n := 0; n < l.out.N; n++ {
				for k := 0; k < l.out.C; k++ {
					b := l.biasParam.Data[k]
					base := top.Index(n, k, 0, 0)
					for i := 0; i < plane; i++ {
						top.Data[base+i] += b
					}
				}
			}
		}
	}
	return nil
}

// Backward implements Layer. Parameter gradients accumulate (beta=1;
// the trainer zeroes them): ascending contiguous windows reproduce the
// undivided ascending-n dW reduction bit for bit, the same contract
// micro-batching itself relies on. dX is written with beta=0 into
// disjoint windows.
func (l *Conv) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	cg, kg := l.in.C/l.groups, l.k/l.groups
	lo := 0
	for _, c := range l.partition(ctx) {
		w, err := l.winFor(ctx, c)
		if err != nil {
			return err
		}
		x, dy := window(&l.xw, bottoms[0], lo, c), window(&l.yw, dTop, lo, c)
		for g := 0; g < l.groups; g++ {
			if err := ctx.Conv.ConvolutionBackwardFilter(1, w.xd, channels(&l.xv, x, g*cg, cg), w.yd, channels(&l.yv, dy, g*kg, kg), l.cd, w.bwdF, ctx.Workspace(w.wsBF), 1, l.wd, &l.dFilt[g]); err != nil {
				return err
			}
		}
		lo += c
	}
	if l.withBias {
		ctx.ChargeMem(l.out.Bytes())
		if !ctx.SkipCompute {
			plane := l.out.H * l.out.W
			for n := 0; n < l.out.N; n++ {
				for k := 0; k < l.out.C; k++ {
					base := dTop.Index(n, k, 0, 0)
					var s float32
					for i := 0; i < plane; i++ {
						s += dTop.Data[base+i]
					}
					l.biasParam.Grad[k] += s
				}
			}
		}
	}
	if l.skipInputGrad {
		return nil
	}
	lo = 0
	for _, c := range l.partition(ctx) {
		w, err := l.winFor(ctx, c)
		if err != nil {
			return err
		}
		dy, dx := window(&l.yw, dTop, lo, c), window(&l.xw, dBottoms[0], lo, c)
		for g := 0; g < l.groups; g++ {
			if err := ctx.Conv.ConvolutionBackwardData(1, l.wd, &l.filt[g], w.yd, channels(&l.yv, dy, g*kg, kg), l.cd, w.bwdD, ctx.Workspace(w.wsBD), 0, w.xd, channels(&l.xv, dx, g*cg, cg)); err != nil {
				return err
			}
		}
		lo += c
	}
	return nil
}
