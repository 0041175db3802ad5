package dnn

import (
	"fmt"
	"math"

	"ucudnn/internal/blas"
	"ucudnn/internal/tensor"
)

// LRN is AlexNet's cross-channel local response normalization:
//
//	y[c] = x[c] / d[c]^beta,  d[c] = k + (alpha/n) * sum_{c' in win(c)} x[c']^2
//
// Samples are independent, so both passes spread them over the kernel
// engine's workers; within a sample the walk is channel-outer,
// pixel-inner over contiguous H*W planes. Every element sees the float
// operations of the definition in the definition's order (window sums in
// ascending c'), so results do not depend on the worker count.
type LRN struct {
	name        string
	n           int // window size
	alpha, beta float32
	k           float32
	shape       tensor.Shape
	denom       []float32 // cached d[c] from forward
	factor      []float32 // cached d[c]^-beta from forward

	// Built once in Setup so a pass allocates nothing: the fork, and one
	// sample-sized scratch per worker for backward's dy*y/d.
	fork  *forkJoin
	ratio []float32
}

// NewLRN builds an LRN layer with AlexNet's defaults (n=5, alpha=1e-4,
// beta=0.75, k=1).
func NewLRN(name string) *LRN {
	return &LRN{name: name, n: 5, alpha: 1e-4, beta: 0.75, k: 1}
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }

// Setup implements Layer.
func (l *LRN) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) != 1 {
		return tensor.Shape{}, fmt.Errorf("lrn %s: want 1 bottom", l.name)
	}
	l.shape = bottoms[0]
	if !ctx.SkipCompute {
		l.denom = make([]float32, l.shape.Elems())
		l.factor = make([]float32, l.shape.Elems())
		l.fork = newForkJoin(l.shape.N, l.work)
		l.ratio = make([]float32, l.fork.maxWorkers()*l.shape.C*l.shape.H*l.shape.W)
	}
	return bottoms[0], nil
}

// work is worker w's share of the pass: a contiguous range of samples.
func (l *LRN) work(w, workers int) {
	lo, hi := blas.Chunk(l.shape.N, workers, w)
	for n := lo; n < hi; n++ {
		if l.fork.pass.backward {
			l.backwardSample(w, n)
		} else {
			l.forwardSample(n)
		}
	}
}

// Forward implements Layer.
func (l *LRN) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	ctx.ChargeMem(3 * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	l.fork.forward(l.shape.N, bottoms[0].Data, top.Data)
	return nil
}

func (l *LRN) forwardSample(n int) {
	s := l.shape
	hw := s.H * s.W
	half := l.n / 2
	scale := l.alpha / float32(l.n)
	negBeta := float64(-l.beta)
	lo, hi := n*s.C*hw, (n+1)*s.C*hw
	x, y := l.fork.pass.x[lo:hi], l.fork.pass.y[lo:hi]
	denom, factor := l.denom[lo:hi], l.factor[lo:hi]
	for c := 0; c < s.C; c++ {
		d := denom[c*hw : (c+1)*hw]
		clear(d)
		for cc := imax(0, c-half); cc <= imin(s.C-1, c+half); cc++ {
			for p, v := range x[cc*hw : (cc+1)*hw] {
				d[p] += v * v
			}
		}
		xc, yc, fc := x[c*hw:(c+1)*hw], y[c*hw:(c+1)*hw], factor[c*hw:(c+1)*hw]
		for p, acc := range d {
			dv := l.k + scale*acc
			d[p] = dv
			// The one math.Pow per element: backward reuses it.
			fc[p] = float32(math.Pow(float64(dv), negBeta))
			yc[p] = xc[p] * fc[p]
		}
	}
}

// Backward implements Layer.
func (l *LRN) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(4 * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	l.fork.backward(l.shape.N, bottoms[0].Data, top.Data, dTop.Data, dBottoms[0].Data)
	return nil
}

// backwardSample computes, in worker w's scratch,
//
//	dx[c] = dy[c]*d[c]^-beta
//	        - 2*scale*beta * x[c] * sum_{c': c in win(c')} dy[c']*y[c']/d[c']
func (l *LRN) backwardSample(w, n int) {
	s := l.shape
	hw := s.H * s.W
	half := l.n / 2
	scale := l.alpha / float32(l.n)
	coef := 2 * scale * l.beta
	lo, hi := n*s.C*hw, (n+1)*s.C*hw
	pass := &l.fork.pass
	x, y, dy, dx := pass.x[lo:hi], pass.y[lo:hi], pass.dy[lo:hi], pass.dx[lo:hi]
	denom, factor := l.denom[lo:hi], l.factor[lo:hi]
	ratio := l.ratio[w*s.C*hw : (w+1)*s.C*hw]
	for i, d := range denom {
		ratio[i] = dy[i] * y[i] / d
	}
	for c := 0; c < s.C; c++ {
		sum := dx[c*hw : (c+1)*hw]
		clear(sum)
		for cc := imax(0, c-half); cc <= imin(s.C-1, c+half); cc++ {
			for p, r := range ratio[cc*hw : (cc+1)*hw] {
				sum[p] += r
			}
		}
		xc, dyc, fc := x[c*hw:(c+1)*hw], dy[c*hw:(c+1)*hw], factor[c*hw:(c+1)*hw]
		for p, r := range sum {
			sum[p] = dyc[p]*fc[p] - coef*xc[p]*r
		}
	}
}

// BatchNorm is spatial batch normalization with learnable scale and bias.
// Training mode uses batch statistics; inference uses running averages.
type BatchNorm struct {
	name    string
	eps     float32
	shape   tensor.Shape
	gamma   *Param
	beta    *Param
	mean    []float32 // batch mean per channel (cached for backward)
	invStd  []float32
	xhat    []float32
	runMean []float32
	runVar  []float32
}

// NewBatchNorm builds a batch normalization layer.
func NewBatchNorm(name string) *BatchNorm {
	return &BatchNorm{name: name, eps: 1e-5}
}

// Name implements Layer.
func (l *BatchNorm) Name() string { return l.name }

// Params implements Layer.
func (l *BatchNorm) Params() []*Param {
	if l.gamma == nil {
		return nil
	}
	return []*Param{l.gamma, l.beta}
}

// Setup implements Layer.
func (l *BatchNorm) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) != 1 {
		return tensor.Shape{}, fmt.Errorf("bn %s: want 1 bottom", l.name)
	}
	l.shape = bottoms[0]
	c := l.shape.C
	l.gamma = &Param{Name: l.name + ".gamma", Data: make([]float32, c), Grad: make([]float32, c)}
	l.beta = &Param{Name: l.name + ".beta", Data: make([]float32, c), Grad: make([]float32, c)}
	for i := range l.gamma.Data {
		l.gamma.Data[i] = 1
	}
	if err := ctx.Cudnn.Mem().Alloc(4 * int64(c) * 4); err != nil {
		return tensor.Shape{}, err
	}
	if !ctx.SkipCompute {
		l.mean = make([]float32, c)
		l.invStd = make([]float32, c)
		l.xhat = make([]float32, l.shape.Elems())
		l.runMean = make([]float32, c)
		l.runVar = make([]float32, c)
	}
	return bottoms[0], nil
}

// Forward implements Layer.
func (l *BatchNorm) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	ctx.ChargeMem(3 * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	s := l.shape
	plane := s.H * s.W
	m := float32(s.N * plane)
	x := bottoms[0]
	for c := 0; c < s.C; c++ {
		var mean, msq float64
		for n := 0; n < s.N; n++ {
			base := x.Index(n, c, 0, 0)
			for i := 0; i < plane; i++ {
				v := float64(x.Data[base+i])
				mean += v
				msq += v * v
			}
		}
		mean /= float64(m)
		variance := msq/float64(m) - mean*mean
		if variance < 0 {
			variance = 0
		}
		var mu, is float32
		if ctx.Training {
			mu = float32(mean)
			is = float32(1 / math.Sqrt(variance+float64(l.eps)))
			const momentum = 0.9
			l.runMean[c] = momentum*l.runMean[c] + (1-momentum)*mu
			l.runVar[c] = momentum*l.runVar[c] + (1-momentum)*float32(variance)
		} else {
			mu = l.runMean[c]
			is = float32(1 / math.Sqrt(float64(l.runVar[c])+float64(l.eps)))
		}
		l.mean[c] = mu
		l.invStd[c] = is
		g, b := l.gamma.Data[c], l.beta.Data[c]
		for n := 0; n < s.N; n++ {
			base := x.Index(n, c, 0, 0)
			for i := 0; i < plane; i++ {
				xh := (x.Data[base+i] - mu) * is
				l.xhat[base+i] = xh
				top.Data[base+i] = g*xh + b
			}
		}
	}
	return nil
}

// Backward implements Layer.
func (l *BatchNorm) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(4 * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	s := l.shape
	plane := s.H * s.W
	m := float32(s.N * plane)
	for c := 0; c < s.C; c++ {
		var sumDy, sumDyXhat float64
		for n := 0; n < s.N; n++ {
			base := dTop.Index(n, c, 0, 0)
			for i := 0; i < plane; i++ {
				dy := float64(dTop.Data[base+i])
				sumDy += dy
				sumDyXhat += dy * float64(l.xhat[base+i])
			}
		}
		l.gamma.Grad[c] += float32(sumDyXhat)
		l.beta.Grad[c] += float32(sumDy)
		g := l.gamma.Data[c]
		is := l.invStd[c]
		for n := 0; n < s.N; n++ {
			base := dTop.Index(n, c, 0, 0)
			for i := 0; i < plane; i++ {
				dy := dTop.Data[base+i]
				xh := l.xhat[base+i]
				dBottoms[0].Data[base+i] = g * is / m *
					(m*dy - float32(sumDy) - xh*float32(sumDyXhat))
			}
		}
	}
	return nil
}

// InPlace marks LRN as in-place eligible (Caffe's convention).
func (l *LRN) InPlace() bool { return true }

// InPlace marks BatchNorm as in-place eligible.
func (l *BatchNorm) InPlace() bool { return true }
