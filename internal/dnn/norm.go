package dnn

import (
	"fmt"
	"math"

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
// ascending c'), so results do not depend on the worker count. Each
// product is rounded explicitly so that no compiler fuses it into the
// following add (Go allows that, and the arm64 backend does it).
type LRN struct {
	name   string
	n      int // window size
	alpha  float32
	k      float32
	shape  tensor.Shape
	denom  []float32 // cached d[c] from forward
	factor []float32 // cached d[c]^-beta from forward

	// Built once in Setup so a pass allocates nothing: the pass, and one
	// sample-sized scratch per worker for backward's dy*y/d.
	pass  *layerPass
	ratio []float32
}

// lrnBeta is LRN's exponent beta: AlexNet's 0.75 is the only one NewLRN
// builds, and lrnFactor's square-root form is exact for it alone.
const lrnBeta = 0.75

// NewLRN builds an LRN layer with AlexNet's defaults (n=5, alpha=1e-4,
// beta=0.75, k=1).
func NewLRN(name string) *LRN {
	return &LRN{name: name, n: 5, alpha: 1e-4, k: 1}
}

// lrnFactor computes r = 1/(s*sqrt(s)), s = sqrt(d), in float64 and
// returns f = float32(r), with ok when f is bit for bit the float32 that
// math.Pow(float64(d), -0.75) rounds to; the caller falls back to that
// expression when !ok. Four correctly rounded operations put r within 3
// float64 ulps of d^-0.75, and math.Pow is within a few dozen. Two
// float64 values round to different float32s only if a float32 halfway
// point lies between them, where the 29 bits below float32 precision
// read 1<<28. So unless r's 29 low bits lie within 1<<12 of that, both
// round alike. That excludes about 2^-16 of inputs, and the NaN that
// sqrt makes of a negative d. The fallback is the caller's, so that
// this inlines into the element loop.
func lrnFactor(d float32) (f float32, ok bool) {
	const half, margin = 1 << 28, 1 << 12
	s := math.Sqrt(float64(d))
	r := 1 / (s * math.Sqrt(s))
	low := math.Float64bits(r) & (1<<29 - 1)
	return float32(r), low-(half-margin) > 2*margin && r == r
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
		l.pass = newLayerPass(l.shape.N, l.work)
		l.ratio = make([]float32, l.pass.width*l.shape.C*l.shape.H*l.shape.W)
	}
	return bottoms[0], nil
}

// work is worker w's share of the pass: the samples [lo, hi).
func (l *LRN) work(w, lo, hi int) {
	for n := lo; n < hi; n++ {
		if l.pass.back {
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
	l.pass.fork(l.shape.N, false, bottoms[0].Data, top.Data, nil, nil)
	return nil
}

func (l *LRN) forwardSample(n int) {
	s := l.shape
	hw := s.H * s.W
	half := l.n / 2
	scale := l.alpha / float32(l.n)
	lo, hi := n*s.C*hw, (n+1)*s.C*hw
	x, y := l.pass.x[lo:hi], l.pass.y[lo:hi]
	denom, factor := l.denom[lo:hi], l.factor[lo:hi]
	for c := 0; c < s.C; c++ {
		d := denom[c*hw : (c+1)*hw]
		clear(d)
		for cc := max(0, c-half); cc <= min(s.C-1, c+half); cc++ {
			for p, v := range x[cc*hw : (cc+1)*hw] {
				d[p] += float32(v * v)
			}
		}
		xc, yc, fc := x[c*hw:(c+1)*hw], y[c*hw:(c+1)*hw], factor[c*hw:(c+1)*hw]
		for p, acc := range d {
			dv := l.k + float32(scale*acc)
			d[p] = dv
			f, ok := lrnFactor(dv)
			if !ok {
				f = float32(math.Pow(float64(dv), -lrnBeta))
			}
			fc[p] = f // backward reuses it
			yc[p] = xc[p] * f
		}
	}
}

// Backward implements Layer.
func (l *LRN) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(4 * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	l.pass.fork(l.shape.N, true, bottoms[0].Data, top.Data, dTop.Data, dBottoms[0].Data)
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
	coef := 2 * scale * lrnBeta
	lo, hi := n*s.C*hw, (n+1)*s.C*hw
	pass := l.pass
	x, y, dy, dx := pass.x[lo:hi], pass.y[lo:hi], pass.dy[lo:hi], pass.dx[lo:hi]
	denom, factor := l.denom[lo:hi], l.factor[lo:hi]
	ratio := l.ratio[w*s.C*hw : (w+1)*s.C*hw]
	for i, d := range denom {
		ratio[i] = dy[i] * y[i] / d
	}
	for c := 0; c < s.C; c++ {
		sum := dx[c*hw : (c+1)*hw]
		clear(sum)
		for cc := max(0, c-half); cc <= min(s.C-1, c+half); cc++ {
			for p, r := range ratio[cc*hw : (cc+1)*hw] {
				sum[p] += r
			}
		}
		xc, dyc, fc := x[c*hw:(c+1)*hw], dy[c*hw:(c+1)*hw], factor[c*hw:(c+1)*hw]
		for p, r := range sum {
			sum[p] = float32(dyc[p]*fc[p]) - float32(coef*xc[p]*r)
		}
	}
}

// BatchNorm is spatial batch normalization with learnable scale and bias.
// Training mode uses batch statistics; inference uses running averages.
// Products are rounded explicitly, as in LRN.
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
	l.gamma = newParam(ctx, l.name+".gamma", c)
	l.beta = newParam(ctx, l.name+".beta", c)
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
				msq += float64(v * v)
			}
		}
		mean /= float64(m)
		variance := msq/float64(m) - float64(mean*mean)
		if variance < 0 {
			variance = 0
		}
		var mu, is float32
		if ctx.Training {
			mu = float32(mean)
			is = float32(1 / math.Sqrt(variance+float64(l.eps)))
			const momentum = 0.9
			l.runMean[c] = float32(momentum*l.runMean[c]) + float32((1-momentum)*mu)
			l.runVar[c] = float32(momentum*l.runVar[c]) + float32((1-momentum)*float32(variance))
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
				top.Data[base+i] = float32(g*xh) + b
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
				sumDyXhat += float64(dy * float64(l.xhat[base+i]))
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
					(float32(m*dy) - float32(sumDy) - float32(xh*float32(sumDyXhat)))
			}
		}
	}
	return nil
}

// InPlace marks LRN as in-place eligible (Caffe's convention).
func (l *LRN) InPlace() bool { return true }

// InPlace marks BatchNorm as in-place eligible.
func (l *BatchNorm) InPlace() bool { return true }
