package dnn

import (
	"fmt"
	"math"

	"ucudnn/internal/blas"
	"ucudnn/internal/tensor"
)

// FC is a fully-connected (inner product) layer: flattens each sample and
// applies y = W x + b, with W stored (out x in) row-major.
type FC struct {
	name    string
	out     int
	in      int
	inShape tensor.Shape
	weight  *Param
	bias    *Param
}

// NewFC builds a fully-connected layer with out output units.
func NewFC(name string, out int) *FC { return &FC{name: name, out: out} }

// Name implements Layer.
func (l *FC) Name() string { return l.name }

// Params implements Layer.
func (l *FC) Params() []*Param { return []*Param{l.weight, l.bias} }

// Setup implements Layer.
func (l *FC) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) != 1 {
		return tensor.Shape{}, fmt.Errorf("fc %s: want 1 bottom", l.name)
	}
	l.inShape = bottoms[0]
	l.in = bottoms[0].C * bottoms[0].H * bottoms[0].W
	l.weight = newParam(ctx, l.name+".weight", l.out*l.in)
	l.bias = newParam(ctx, l.name+".bias", l.out)
	scale := float32(math.Sqrt(2.0 / float64(l.in)))
	tensor.FillUniform(l.weight.Data, ctx.RNG, scale)
	if err := ctx.Cudnn.Mem().Alloc(2 * int64(l.out) * int64(l.in+1) * 4); err != nil {
		return tensor.Shape{}, err
	}
	return tensor.Shape{N: bottoms[0].N, C: l.out, H: 1, W: 1}, nil
}

// Forward implements Layer.
func (l *FC) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	n := l.inShape.N
	ctx.ChargeGemm(int64(n), int64(l.out), int64(l.in))
	if ctx.SkipCompute {
		return nil
	}
	// top (n x out) = x (n x in) * Wᵀ (in x out)
	blas.Sgemm(false, true, n, l.out, l.in,
		1, bottoms[0].Data, l.in, l.weight.Data, l.in, 0,
		top.Data, l.out)
	for i := 0; i < n; i++ {
		row := top.Data[i*l.out : (i+1)*l.out]
		for j := range row {
			row[j] += l.bias.Data[j]
		}
	}
	return nil
}

// Backward implements Layer.
func (l *FC) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	n := l.inShape.N
	ctx.ChargeGemm(int64(l.out), int64(l.in), int64(n)) // dW
	ctx.ChargeGemm(int64(n), int64(l.in), int64(l.out)) // dX
	if ctx.SkipCompute {
		return nil
	}
	// dW (out x in) += dYᵀ (out x n) * X (n x in)
	blas.Sgemm(true, false, l.out, l.in, n,
		1, dTop.Data, l.out, bottoms[0].Data, l.in, 1,
		l.weight.Grad, l.in)
	// db += column sums of dY
	for i := 0; i < n; i++ {
		row := dTop.Data[i*l.out : (i+1)*l.out]
		for j := range row {
			l.bias.Grad[j] += row[j]
		}
	}
	// dX (n x in) = dY (n x out) * W (out x in)
	blas.Sgemm(false, false, n, l.in, l.out,
		1, dTop.Data, l.out, l.weight.Data, l.in, 0,
		dBottoms[0].Data, l.in)
	return nil
}

// SoftmaxLoss fuses softmax and cross-entropy against integer labels. Its
// top is a (1,1,1,1) blob holding the mean loss; Backward seeds the
// bottom gradient itself (ignoring dTop), as Caffe's loss layers do.
type SoftmaxLoss struct {
	name    string
	in      tensor.Shape
	classes int
	// Labels must be set before Forward (length N).
	Labels []int
	probs  []float32
	// Loss holds the last forward loss value.
	Loss float32
}

// NewSoftmaxLoss builds the loss layer.
func NewSoftmaxLoss(name string) *SoftmaxLoss { return &SoftmaxLoss{name: name} }

// Name implements Layer.
func (l *SoftmaxLoss) Name() string { return l.name }

// Params implements Layer.
func (l *SoftmaxLoss) Params() []*Param { return nil }

// Setup implements Layer.
func (l *SoftmaxLoss) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) != 1 {
		return tensor.Shape{}, fmt.Errorf("softmax %s: want 1 bottom", l.name)
	}
	if bottoms[0].H != 1 || bottoms[0].W != 1 {
		return tensor.Shape{}, fmt.Errorf("softmax %s: want flattened bottom, got %v", l.name, bottoms[0])
	}
	l.in = bottoms[0]
	l.classes = bottoms[0].C
	if !ctx.SkipCompute {
		l.probs = make([]float32, l.in.Elems())
	}
	return tensor.Shape{N: 1, C: 1, H: 1, W: 1}, nil
}

// Forward implements Layer.
func (l *SoftmaxLoss) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	ctx.ChargeMem(2 * l.in.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	n := l.in.N
	if len(l.Labels) != n {
		return fmt.Errorf("softmax %s: %d labels for batch %d", l.name, len(l.Labels), n)
	}
	var total float64
	for i := 0; i < n; i++ {
		row := bottoms[0].Data[i*l.classes : (i+1)*l.classes]
		probs := l.probs[i*l.classes : (i+1)*l.classes]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			probs[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range probs {
			probs[j] *= inv
		}
		p := probs[l.Labels[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(float64(p))
	}
	l.Loss = float32(total / float64(n))
	top.Data[0] = l.Loss
	return nil
}

// Backward implements Layer.
func (l *SoftmaxLoss) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(2 * l.in.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	n := l.in.N
	inv := 1 / float32(n)
	for i := 0; i < n; i++ {
		probs := l.probs[i*l.classes : (i+1)*l.classes]
		drow := dBottoms[0].Data[i*l.classes : (i+1)*l.classes]
		for j := range drow {
			drow[j] = probs[j] * inv
		}
		drow[l.Labels[i]] -= inv
	}
	return nil
}
