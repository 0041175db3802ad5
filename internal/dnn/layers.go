package dnn

import (
	"fmt"
	"math"

	"ucudnn/internal/tensor"
)

// ReLU is the rectified linear activation. Both passes are element-wise,
// so they spread contiguous element ranges over the engine's workers.
type ReLU struct {
	name  string
	shape tensor.Shape
	fork  *forkJoin
}

// NewReLU builds a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// Setup implements Layer.
func (l *ReLU) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) != 1 {
		return tensor.Shape{}, fmt.Errorf("relu %s: want 1 bottom", l.name)
	}
	l.shape = bottoms[0]
	if !ctx.SkipCompute {
		l.fork = newForkJoin(ceilDiv(l.shape.Elems(), forkGrain), l.work)
	}
	return bottoms[0], nil
}

// work is worker w's share of the pass: a contiguous range of elements.
// The sign of an activation is a coin toss, so the pass is written as a
// select on the bits, not a branch: x > 0 exactly when its bits lie in
// [1, +Inf's] (that leaves out both zeros, the negatives and every NaN).
func (l *ReLU) work(w, workers int) {
	pass := &l.fork.pass
	lo, hi := share(len(pass.x), w, workers)
	// Forward passes x itself where it is positive, backward dy.
	x, from, out := pass.x[lo:hi], pass.x[lo:hi], pass.y[lo:hi]
	if pass.backward {
		from, out = pass.dy[lo:hi], pass.dx[lo:hi]
	}
	const inf = 0x7f800000
	for i, v := range x {
		var bits uint32
		if p := math.Float32bits(from[i]); math.Float32bits(v)-1 < inf {
			bits = p
		}
		out[i] = math.Float32frombits(bits)
	}
}

// Forward implements Layer.
func (l *ReLU) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	ctx.ChargeMem(2 * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	l.fork.forward(ceilDiv(l.shape.Elems(), forkGrain), bottoms[0].Data, top.Data)
	return nil
}

// Backward implements Layer.
func (l *ReLU) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(3 * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	l.fork.backward(ceilDiv(l.shape.Elems(), forkGrain), bottoms[0].Data, top.Data, dTop.Data, dBottoms[0].Data)
	return nil
}

// PoolKind selects max or average pooling.
type PoolKind int

const (
	// MaxPool takes the window maximum.
	MaxPool PoolKind = iota
	// AvgPool takes the window average (counting only in-bounds elements,
	// Caffe's convention).
	AvgPool
)

// Pool is a spatial pooling layer. A channel plane's windows read and
// write that plane alone, so both passes spread the N*C planes over the
// engine's workers; within a plane the walk is the definition's, window
// by window in h-then-w order.
type Pool struct {
	name           string
	kind           PoolKind
	kernel, stride int
	pad            int
	in, out        tensor.Shape
	argmax         []int32
	fork           *forkJoin
}

// NewPool builds a pooling layer.
func NewPool(name string, kind PoolKind, kernel, stride, pad int) *Pool {
	return &Pool{name: name, kind: kind, kernel: kernel, stride: stride, pad: pad}
}

// Name implements Layer.
func (l *Pool) Name() string { return l.name }

// Params implements Layer.
func (l *Pool) Params() []*Param { return nil }

// Setup implements Layer.
func (l *Pool) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) != 1 {
		return tensor.Shape{}, fmt.Errorf("pool %s: want 1 bottom", l.name)
	}
	in := bottoms[0]
	// Caffe's pooling output dims (ceil mode).
	oh := int(math.Ceil(float64(in.H+2*l.pad-l.kernel)/float64(l.stride))) + 1
	ow := int(math.Ceil(float64(in.W+2*l.pad-l.kernel)/float64(l.stride))) + 1
	if l.pad > 0 {
		// Clip windows that start inside the padding entirely.
		if (oh-1)*l.stride >= in.H+l.pad {
			oh--
		}
		if (ow-1)*l.stride >= in.W+l.pad {
			ow--
		}
	}
	if oh <= 0 || ow <= 0 {
		return tensor.Shape{}, fmt.Errorf("pool %s: empty output", l.name)
	}
	l.in = in
	l.out = tensor.Shape{N: in.N, C: in.C, H: oh, W: ow}
	if !ctx.SkipCompute {
		if l.kind == MaxPool {
			l.argmax = make([]int32, l.out.Elems())
		}
		l.fork = newForkJoin(l.units(), l.work)
	}
	return l.out, nil
}

// units is the work a pass offers the fork: the planes, or fewer when
// they are too small to be worth a worker each.
func (l *Pool) units() int {
	return imin(l.in.N*l.in.C, ceilDiv(l.in.Elems(), forkGrain))
}

// work is worker w's share of the pass: a contiguous range of planes.
func (l *Pool) work(w, workers int) {
	lo, hi := share(l.in.N*l.in.C, w, workers)
	for p := lo; p < hi; p++ {
		if l.fork.pass.backward {
			l.backwardPlane(p)
		} else {
			l.forwardPlane(p)
		}
	}
}

// window clips output position o's window along one axis of extent n.
func (l *Pool) window(o, n int) (lo, hi int) {
	lo = o*l.stride - l.pad
	return imax(lo, 0), imin(lo+l.kernel, n)
}

// Forward implements Layer.
func (l *Pool) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	ctx.ChargeMem(l.in.Bytes() + l.out.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	l.fork.forward(l.units(), bottoms[0].Data, top.Data)
	return nil
}

// forwardPlane pools plane p = n*C+c.
func (l *Pool) forwardPlane(p int) {
	inHW, outHW := l.in.H*l.in.W, l.out.H*l.out.W
	x, y := l.fork.pass.x[p*inHW:(p+1)*inHW], l.fork.pass.y[p*outHW:(p+1)*outHW]
	if l.kind == MaxPool {
		l.maxPlane(x, y, l.argmax[p*outHW:(p+1)*outHW], int32(p*inHW))
	} else {
		l.avgPlane(x, y)
	}
}

// maxPlane max-pools one plane, recording each maximum in arg as base
// plus its index in the plane, or -1 where nothing exceeds -Inf.
func (l *Pool) maxPlane(x, y []float32, arg []int32, base int32) {
	outW := l.out.W
	for oh := 0; oh < l.out.H; oh++ {
		h0, h1 := l.window(oh, l.in.H)
		maxPoolRow(x, l.in.W, h0, h1, y[oh*outW:(oh+1)*outW], arg[oh*outW:(oh+1)*outW], base, l.kernel, l.stride, l.pad)
	}
}

// maxPoolRow max-pools rows [h0, h1) of plane x into one output row over
// row slices, keeping the first maximum in h-then-w order (strict >). The
// running maximum is carried as bits beside its index so that the update
// is two integer selects: taken-or-not is a coin toss on real
// activations, and a branch there costs more than the compares of a
// window. Its own function, and not inlined, so that the window loops
// have the registers to themselves.
//
//go:noinline
func maxPoolRow(x []float32, inW, h0, h1 int, y []float32, arg []int32, base int32, kernel, stride, pad int) {
	for ow := range y {
		w0 := ow*stride - pad
		w1 := imin(w0+kernel, inW)
		w0 = imax(w0, 0)
		best := float32(math.Inf(-1))
		bestBits, bestIdx := math.Float32bits(best), -1-int(base)
		for h := h0; h < h1; h++ {
			at := h*inW + w0
			for j, v := range x[at : at+w1-w0] {
				vb, vi := math.Float32bits(v), at+j
				if v > best {
					bestBits, bestIdx = vb, vi
				}
				best = math.Float32frombits(bestBits)
			}
		}
		y[ow] = best
		arg[ow] = base + int32(bestIdx)
	}
}

// avgPlane average-pools one plane: window sums in h-then-w order over
// the in-bounds elements, divided by their count (Caffe's convention).
func (l *Pool) avgPlane(x, y []float32) {
	inW, outW := l.in.W, l.out.W
	for oh := 0; oh < l.out.H; oh++ {
		h0, h1 := l.window(oh, l.in.H)
		for ow := 0; ow < outW; ow++ {
			w0, w1 := l.window(ow, inW)
			var sum float32
			for h := h0; h < h1; h++ {
				for _, v := range x[h*inW+w0 : h*inW+w1] {
					sum += v
				}
			}
			y[oh*outW+ow] = sum / float32((h1-h0)*(w1-w0))
		}
	}
}

// Backward implements Layer.
func (l *Pool) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(l.in.Bytes() + l.out.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	l.fork.backward(l.units(), bottoms[0].Data, top.Data, dTop.Data, dBottoms[0].Data)
	return nil
}

// backwardPlane routes plane p's output gradients back: to the recorded
// maximum, or spread evenly over the window, in output order.
func (l *Pool) backwardPlane(p int) {
	inW, outW := l.in.W, l.out.W
	dx := l.fork.pass.dx[p*l.in.H*inW : (p+1)*l.in.H*inW]
	dy := l.fork.pass.dy[p*l.out.H*outW : (p+1)*l.out.H*outW]
	clear(dx)
	if l.kind == MaxPool {
		for oi, src := range l.argmax[p*len(dy) : (p+1)*len(dy)] {
			if src >= 0 {
				l.fork.pass.dx[src] += dy[oi]
			}
		}
		return
	}
	for oh := 0; oh < l.out.H; oh++ {
		h0, h1 := l.window(oh, l.in.H)
		for ow := 0; ow < outW; ow++ {
			w0, w1 := l.window(ow, inW)
			g := dy[oh*outW+ow] / float32((h1-h0)*(w1-w0))
			for h := h0; h < h1; h++ {
				row := dx[h*inW+w0 : h*inW+w1]
				for j := range row {
					row[j] += g
				}
			}
		}
	}
}

// GlobalAvgPool averages each channel plane to 1x1.
type GlobalAvgPool struct {
	name string
	in   tensor.Shape
}

// NewGlobalAvgPool builds a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (l *GlobalAvgPool) Name() string { return l.name }

// Params implements Layer.
func (l *GlobalAvgPool) Params() []*Param { return nil }

// Setup implements Layer.
func (l *GlobalAvgPool) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) != 1 {
		return tensor.Shape{}, fmt.Errorf("gap %s: want 1 bottom", l.name)
	}
	l.in = bottoms[0]
	return tensor.Shape{N: l.in.N, C: l.in.C, H: 1, W: 1}, nil
}

// Forward implements Layer.
func (l *GlobalAvgPool) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	ctx.ChargeMem(l.in.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	plane := l.in.H * l.in.W
	inv := 1 / float32(plane)
	for n := 0; n < l.in.N; n++ {
		for c := 0; c < l.in.C; c++ {
			base := bottoms[0].Index(n, c, 0, 0)
			var s float32
			for i := 0; i < plane; i++ {
				s += bottoms[0].Data[base+i]
			}
			top.Set(n, c, 0, 0, s*inv)
		}
	}
	return nil
}

// Backward implements Layer.
func (l *GlobalAvgPool) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(l.in.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	plane := l.in.H * l.in.W
	inv := 1 / float32(plane)
	for n := 0; n < l.in.N; n++ {
		for c := 0; c < l.in.C; c++ {
			g := dTop.At(n, c, 0, 0) * inv
			base := dBottoms[0].Index(n, c, 0, 0)
			for i := 0; i < plane; i++ {
				dBottoms[0].Data[base+i] = g
			}
		}
	}
	return nil
}

// Add is the elementwise sum of its bottoms (residual connections).
type Add struct {
	name  string
	shape tensor.Shape
	arity int
}

// NewAdd builds an elementwise-sum layer.
func NewAdd(name string) *Add { return &Add{name: name} }

// Name implements Layer.
func (l *Add) Name() string { return l.name }

// Params implements Layer.
func (l *Add) Params() []*Param { return nil }

// Setup implements Layer.
func (l *Add) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) < 2 {
		return tensor.Shape{}, fmt.Errorf("add %s: want >=2 bottoms", l.name)
	}
	for _, b := range bottoms[1:] {
		if b != bottoms[0] {
			return tensor.Shape{}, fmt.Errorf("add %s: shape mismatch %v vs %v", l.name, b, bottoms[0])
		}
	}
	l.shape = bottoms[0]
	l.arity = len(bottoms)
	return bottoms[0], nil
}

// Forward implements Layer.
func (l *Add) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	ctx.ChargeMem(int64(l.arity+1) * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	copy(top.Data, bottoms[0].Data)
	for _, b := range bottoms[1:] {
		for i, v := range b.Data {
			top.Data[i] += v
		}
	}
	return nil
}

// Backward implements Layer.
func (l *Add) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(int64(l.arity+1) * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	for _, db := range dBottoms {
		copy(db.Data, dTop.Data)
	}
	return nil
}

// Concat concatenates its bottoms along the channel axis (Inception,
// DenseNet).
type Concat struct {
	name string
	in   []tensor.Shape
	out  tensor.Shape
}

// NewConcat builds a channel concatenation layer.
func NewConcat(name string) *Concat { return &Concat{name: name} }

// Name implements Layer.
func (l *Concat) Name() string { return l.name }

// Params implements Layer.
func (l *Concat) Params() []*Param { return nil }

// Setup implements Layer.
func (l *Concat) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) < 1 {
		return tensor.Shape{}, fmt.Errorf("concat %s: want >=1 bottom", l.name)
	}
	c := 0
	for _, b := range bottoms {
		if b.N != bottoms[0].N || b.H != bottoms[0].H || b.W != bottoms[0].W {
			return tensor.Shape{}, fmt.Errorf("concat %s: spatial mismatch", l.name)
		}
		c += b.C
	}
	l.in = append([]tensor.Shape{}, bottoms...)
	l.out = tensor.Shape{N: bottoms[0].N, C: c, H: bottoms[0].H, W: bottoms[0].W}
	return l.out, nil
}

// Forward implements Layer.
func (l *Concat) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	ctx.ChargeMem(2 * l.out.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	for n := 0; n < l.out.N; n++ {
		cOff := 0
		for bi, b := range bottoms {
			sz := l.in[bi].C * l.in[bi].H * l.in[bi].W
			copy(top.Data[top.Index(n, cOff, 0, 0):top.Index(n, cOff, 0, 0)+sz],
				b.Data[b.Index(n, 0, 0, 0):b.Index(n, 0, 0, 0)+sz])
			cOff += l.in[bi].C
		}
	}
	return nil
}

// Backward implements Layer.
func (l *Concat) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(2 * l.out.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	for n := 0; n < l.out.N; n++ {
		cOff := 0
		for bi, db := range dBottoms {
			sz := l.in[bi].C * l.in[bi].H * l.in[bi].W
			copy(db.Data[db.Index(n, 0, 0, 0):db.Index(n, 0, 0, 0)+sz],
				dTop.Data[dTop.Index(n, cOff, 0, 0):dTop.Index(n, cOff, 0, 0)+sz])
			cOff += l.in[bi].C
		}
	}
	return nil
}

// Dropout zeroes a fraction of activations at training time, scaling the
// survivors (inverted dropout); identity at inference.
type Dropout struct {
	name  string
	ratio float32
	shape tensor.Shape
	mask  []bool
}

// NewDropout builds a dropout layer.
func NewDropout(name string, ratio float32) *Dropout {
	return &Dropout{name: name, ratio: ratio}
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.name }

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// Setup implements Layer.
func (l *Dropout) Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error) {
	if len(bottoms) != 1 {
		return tensor.Shape{}, fmt.Errorf("dropout %s: want 1 bottom", l.name)
	}
	l.shape = bottoms[0]
	if !ctx.SkipCompute {
		l.mask = make([]bool, l.shape.Elems())
	}
	return bottoms[0], nil
}

// Forward implements Layer.
func (l *Dropout) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	ctx.ChargeMem(2 * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	if !ctx.Training {
		copy(top.Data, bottoms[0].Data)
		return nil
	}
	scale := 1 / (1 - l.ratio)
	for i, v := range bottoms[0].Data {
		if ctx.RNG.Float32() < l.ratio {
			l.mask[i] = false
			top.Data[i] = 0
		} else {
			l.mask[i] = true
			top.Data[i] = v * scale
		}
	}
	return nil
}

// Backward implements Layer.
func (l *Dropout) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(2 * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	if !ctx.Training {
		copy(dBottoms[0].Data, dTop.Data)
		return nil
	}
	scale := 1 / (1 - l.ratio)
	for i := range dTop.Data {
		if l.mask[i] {
			dBottoms[0].Data[i] = dTop.Data[i] * scale
		} else {
			dBottoms[0].Data[i] = 0
		}
	}
	return nil
}

func imin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func imax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// InPlace marks ReLU as in-place eligible (Caffe's convention).
func (l *ReLU) InPlace() bool { return true }

// InPlace marks Dropout as in-place eligible.
func (l *Dropout) InPlace() bool { return true }

// InPlace marks Concat as in-place eligible: memory-efficient DenseNet
// implementations write each layer's output directly into a shared
// per-block buffer, so the concatenation consumes no memory beyond its
// (already-counted) inputs.
func (l *Concat) InPlace() bool { return true }
