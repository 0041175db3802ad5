package dnn

import (
	"fmt"
	"math"

	"ucudnn/internal/blas"
	"ucudnn/internal/tensor"
)

// forkGrain is the number of tensor elements below which a second worker
// costs more than it saves: the element-wise layers offer one unit of
// work per forkGrain elements.
const forkGrain = 1 << 14

// layerPass is what a forked layer keeps once its context computes (a
// planning layer keeps a nil pointer): the body every worker runs, a
// method value built in Setup so that a pass allocates nothing; the
// widest fork, which sizes any per-worker scratch (the units of work,
// capped by the worker cap at Setup, as conv sizes its strips); and the
// pass in flight, which the body reads. Forward reads x and writes y,
// backward reads dy (and what of x, y the layer's gradient needs) and
// writes dx. Every worker takes a range of independent samples, planes
// or elements, so results do not depend on the worker count.
type layerPass struct {
	body         func(w, lo, hi int)
	width        int
	back         bool
	x, y, dy, dx []float32
}

func newLayerPass(units int, body func(w, lo, hi int)) *layerPass {
	return &layerPass{body: body, width: max(1, min(blas.MaxWorkers(), units))}
}

// fork stores the pass in flight and forks it over n items, on as many
// of its workers as the worker cap now allows.
func (p *layerPass) fork(n int, back bool, x, y, dy, dx []float32) {
	p.back, p.x, p.y, p.dy, p.dx = back, x, y, dy, dx
	blas.Fork(min(blas.MaxWorkers(), p.width), n, p.body)
}

// ReLU is the rectified linear activation. Both passes are element-wise,
// so they spread contiguous element ranges over the engine's workers.
type ReLU struct {
	name  string
	shape tensor.Shape
	pass  *layerPass
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
		l.pass = newLayerPass(ceilDiv(l.shape.Elems(), forkGrain), l.work)
	}
	return bottoms[0], nil
}

// work is one worker's share of the pass: the elements [lo, hi).
// The sign of an activation is a coin toss, so the pass is written as a
// select on the bits, not a branch: x > 0 exactly when its bits lie in
// [1, +Inf's] (that leaves out both zeros, the negatives and every NaN).
func (l *ReLU) work(_, lo, hi int) {
	pass := l.pass
	// Forward passes x itself where it is positive, backward dy.
	x, from, out := pass.x[lo:hi], pass.x[lo:hi], pass.y[lo:hi]
	if pass.back {
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
	l.pass.fork(l.shape.Elems(), false, bottoms[0].Data, top.Data, nil, nil)
	return nil
}

// Backward implements Layer.
func (l *ReLU) Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error {
	ctx.ChargeMem(3 * l.shape.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	l.pass.fork(l.shape.Elems(), true, bottoms[0].Data, top.Data, dTop.Data, dBottoms[0].Data)
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
// engine's workers. Average pooling walks the definition, window by
// window in h-then-w order; max pooling takes the same first maximum in
// two passes of one vector merge body (maxPlane).
type Pool struct {
	name           string
	kind           PoolKind
	kernel, stride int
	pad            int
	in, out        tensor.Shape
	pass           *layerPass
	max            *maxPoolState // max pooling in a computing context
}

// maxPoolState is what max pooling keeps beside the layer: argmax, and
// the scratch of the two merge passes (maxPlane). Per worker: the
// horizontal window maxima, one per (input row, output column), with
// their indices, and the indices of the plane in flight, which the merge
// body reads beside x. Shared: the empty start every pass copies in,
// -Inf with index -1.
type maxPoolState struct {
	argmax        []int32
	rowMax        []float32
	rowArg, index []int32
	noMax         []float32
	noArg         []int32
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
		// A worker per plane, or fewer when planes are too small for one.
		l.pass = newLayerPass(min(in.N*in.C, ceilDiv(in.Elems(), forkGrain)), l.work)
		if l.kind == MaxPool {
			per, workers := in.H*l.out.W, l.pass.width
			m := &maxPoolState{
				argmax: make([]int32, l.out.Elems()),
				rowMax: make([]float32, workers*per),
				rowArg: make([]int32, workers*per),
				index:  make([]int32, workers*(in.H*in.W+1)), // +1: poolMerge's stride-2 reads
				noMax:  make([]float32, max(per, l.out.H*l.out.W)),
			}
			m.noArg = make([]int32, len(m.noMax))
			for i := range m.noMax {
				m.noMax[i], m.noArg[i] = float32(math.Inf(-1)), -1
			}
			l.max = m
		}
	}
	return l.out, nil
}

// work is worker w's share of the pass: the planes [lo, hi).
func (l *Pool) work(w, lo, hi int) {
	for p := lo; p < hi; p++ {
		if l.pass.back {
			l.backwardPlane(p)
		} else {
			l.forwardPlane(w, p)
		}
	}
}

// window clips output position o's window along one axis of extent n.
func (l *Pool) window(o, n int) (lo, hi int) {
	lo = o*l.stride - l.pad
	return max(lo, 0), min(lo+l.kernel, n)
}

// Forward implements Layer.
func (l *Pool) Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error {
	ctx.ChargeMem(l.in.Bytes() + l.out.Bytes())
	if ctx.SkipCompute {
		return nil
	}
	l.pass.fork(l.in.N*l.in.C, false, bottoms[0].Data, top.Data, nil, nil)
	return nil
}

// forwardPlane pools plane p = n*C+c on worker w.
func (l *Pool) forwardPlane(w, p int) {
	inHW, outHW := l.in.H*l.in.W, l.out.H*l.out.W
	y := l.pass.y[p*outHW : (p+1)*outHW]
	if l.kind == MaxPool {
		// The merge body's last stride-2 group of a row reads one element
		// past it, so x runs on past the plane (to the tensor's end).
		l.maxPlane(w, l.pass.x[p*inHW:], y, l.max.argmax[p*outHW:(p+1)*outHW], int32(p*inHW))
	} else {
		l.avgPlane(l.pass.x[p*inHW:(p+1)*inHW], y)
	}
}

// maxPlane max-pools the plane x starts with on worker w, recording each
// maximum in arg as base plus its index in the plane, or -1 where nothing
// exceeds -Inf. A window's first maximum in h-then-w order (strict >) is
// the first, over its rows, of each row's first maximum, so the plane
// goes through two passes of poolMerge, each from -Inf and index -1:
//   - horizontal: the window maxima of every input row, one per output
//     column, into the worker's scratch;
//   - vertical: every output row merges its window's scratch rows, which
//     are contiguous at every stride.
//
// Each pass merges one tap (window column or row) at a time into every
// window that holds it, which is all of them but those padding clips:
// the order within a window, and so the first maximum, is unchanged.
func (l *Pool) maxPlane(w int, x, y []float32, arg []int32, base int32) {
	inW, outW, s, pad := l.in.W, l.out.W, l.stride, l.pad
	_, rows := l.window(l.out.H-1, l.in.H) // every window lies in rows [0, rows)
	per := l.in.H * outW
	m := l.max
	hm, ha := m.rowMax[w*per:w*per+rows*outW], m.rowArg[w*per:w*per+rows*outW]
	copy(hm, m.noMax)
	copy(ha, m.noArg)
	idx := m.index[w*(l.in.H*inW+1) : (w+1)*(l.in.H*inW+1)]
	for i := range idx { // one pass here, instead of adding base to arg after
		idx[i] = base + int32(i)
	}
	for t := 0; t < l.kernel; t++ {
		if lo, hi := l.taps(t, outW, inW); lo < hi {
			at := lo*s - pad + t
			poolMerge(hm[lo:], ha[lo:], outW, x[at:], idx[at:], inW, rows, hi-lo, s)
		}
	}
	copy(y, m.noMax)
	copy(arg, m.noArg)
	for r := 0; r < l.kernel; r++ {
		if lo, hi := l.taps(r, l.out.H, rows); lo < hi {
			at := (lo*s - pad + r) * outW
			poolMerge(y[lo*outW:], arg[lo*outW:], outW, hm[at:], ha[at:], s*outW, hi-lo, outW, 1)
		}
	}
}

// taps is the range [lo, hi) of output positions, of out along an axis
// of extent n, whose window holds tap t: input position o*stride-pad+t.
func (l *Pool) taps(t, out, n int) (lo, hi int) {
	lo = ceilDiv(max(l.pad-t, 0), l.stride)
	if last := n - 1 + l.pad - t; last >= 0 {
		hi = min(last/l.stride+1, out)
	}
	return lo, hi
}

// poolMerge is max pooling's one vector body. For rows rows of n lanes,
// where s[r*sRow+i*stride] > d[r*dRow+i], it sets that d to that s and
// di[r*dRow+i] = si[r*sRow+i*stride]. With AVX, rows of at least eight
// lanes at stride 1 or 2 run eight lanes at a time (pool_amd64.s); the
// rest, and a last row whose stride-2 groups would read past the end of
// s, go through poolMergeGeneric.
func poolMerge(d []float32, di []int32, dRow int, s []float32, si []int32, sRow, rows, n, stride int) {
	if !poolAVX || n < 8 || stride > 2 {
		poolMergeGeneric(d, di, dRow, s, si, sRow, rows, n, stride)
		return
	}
	if end := (rows-1)*sRow + stride*n; end > len(s) || end > len(si) {
		// Only the last row can be short, by the one element a stride-2
		// group reads past its last lane.
		if rows > 1 {
			poolMerge(d, di, dRow, s, si, sRow, rows-1, n, stride)
		}
		o, so := (rows-1)*dRow, (rows-1)*sRow
		poolMergeGeneric(d[o:], di[o:], dRow, s[so:], si[so:], sRow, 1, n, stride)
		return
	}
	_, _ = d[(rows-1)*dRow+n-1], di[(rows-1)*dRow+n-1]
	_, _ = s[(rows-1)*sRow+stride*n-1], si[(rows-1)*sRow+stride*n-1]
	poolMergeAVX(&d[0], &di[0], dRow, &s[0], &si[0], sRow, rows, n, stride)
}

// poolMergeGeneric is poolMerge in Go: the AVX body's twin, and the whole
// merge off amd64.
func poolMergeGeneric(d []float32, di []int32, dRow int, s []float32, si []int32, sRow, rows, n, stride int) {
	for r := 0; r < rows; r++ {
		dr, ir := d[r*dRow:r*dRow+n], di[r*dRow:r*dRow+n]
		for i, dv := range dr {
			if v := s[r*sRow+i*stride]; v > dv {
				dr[i], ir[i] = v, si[r*sRow+i*stride]
			}
		}
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
	l.pass.fork(l.in.N*l.in.C, true, bottoms[0].Data, top.Data, dTop.Data, dBottoms[0].Data)
	return nil
}

// backwardPlane routes plane p's output gradients back: to the recorded
// maximum, or spread evenly over the window, in output order.
func (l *Pool) backwardPlane(p int) {
	inW, outW := l.in.W, l.out.W
	dx := l.pass.dx[p*l.in.H*inW : (p+1)*l.in.H*inW]
	dy := l.pass.dy[p*l.out.H*outW : (p+1)*l.out.H*outW]
	clear(dx)
	if l.kind == MaxPool {
		for oi, src := range l.max.argmax[p*len(dy) : (p+1)*len(dy)] {
			if src >= 0 {
				l.pass.dx[src] += dy[oi]
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
