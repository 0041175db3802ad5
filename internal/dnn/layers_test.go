package dnn

import (
	"math"
	"math/rand"
	"testing"

	"ucudnn/internal/blas"
	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

func testCtx() *Context {
	h := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	return NewContext(h, h, 8<<20)
}

// gradCheckLayer verifies a layer's Backward against central differences
// of a random linear functional of its Forward.
func gradCheckLayer(t *testing.T, l Layer, inShapes []tensor.Shape, seed int64, tol float64) {
	t.Helper()
	ctx := testCtx()
	ctx.RNG = rand.New(rand.NewSource(seed))
	outShape, err := l.Setup(ctx, inShapes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 100))
	bottoms := make([]*tensor.Tensor, len(inShapes))
	for i, s := range inShapes {
		bottoms[i] = tensor.NewShaped(s)
		bottoms[i].Randomize(rng, 1)
	}
	top := tensor.NewShaped(outShape)
	g := tensor.NewShaped(outShape)
	g.Randomize(rng, 1)
	loss := func() float64 {
		if err := l.Forward(ctx, bottoms, top); err != nil {
			t.Fatal(err)
		}
		var s float64
		for i := range top.Data {
			s += float64(top.Data[i]) * float64(g.Data[i])
		}
		return s
	}
	loss() // populate forward caches
	dBottoms := make([]*tensor.Tensor, len(bottoms))
	for i := range dBottoms {
		dBottoms[i] = tensor.NewShaped(bottoms[i].Shape)
	}
	for _, p := range l.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
	if err := l.Backward(ctx, bottoms, top, g, dBottoms); err != nil {
		t.Fatal(err)
	}
	const h = 1e-2
	check := func(name string, data []float32, grad []float32, idxs []int) {
		for _, i := range idxs {
			orig := data[i]
			data[i] = orig + h
			lp := loss()
			data[i] = orig - h
			lm := loss()
			data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-float64(grad[i])) > tol*(1+math.Abs(num)) {
				t.Errorf("%s: %s[%d] numeric %g analytic %g", l.Name(), name, i, num, grad[i])
			}
		}
	}
	for bi := range bottoms {
		n := len(bottoms[bi].Data)
		check("bottom", bottoms[bi].Data, dBottoms[bi].Data, []int{0, n / 3, n - 1})
	}
	for _, p := range l.Params() {
		n := len(p.Data)
		check(p.Name, p.Data, p.Grad, []int{0, n / 2, n - 1})
	}
}

func TestReLUGradient(t *testing.T) {
	gradCheckLayer(t, NewReLU("relu"), []tensor.Shape{{N: 2, C: 3, H: 4, W: 4}}, 1, 2e-2)
}

func TestMaxPoolGradient(t *testing.T) {
	gradCheckLayer(t, NewPool("pool", MaxPool, 3, 2, 0), []tensor.Shape{{N: 2, C: 2, H: 7, W: 7}}, 2, 2e-2)
}

func TestAvgPoolGradient(t *testing.T) {
	gradCheckLayer(t, NewPool("pool", AvgPool, 2, 2, 0), []tensor.Shape{{N: 2, C: 2, H: 6, W: 6}}, 3, 1e-2)
}

func TestAvgPoolPaddedGradient(t *testing.T) {
	gradCheckLayer(t, NewPool("pool", AvgPool, 3, 2, 1), []tensor.Shape{{N: 1, C: 2, H: 5, W: 5}}, 4, 1e-2)
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	gradCheckLayer(t, NewGlobalAvgPool("gap"), []tensor.Shape{{N: 2, C: 3, H: 5, W: 5}}, 5, 1e-2)
}

func TestAddGradient(t *testing.T) {
	s := tensor.Shape{N: 2, C: 2, H: 3, W: 3}
	gradCheckLayer(t, NewAdd("add"), []tensor.Shape{s, s, s}, 6, 1e-2)
}

func TestConcatGradient(t *testing.T) {
	gradCheckLayer(t, NewConcat("cat"),
		[]tensor.Shape{{N: 2, C: 2, H: 3, W: 3}, {N: 2, C: 3, H: 3, W: 3}}, 7, 1e-2)
}

func TestLRNGradient(t *testing.T) {
	gradCheckLayer(t, NewLRN("lrn"), []tensor.Shape{{N: 2, C: 8, H: 3, W: 3}}, 8, 2e-2)
}

func TestBatchNormGradient(t *testing.T) {
	gradCheckLayer(t, NewBatchNorm("bn"), []tensor.Shape{{N: 3, C: 2, H: 4, W: 4}}, 9, 5e-2)
}

func TestFCGradient(t *testing.T) {
	gradCheckLayer(t, NewFC("fc", 5), []tensor.Shape{{N: 3, C: 4, H: 2, W: 2}}, 10, 2e-2)
}

func TestConvLayerGradient(t *testing.T) {
	gradCheckLayer(t, NewConv("conv", 4, 3, 1, 1, true), []tensor.Shape{{N: 2, C: 3, H: 5, W: 5}}, 11, 2e-2)
}

func TestConvStridedGradient(t *testing.T) {
	gradCheckLayer(t, NewConv("conv", 3, 3, 2, 1, false), []tensor.Shape{{N: 2, C: 2, H: 7, W: 7}}, 12, 2e-2)
}

func TestDropoutInference(t *testing.T) {
	ctx := testCtx()
	ctx.Training = false
	l := NewDropout("drop", 0.5)
	s := tensor.Shape{N: 1, C: 2, H: 2, W: 2}
	if _, err := l.Setup(ctx, []tensor.Shape{s}); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewShaped(s)
	x.Fill(3)
	y := tensor.NewShaped(s)
	if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
		t.Fatal(err)
	}
	for _, v := range y.Data {
		if v != 3 {
			t.Fatal("inference dropout must be identity")
		}
	}
}

func TestDropoutTrainingMaskConsistency(t *testing.T) {
	ctx := testCtx()
	l := NewDropout("drop", 0.5)
	s := tensor.Shape{N: 1, C: 1, H: 8, W: 8}
	if _, err := l.Setup(ctx, []tensor.Shape{s}); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewShaped(s)
	x.Fill(1)
	y := tensor.NewShaped(s)
	if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range y.Data {
		if v == 0 {
			zeros++
		} else if v != 2 { // inverted dropout scale 1/(1-0.5)
			t.Fatalf("unexpected survivor value %v", v)
		}
	}
	if zeros == 0 || zeros == len(y.Data) {
		t.Fatalf("implausible dropout mask: %d zeros", zeros)
	}
	// Backward uses the same mask.
	dTop := tensor.NewShaped(s)
	dTop.Fill(1)
	dx := tensor.NewShaped(s)
	if err := l.Backward(ctx, []*tensor.Tensor{x}, y, dTop, []*tensor.Tensor{dx}); err != nil {
		t.Fatal(err)
	}
	for i := range dx.Data {
		if (y.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("backward mask mismatch")
		}
	}
}

func TestSoftmaxLossGradient(t *testing.T) {
	ctx := testCtx()
	l := NewSoftmaxLoss("loss")
	s := tensor.Shape{N: 3, C: 4, H: 1, W: 1}
	if _, err := l.Setup(ctx, []tensor.Shape{s}); err != nil {
		t.Fatal(err)
	}
	l.Labels = []int{1, 3, 0}
	rng := rand.New(rand.NewSource(13))
	x := tensor.NewShaped(s)
	x.Randomize(rng, 1)
	top := tensor.New(1, 1, 1, 1)
	if err := l.Forward(ctx, []*tensor.Tensor{x}, top); err != nil {
		t.Fatal(err)
	}
	dx := tensor.NewShaped(s)
	if err := l.Backward(ctx, []*tensor.Tensor{x}, top, nil, []*tensor.Tensor{dx}); err != nil {
		t.Fatal(err)
	}
	const h = 1e-2
	for _, i := range []int{0, 5, 11} {
		orig := x.Data[i]
		x.Data[i] = orig + h
		l.Forward(ctx, []*tensor.Tensor{x}, top)
		lp := float64(l.Loss)
		x.Data[i] = orig - h
		l.Forward(ctx, []*tensor.Tensor{x}, top)
		lm := float64(l.Loss)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-float64(dx.Data[i])) > 2e-2*(1+math.Abs(num)) {
			t.Errorf("softmax dx[%d]: numeric %g analytic %g", i, num, dx.Data[i])
		}
	}
}

func TestSoftmaxLossDecreasesWithConfidence(t *testing.T) {
	ctx := testCtx()
	l := NewSoftmaxLoss("loss")
	s := tensor.Shape{N: 1, C: 3, H: 1, W: 1}
	l.Setup(ctx, []tensor.Shape{s})
	l.Labels = []int{0}
	x := tensor.NewShaped(s)
	top := tensor.New(1, 1, 1, 1)
	x.Data[0] = 0
	l.Forward(ctx, []*tensor.Tensor{x}, top)
	uniform := l.Loss
	x.Data[0] = 5
	l.Forward(ctx, []*tensor.Tensor{x}, top)
	if l.Loss >= uniform {
		t.Fatal("confident correct logit must lower the loss")
	}
}

func TestPoolCaffeOutputDims(t *testing.T) {
	// AlexNet pool1: 55x55, kernel 3, stride 2 -> 27x27 (ceil mode).
	ctx := testCtx()
	l := NewPool("p", MaxPool, 3, 2, 0)
	out, err := l.Setup(ctx, []tensor.Shape{{N: 1, C: 1, H: 55, W: 55}})
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 27 || out.W != 27 {
		t.Fatalf("pool out = %v, want 27x27", out)
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	ctx := testCtx()
	l := NewBatchNorm("bn")
	s := tensor.Shape{N: 4, C: 2, H: 3, W: 3}
	l.Setup(ctx, []tensor.Shape{s})
	rng := rand.New(rand.NewSource(14))
	x := tensor.NewShaped(s)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*4 + 10 // mean ~12, nonzero
	}
	y := tensor.NewShaped(s)
	if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
		t.Fatal(err)
	}
	// Per-channel output mean ~0, variance ~1.
	plane := s.H * s.W
	for c := 0; c < s.C; c++ {
		var mean, msq float64
		for n := 0; n < s.N; n++ {
			base := y.Index(n, c, 0, 0)
			for i := 0; i < plane; i++ {
				v := float64(y.Data[base+i])
				mean += v
				msq += v * v
			}
		}
		m := float64(s.N * plane)
		mean /= m
		variance := msq/m - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d: mean %g var %g", c, mean, variance)
		}
	}
}

func TestSGDMomentum(t *testing.T) {
	p := &Param{Data: []float32{1}, Grad: []float32{1}}
	s := NewSGD(0.1, 0.9, 0)
	s.Step([]*Param{p})
	if math.Abs(float64(p.Data[0]-0.9)) > 1e-6 {
		t.Fatalf("after step 1: %v", p.Data[0])
	}
	// Velocity carries over: v = 0.9*0.1 + 0.1*1 = 0.19; w = 0.9-0.19.
	s.Step([]*Param{p})
	if math.Abs(float64(p.Data[0]-0.71)) > 1e-6 {
		t.Fatalf("after step 2: %v", p.Data[0])
	}
	// Weight decay pulls towards zero.
	sd := NewSGD(0.1, 0, 1)
	pd := &Param{Data: []float32{2}, Grad: []float32{0}}
	sd.Step([]*Param{pd})
	if pd.Data[0] >= 2 {
		t.Fatal("decay must shrink the weight")
	}
}

// BatchNorm inference mode uses running statistics accumulated during
// training.
func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	ctx := testCtx()
	l := NewBatchNorm("bn")
	s := tensor.Shape{N: 4, C: 2, H: 3, W: 3}
	if _, err := l.Setup(ctx, []tensor.Shape{s}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	x := tensor.NewShaped(s)
	y := tensor.NewShaped(s)
	// Several training steps accumulate running stats.
	for i := 0; i < 30; i++ {
		for j := range x.Data {
			x.Data[j] = rng.Float32()*2 + 5
		}
		if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
			t.Fatal(err)
		}
	}
	// Inference on a constant input: output must NOT be renormalized to
	// zero mean (it uses the running stats, not batch stats).
	ctx.Training = false
	x.Fill(5)
	if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range y.Data {
		mean += float64(v)
	}
	mean /= float64(len(y.Data))
	if math.Abs(mean) < 1e-3 {
		t.Fatal("inference BN renormalized the batch (used batch stats)")
	}
	// And it must be deterministic.
	y2 := tensor.NewShaped(s)
	if err := l.Forward(ctx, []*tensor.Tensor{x}, y2); err != nil {
		t.Fatal(err)
	}
	for i := range y.Data {
		if y.Data[i] != y2.Data[i] {
			t.Fatal("inference BN not deterministic")
		}
	}
}

// The timer also works over the real backend, attributing measured wall
// time to layers.
func TestNetTimeRealBackend(t *testing.T) {
	h := cudnn.NewHandle(device.P100, cudnn.RealBackend)
	ctx := NewContext(h, h, 1<<20)
	net, loss := buildTinyNet(ctx, 2)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	loss.Labels = []int{0, 1}
	rep, err := net.Time(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Layer("conv1").Forward <= 0 {
		t.Fatal("real-backend timing missing")
	}
}

// lrnForwardRef and lrnBackwardRef are the loops LRN ran before its
// plane-wise rewrite, kept as the definition of its bits: channels
// innermost through At()/Index(), math.Pow in both passes, the ratio
// term recomputed at every window position. Each product feeding an add
// is rounded explicitly, as in the layer, so that no compiler fuses it.
func lrnForwardRef(l *LRN, x, top *tensor.Tensor, denom []float32) {
	s := l.shape
	half := l.n / 2
	scale := l.alpha / float32(l.n)
	for n := 0; n < s.N; n++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				for c := 0; c < s.C; c++ {
					lo := max(0, c-half)
					hi := min(s.C-1, c+half)
					var acc float32
					for cc := lo; cc <= hi; cc++ {
						v := x.At(n, cc, h, w)
						acc += float32(v * v)
					}
					d := l.k + float32(scale*acc)
					idx := x.Index(n, c, h, w)
					denom[idx] = d
					top.Data[idx] = x.Data[idx] * float32(math.Pow(float64(d), -lrnBeta))
				}
			}
		}
	}
}

func lrnBackwardRef(l *LRN, x, top, dTop, dx *tensor.Tensor, denom []float32) {
	s := l.shape
	half := l.n / 2
	scale := l.alpha / float32(l.n)
	for n := 0; n < s.N; n++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				for c := 0; c < s.C; c++ {
					idx := x.Index(n, c, h, w)
					d := denom[idx]
					acc := dTop.Data[idx] * float32(math.Pow(float64(d), -lrnBeta))
					lo := max(0, c-half)
					hi := min(s.C-1, c+half)
					var ratio float32
					for cc := lo; cc <= hi; cc++ {
						j := x.Index(n, cc, h, w)
						ratio += dTop.Data[j] * top.Data[j] / denom[j]
					}
					acc -= float32(2 * scale * lrnBeta * x.Data[idx] * ratio)
					dx.Data[idx] = acc
				}
			}
		}
	}
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestLRNMatchesReferenceBitwise: output, cached denominators and input
// gradient carry the reference loops' bits on shapes with fewer channels
// than the window, one channel, one pixel and more samples than workers,
// at every worker count (including more workers than Setup sized for).
// On the wide shape the inputs run up to 1e5, so d spans [1, 1e6] rather
// than [1, 1.001]; a NaN input makes its window's d NaN, which takes
// the math.Pow fallback, and each infinity makes d = +Inf. The three sit
// in disjoint windows, so no two NaN payloads meet (which one survives
// would then be up to operand order).
func TestLRNMatchesReferenceBitwise(t *testing.T) {
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(0))
	wide := tensor.Shape{N: 2, C: 12, H: 6, W: 6}
	shapes := []tensor.Shape{
		{N: 1, C: 8, H: 3, W: 3},
		{N: 3, C: 3, H: 4, W: 5}, // C < window
		{N: 4, C: 1, H: 6, W: 2}, // C = 1
		{N: 3, C: 7, H: 1, W: 1}, // H*W = 1
		{N: 4, C: 16, H: 5, W: 5},
		wide,
	}
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(int64(s.Elems())))
		x, dy := tensor.NewShaped(s), tensor.NewShaped(s)
		x.Randomize(rng, 3)
		dy.Randomize(rng, 1)
		x.Data[0] = float32(math.Copysign(0, -1))
		x.Data[len(x.Data)-1] = 0
		if s == wide {
			for i := range x.Data {
				x.Data[i] *= float32(math.Pow(10, 5*rng.Float64()))
			}
			x.Data[7] = float32(math.NaN())
			x.Data[s.Elems()/2] = float32(math.Inf(1))
			x.Data[s.Elems()-9] = float32(math.Inf(-1))
		}

		ref := NewLRN("ref")
		ref.shape = s
		wantY, wantDX := tensor.NewShaped(s), tensor.NewShaped(s)
		wantDenom := make([]float32, s.Elems())
		lrnForwardRef(ref, x, wantY, wantDenom)
		lrnBackwardRef(ref, x, wantY, dy, wantDX, wantDenom)
		if s == wide {
			var top float32
			for _, d := range wantDenom {
				if d > top && !math.IsInf(float64(d), 0) {
					top = d
				}
			}
			if top < 1e5 {
				t.Fatalf("wide shape: largest finite d is %v, want d to reach 1e5", top)
			}
		}

		for _, setupWorkers := range []int{1, 2, 4} {
			conv.SetMaxWorkers(setupWorkers)
			l := NewLRN("lrn")
			ctx := testCtx()
			if _, err := l.Setup(ctx, []tensor.Shape{s}); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				conv.SetMaxWorkers(workers)
				y, dx := tensor.NewShaped(s), tensor.NewShaped(s)
				if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
					t.Fatal(err)
				}
				if err := l.Backward(ctx, []*tensor.Tensor{x}, y, dy, []*tensor.Tensor{dx}); err != nil {
					t.Fatal(err)
				}
				for name, pair := range map[string][2][]float32{
					"y": {y.Data, wantY.Data}, "denom": {l.denom, wantDenom}, "dx": {dx.Data, wantDX.Data},
				} {
					if i := sameBits(pair[0], pair[1]); i >= 0 {
						t.Fatalf("%v setup@%d run@%d: %s[%d] = %v, reference %v", s, setupWorkers, workers, name, i, pair[0][i], pair[1][i])
					}
				}
			}
		}
	}
}

// passLaunches runs pass under the profiler at worker cap workers and
// returns the launches it recorded, all of which must land on the
// unattributed row (no kernel is current during a layer pass). A forked
// layer pass is one launch of the one launcher, blas.Fork.
func passLaunches(t *testing.T, workers int, pass func()) int64 {
	t.Helper()
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(workers))
	prof.Reset()
	prof.Enable()
	defer prof.Reset()
	defer prof.Disable()
	pass()
	var launches int64
	for _, r := range prof.Snapshot() {
		if r.Kernel != "(unattributed)" && r.Workers.Launches != 0 {
			t.Errorf("%d launches on row %s/%s, want them unattributed", r.Workers.Launches, r.Layer, r.Kernel)
		}
		launches += r.Workers.Launches
	}
	return launches
}

// forkedPassLaunches checks that each of a forked layer's two passes is
// one launch at a cap of 2 and none at a cap of 1.
func forkedPassLaunches(t *testing.T, name string, forward, backward func()) {
	t.Helper()
	for _, p := range []struct {
		name string
		run  func()
	}{{"forward", forward}, {"backward", backward}} {
		for _, c := range []struct{ workers, want int64 }{{2, 1}, {1, 0}} {
			if got := passLaunches(t, int(c.workers), p.run); got != c.want {
				t.Errorf("%s %s at a cap of %d: %d launches, want %d", name, p.name, c.workers, got, c.want)
			}
		}
	}
}

// A forked LRN pass reuses the body and scratch Setup built: nothing is
// allocated per call at any worker count, and each pass is one launch.
func TestLRNPassesDoNotAllocate(t *testing.T) {
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	s := tensor.Shape{N: 4, C: 8, H: 6, W: 6}
	l := NewLRN("lrn")
	ctx := testCtx()
	if _, err := l.Setup(ctx, []tensor.Shape{s}); err != nil {
		t.Fatal(err)
	}
	x, y, dy, dx := tensor.NewShaped(s), tensor.NewShaped(s), tensor.NewShaped(s), tensor.NewShaped(s)
	x.Randomize(rand.New(rand.NewSource(1)), 1)
	bot, dbot := []*tensor.Tensor{x}, []*tensor.Tensor{dx}
	forward := func() {
		if err := l.Forward(ctx, bot, y); err != nil {
			t.Fatal(err)
		}
	}
	backward := func() {
		if err := l.Backward(ctx, bot, y, dy, dbot); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(20, func() { forward(); backward() }); avg != 0 {
		t.Fatalf("LRN forward+backward allocates %v/op at 2 workers, want 0", avg)
	}
	forkedPassLaunches(t, "LRN", forward, backward)
}

// TestLRNFactorIsPowBitwise: wherever lrnFactor vouches for its result,
// that result carries the bits of float32(math.Pow(d, -0.75)), on every
// float32 in [1, 2) and on a strided sweep of all 2^32 patterns
// (negatives, zeros, subnormals, infinities, NaNs); and it vouches for
// all but fewer than 1e-4 of [1, 2).
func TestLRNFactorIsPowBitwise(t *testing.T) {
	fallbacks := 0
	check := func(bits uint32) {
		d := math.Float32frombits(bits)
		got, ok := lrnFactor(d)
		if !ok {
			fallbacks++
			return
		}
		if want := float32(math.Pow(float64(d), -lrnBeta)); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("lrnFactor(%v) [%#08x] = %v, math.Pow %v", d, bits, got, want)
		}
	}
	one, two := math.Float32bits(1), math.Float32bits(2)
	for bits := one; bits < two; bits++ {
		check(bits)
	}
	rate := float64(fallbacks) / float64(two-one)
	t.Logf("math.Pow fallback on %d of %d inputs in [1, 2) (%.2g)", fallbacks, two-one, rate)
	if rate >= 1e-4 {
		t.Errorf("lrnFactor falls back on %.2g of [1, 2), want < 1e-4", rate)
	}
	for _, bits := range []uint32{0, 1 << 31, 1, 0x7f7fffff, 0x7f800000, 0xff800000, 0x7fc00000, 0xffffffff} {
		check(bits)
	}
	const stride = 1021 // prime, so the sweep meets every low-bit pattern
	for bits := uint64(0); bits < 1<<32; bits += stride {
		check(uint32(bits))
	}
}

// BenchmarkLRN times one LRN pass at AlexNet norm1's shape at batch 4
// (96 channels of 55x55): the layer's row in the kernel ledger.
func BenchmarkLRN(b *testing.B) {
	s := tensor.Shape{N: 4, C: 96, H: 55, W: 55}
	l := NewLRN("norm1")
	ctx := testCtx()
	if _, err := l.Setup(ctx, []tensor.Shape{s}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x, y, dy, dx := tensor.NewShaped(s), tensor.NewShaped(s), tensor.NewShaped(s), tensor.NewShaped(s)
	x.Randomize(rng, 3)
	dy.Randomize(rng, 1)
	bot, dbot := []*tensor.Tensor{x}, []*tensor.Tensor{dx}
	if err := l.Forward(ctx, bot, y); err != nil {
		b.Fatal(err)
	}
	b.Run("Forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := l.Forward(ctx, bot, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Backward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := l.Backward(ctx, bot, y, dy, dbot); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPool times one max-pooling pass at two real shapes: the
// layer's rows in the kernel ledger. Inception is GoogLeNet's pool
// branch at batch 16 (3x3, stride 1, pad 1; 192 channels of 28x28),
// AlexNetPool1 AlexNet's pool1 at batch 4 (3x3, stride 2; 96 channels of
// 55x55).
func BenchmarkPool(b *testing.B) {
	for _, bc := range []struct {
		name                string
		kernel, stride, pad int
		in                  tensor.Shape
	}{
		{"Inception", 3, 1, 1, tensor.Shape{N: 16, C: 192, H: 28, W: 28}},
		{"AlexNetPool1", 3, 2, 0, tensor.Shape{N: 4, C: 96, H: 55, W: 55}},
	} {
		l := NewPool("pool", MaxPool, bc.kernel, bc.stride, bc.pad)
		ctx := testCtx()
		out, err := l.Setup(ctx, []tensor.Shape{bc.in})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		x, y, dy, dx := tensor.NewShaped(bc.in), tensor.NewShaped(out), tensor.NewShaped(out), tensor.NewShaped(bc.in)
		x.Randomize(rng, 1)
		dy.Randomize(rng, 1)
		bot, dbot := []*tensor.Tensor{x}, []*tensor.Tensor{dx}
		if err := l.Forward(ctx, bot, y); err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name+"/Forward", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := l.Forward(ctx, bot, y); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/Backward", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := l.Backward(ctx, bot, y, dy, dbot); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPoolMergeMatchesTwinBitwise: poolMerge (the AVX body where the host
// has it, plus the twin for what the body leaves) against
// poolMergeGeneric alone, at every length 0-40 (each tail mod 8, and the
// overlapped last group), strides 1-3 and one to three rows, on data
// heavy with ties, NaN, ±Inf and ±0. The source is cut to the shortest
// the lanes need (every other trial) or runs one stride longer; rows sit
// a few elements apart, so a lane that strays into the gap shows.
func TestPoolMergeMatchesTwinBitwise(t *testing.T) {
	special := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 1, -1, 2,
	}
	rng := rand.New(rand.NewSource(7))
	val := func() float32 {
		if rng.Intn(2) == 0 {
			return special[rng.Intn(len(special))]
		}
		return float32(rng.NormFloat64())
	}
	for stride := 1; stride <= 3; stride++ {
		for n := 0; n <= 40; n++ {
			for trial := 0; trial < 24; trial++ {
				rows := 1 + trial%3
				dRow, sRow := n+3, stride*n+5
				src := make([]float32, max(0, (rows-1)*sRow+stride*(n-1)+1+trial%2*stride))
				sidx := make([]int32, len(src))
				for i := range src {
					src[i], sidx[i] = val(), int32(1000+i)
				}
				d, di := make([]float32, rows*dRow), make([]int32, rows*dRow)
				for i := range d {
					d[i], di[i] = val(), int32(-1-i)
				}
				wantD, wantI := append([]float32{}, d...), append([]int32{}, di...)
				poolMergeGeneric(wantD, wantI, dRow, src, sidx, sRow, rows, n, stride)
				poolMerge(d, di, dRow, src, sidx, sRow, rows, n, stride)
				if i := sameBits(d, wantD); i >= 0 {
					t.Fatalf("stride %d n %d rows %d trial %d: d[%d] = %v, twin %v", stride, n, rows, trial, i, d[i], wantD[i])
				}
				for i := range di {
					if di[i] != wantI[i] {
						t.Fatalf("stride %d n %d rows %d trial %d: di[%d] = %d, twin %d", stride, n, rows, trial, i, di[i], wantI[i])
					}
				}
			}
		}
	}
}

// TestFCMatchesPackedReferenceBitwise: the FC layer's three products at
// batch 1..5 (both sides of the one-row-panel boundary, where blas
// streams W in place instead of packing it) on a width that is no
// multiple of the register tile, against the packed-tile path
// (blas.SgemmPackedARows never takes the in-place kernels).
func TestFCMatchesPackedReferenceBitwise(t *testing.T) {
	const in, out = 2 * 3 * 7, 37
	for batch := 1; batch <= 5; batch++ {
		s := tensor.Shape{N: batch, C: 2, H: 3, W: 7}
		ctx := testCtx()
		ctx.RNG = rand.New(rand.NewSource(int64(batch)))
		l := NewFC("fc", out)
		if _, err := l.Setup(ctx, []tensor.Shape{s}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + batch)))
		x, dy := tensor.NewShaped(s), tensor.New(batch, out, 1, 1)
		x.Randomize(rng, 1)
		dy.Randomize(rng, 1)
		for i := range l.bias.Data {
			l.bias.Data[i] = rng.Float32()
		}
		for i := range l.weight.Grad {
			l.weight.Grad[i] = rng.Float32()
		}
		wantDW := append([]float32(nil), l.weight.Grad...)

		y, dx := tensor.New(batch, out, 1, 1), tensor.NewShaped(s)
		if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
			t.Fatal(err)
		}
		if err := l.Backward(ctx, []*tensor.Tensor{x}, y, dy, []*tensor.Tensor{dx}); err != nil {
			t.Fatal(err)
		}

		packed := func(transA bool, m, k int, a []float32, lda int) []float32 {
			pa := make([]float32, blas.PackAFloats(m, k))
			blas.PackA(pa, transA, m, k, 1, a, lda)
			return pa
		}
		wantY := make([]float32, batch*out)
		blas.SgemmPackedARows(0, batch, packed(false, batch, in, x.Data, in), true, batch, out, in, l.weight.Data, in, 0, wantY, out)
		for i := range wantY {
			wantY[i] += l.bias.Data[i%out]
		}
		wantDX := make([]float32, batch*in)
		blas.SgemmPackedARows(0, batch, packed(false, batch, out, dy.Data, out), false, batch, in, out, l.weight.Data, in, 0, wantDX, in)
		blas.SgemmPackedARows(0, out, packed(true, out, batch, dy.Data, out), false, out, in, batch, x.Data, in, 1, wantDW, in)
		for name, pair := range map[string][2][]float32{
			"y": {y.Data, wantY}, "dx": {dx.Data, wantDX}, "dW": {l.weight.Grad, wantDW},
		} {
			if i := sameBits(pair[0], pair[1]); i >= 0 {
				t.Fatalf("batch %d: %s[%d] = %v, packed reference %v", batch, name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// poolForwardRef is the loop Pool.Forward ran before its plane-wise
// rewrite, kept verbatim as the definition of its bits and of argmax:
// every window element through At()/Index(), strict > in h-then-w order.
func poolForwardRef(l *Pool, x, top *tensor.Tensor, argmax []int32) {
	for n := 0; n < l.out.N; n++ {
		for c := 0; c < l.out.C; c++ {
			for oh := 0; oh < l.out.H; oh++ {
				for ow := 0; ow < l.out.W; ow++ {
					h0 := oh*l.stride - l.pad
					w0 := ow*l.stride - l.pad
					h1 := min(h0+l.kernel, l.in.H)
					w1 := min(w0+l.kernel, l.in.W)
					h0 = max(h0, 0)
					w0 = max(w0, 0)
					oi := top.Index(n, c, oh, ow)
					if l.kind == MaxPool {
						best := float32(math.Inf(-1))
						bestIdx := int32(-1)
						for h := h0; h < h1; h++ {
							for w := w0; w < w1; w++ {
								if v := x.At(n, c, h, w); v > best {
									best = v
									bestIdx = int32(x.Index(n, c, h, w))
								}
							}
						}
						top.Data[oi] = best
						argmax[oi] = bestIdx
					} else {
						var sum float32
						cnt := 0
						for h := h0; h < h1; h++ {
							for w := w0; w < w1; w++ {
								sum += x.At(n, c, h, w)
								cnt++
							}
						}
						top.Data[oi] = sum / float32(cnt)
					}
				}
			}
		}
	}
}

// poolBackwardRef is Pool.Backward's former whole-tensor loop.
func poolBackwardRef(l *Pool, dTop, dx *tensor.Tensor, argmax []int32) {
	dx.Zero()
	if l.kind == MaxPool {
		for oi, src := range argmax {
			if src >= 0 {
				dx.Data[src] += dTop.Data[oi]
			}
		}
		return
	}
	for n := 0; n < l.out.N; n++ {
		for c := 0; c < l.out.C; c++ {
			for oh := 0; oh < l.out.H; oh++ {
				for ow := 0; ow < l.out.W; ow++ {
					h0 := oh*l.stride - l.pad
					w0 := ow*l.stride - l.pad
					h1 := min(h0+l.kernel, l.in.H)
					w1 := min(w0+l.kernel, l.in.W)
					h0 = max(h0, 0)
					w0 = max(w0, 0)
					g := dTop.At(n, c, oh, ow) / float32((h1-h0)*(w1-w0))
					for h := h0; h < h1; h++ {
						for w := w0; w < w1; w++ {
							dx.Add(n, c, h, w, g)
						}
					}
				}
			}
		}
	}
}

// TestPoolAndReLUMatchReferenceBitwise: both pooling kinds (overlapping,
// padded, ceil-mode windows, ties, an all -Inf window, stride-2 rows of
// a width off a multiple of eight, NaN inputs) and ReLU carry
// their former serial loops' bits — outputs, argmax and gradients — at
// every worker count, including more workers than Setup sized for and
// tensors large enough to fork.
func TestPoolAndReLUMatchReferenceBitwise(t *testing.T) {
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(0))
	type poolCase struct {
		kind                PoolKind
		kernel, stride, pad int
		in                  tensor.Shape
		nan                 bool
	}
	cases := []poolCase{
		{MaxPool, 3, 2, 0, tensor.Shape{N: 2, C: 3, H: 7, W: 7}, false},
		{MaxPool, 3, 1, 1, tensor.Shape{N: 4, C: 48, H: 28, W: 28}, false}, // Inception's pool branch: forks
		{MaxPool, 3, 2, 0, tensor.Shape{N: 3, C: 5, H: 8, W: 6}, false},    // ceil mode: clipped last windows
		{MaxPool, 3, 2, 0, tensor.Shape{N: 2, C: 4, H: 23, W: 41}, false},  // 20 outputs a row
		{MaxPool, 3, 2, 1, tensor.Shape{N: 3, C: 4, H: 19, W: 37}, true},   // 19 outputs a row, padded
		{MaxPool, 3, 1, 1, tensor.Shape{N: 2, C: 3, H: 12, W: 30}, true},
		{AvgPool, 2, 2, 0, tensor.Shape{N: 2, C: 2, H: 6, W: 6}, false},
		{AvgPool, 3, 2, 1, tensor.Shape{N: 5, C: 40, H: 13, W: 13}, false},
	}
	for ci, pc := range cases {
		rng := rand.New(rand.NewSource(int64(ci + 1)))
		x := tensor.NewShaped(pc.in)
		x.Randomize(rng, 2)
		for i := 0; i < len(x.Data); i += 3 {
			x.Data[i] = float32(rng.Intn(3)) // ties: the first maximum must win
		}
		if pc.nan {
			for i := 1; i < len(x.Data); i += 4 {
				x.Data[i] = float32(math.NaN()) // never a maximum
			}
		}
		if pc.kind == MaxPool {
			for i := 0; i < pc.in.H*pc.in.W; i++ {
				x.Data[i] = float32(math.Inf(-1)) // a plane with nothing above -Inf
			}
		}
		for _, setupWorkers := range []int{1, 2, 4} {
			conv.SetMaxWorkers(setupWorkers)
			l := NewPool("pool", pc.kind, pc.kernel, pc.stride, pc.pad)
			ctx := testCtx()
			out, err := l.Setup(ctx, []tensor.Shape{pc.in})
			if err != nil {
				t.Fatal(err)
			}
			dy := tensor.NewShaped(out)
			dy.Randomize(rng, 1)
			wantY, wantDX := tensor.NewShaped(out), tensor.NewShaped(pc.in)
			wantArg := make([]int32, out.Elems())
			poolForwardRef(l, x, wantY, wantArg)
			poolBackwardRef(l, dy, wantDX, wantArg)
			for _, workers := range []int{1, 2, 4} {
				conv.SetMaxWorkers(workers)
				y, dx := tensor.NewShaped(out), tensor.NewShaped(pc.in)
				dx.Randomize(rng, 1) // backward must overwrite, not accumulate
				if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
					t.Fatal(err)
				}
				if err := l.Backward(ctx, []*tensor.Tensor{x}, y, dy, []*tensor.Tensor{dx}); err != nil {
					t.Fatal(err)
				}
				if i := sameBits(y.Data, wantY.Data); i >= 0 {
					t.Fatalf("pool case %d setup@%d run@%d: y[%d] = %v, reference %v", ci, setupWorkers, workers, i, y.Data[i], wantY.Data[i])
				}
				if i := sameBits(dx.Data, wantDX.Data); i >= 0 {
					t.Fatalf("pool case %d setup@%d run@%d: dx[%d] = %v, reference %v", ci, setupWorkers, workers, i, dx.Data[i], wantDX.Data[i])
				}
				if pc.kind != MaxPool {
					continue
				}
				for i, a := range l.max.argmax {
					if a != wantArg[i] {
						t.Fatalf("pool case %d setup@%d run@%d: argmax[%d] = %d, reference %d", ci, setupWorkers, workers, i, a, wantArg[i])
					}
				}
			}
		}
	}

	for _, s := range []tensor.Shape{{N: 1, C: 2, H: 3, W: 3}, {N: 4, C: 64, H: 28, W: 28}} {
		rng := rand.New(rand.NewSource(int64(s.Elems())))
		x, dy := tensor.NewShaped(s), tensor.NewShaped(s)
		x.Randomize(rng, 1)
		dy.Randomize(rng, 1)
		x.Data[0], x.Data[1] = 0, float32(math.Copysign(0, -1))
		wantY, wantDX := tensor.NewShaped(s), tensor.NewShaped(s)
		for i, v := range x.Data {
			if v > 0 {
				wantY.Data[i], wantDX.Data[i] = v, dy.Data[i]
			}
		}
		for _, setupWorkers := range []int{1, 2, 4} {
			conv.SetMaxWorkers(setupWorkers)
			l := NewReLU("relu")
			ctx := testCtx()
			if _, err := l.Setup(ctx, []tensor.Shape{s}); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				conv.SetMaxWorkers(workers)
				y, dx := tensor.NewShaped(s), tensor.NewShaped(s)
				y.Randomize(rng, 1)
				dx.Randomize(rng, 1)
				if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
					t.Fatal(err)
				}
				if err := l.Backward(ctx, []*tensor.Tensor{x}, y, dy, []*tensor.Tensor{dx}); err != nil {
					t.Fatal(err)
				}
				if i := sameBits(y.Data, wantY.Data); i >= 0 {
					t.Fatalf("relu %v setup@%d run@%d: y[%d] = %v, want %v", s, setupWorkers, workers, i, y.Data[i], wantY.Data[i])
				}
				if i := sameBits(dx.Data, wantDX.Data); i >= 0 {
					t.Fatalf("relu %v setup@%d run@%d: dx[%d] = %v, want %v", s, setupWorkers, workers, i, dx.Data[i], wantDX.Data[i])
				}
			}
		}
	}
}

// Pool, global-average-pool and ReLU passes allocate nothing per call;
// the forked ones (all but global average pooling) run the bodies Setup
// built, as LRN's do, one launch per pass.
func TestPoolAndReLUPassesDoNotAllocate(t *testing.T) {
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	s := tensor.Shape{N: 4, C: 32, H: 28, W: 28} // above forkGrain per worker
	ctx := testCtx()
	for _, l := range []Layer{NewPool("pool", MaxPool, 3, 1, 1), NewPool("avg", AvgPool, 3, 2, 0), NewGlobalAvgPool("gap"), NewReLU("relu")} {
		out, err := l.Setup(ctx, []tensor.Shape{s})
		if err != nil {
			t.Fatal(err)
		}
		x, dx, y, dy := tensor.NewShaped(s), tensor.NewShaped(s), tensor.NewShaped(out), tensor.NewShaped(out)
		x.Randomize(rand.New(rand.NewSource(1)), 1)
		bot, dbot := []*tensor.Tensor{x}, []*tensor.Tensor{dx}
		forward := func() {
			if err := l.Forward(ctx, bot, y); err != nil {
				t.Fatal(err)
			}
		}
		backward := func() {
			if err := l.Backward(ctx, bot, y, dy, dbot); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(20, func() { forward(); backward() }); avg != 0 {
			t.Fatalf("%s forward+backward allocates %v/op at 2 workers, want 0", l.Name(), avg)
		}
		if _, gap := l.(*GlobalAvgPool); !gap {
			forkedPassLaunches(t, l.Name(), forward, backward)
		}
	}
}
