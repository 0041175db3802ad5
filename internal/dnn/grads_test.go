package dnn

import (
	"math"
	"math/rand"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/tensor"
)

// TestBackwardOverwritesBottomGradients pins the contract blob-gradient
// routing rests on: every layer kind's Backward writes every element of
// every dBottoms tensor, whatever was there before. The first consumer
// of a blob writes its gradient in place, and the scratch of the others
// is never cleared, so a layer that skipped an element, or added into
// one, would leak the previous contents. The buffers are poisoned with
// NaN; the inputs are finite, so a NaN left behind is an element the
// layer did not write (or read before writing).
func TestBackwardOverwritesBottomGradients(t *testing.T) {
	img := tensor.Shape{N: 4, C: 3, H: 9, W: 9}
	flat := tensor.Shape{N: 4, C: 5, H: 1, W: 1}
	convCtx := func(algo conv.Algo) *Context {
		h := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
		h.SetAlgoFilter(func(op conv.Op, a conv.Algo) bool { return a == algo })
		return NewContext(h, h, 1<<30)
	}
	cases := []struct {
		name string
		l    Layer
		in   []tensor.Shape
		ctx  func() *Context
	}{
		{"conv/IMPLICIT_GEMM", NewConv("conv", 4, 3, 1, 1, true), []tensor.Shape{img}, func() *Context { return convCtx(conv.AlgoImplicitGemm) }},
		{"conv/GEMM", NewConv("conv", 4, 3, 2, 1, true), []tensor.Shape{img}, func() *Context { return convCtx(conv.AlgoGemm) }},
		{"conv/OOC", NewConv("conv", 4, 3, 1, 1, true), []tensor.Shape{img}, func() *Context {
			ctx := convCtx(conv.AlgoGemm)
			ctx.OOC = windowedOOC(img, tensor.Shape{N: img.N, C: 4, H: img.H, W: img.W}, 3)
			return ctx
		}},
		{"fc", NewFC("fc", 6), []tensor.Shape{img}, testCtx},
		{"relu", NewReLU("relu"), []tensor.Shape{img}, testCtx},
		{"pool/max", NewPool("pool", MaxPool, 3, 2, 1), []tensor.Shape{img}, testCtx},
		{"pool/avg", NewPool("pool", AvgPool, 3, 2, 1), []tensor.Shape{img}, testCtx},
		{"gap", NewGlobalAvgPool("gap"), []tensor.Shape{img}, testCtx},
		{"lrn", NewLRN("lrn"), []tensor.Shape{img}, testCtx},
		{"batchnorm", NewBatchNorm("bn"), []tensor.Shape{img}, testCtx},
		{"add", NewAdd("add"), []tensor.Shape{img, img}, testCtx},
		{"concat", NewConcat("concat"), []tensor.Shape{img, {N: 4, C: 2, H: 9, W: 9}}, testCtx},
		{"dropout/training", NewDropout("drop", 0.5), []tensor.Shape{img}, testCtx},
		{"dropout/inference", NewDropout("drop", 0.5), []tensor.Shape{img}, func() *Context {
			ctx := testCtx()
			ctx.Training = false
			return ctx
		}},
		{"softmaxloss", NewSoftmaxLoss("loss"), []tensor.Shape{flat}, testCtx},
	}
	for _, tc := range cases {
		ctx := tc.ctx()
		out, err := tc.l.Setup(ctx, tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if loss, ok := tc.l.(*SoftmaxLoss); ok {
			loss.Labels = []int{0, 4, 2, 1}
		}
		rng := rand.New(rand.NewSource(5))
		bot, dbot := make([]*tensor.Tensor, len(tc.in)), make([]*tensor.Tensor, len(tc.in))
		for j, s := range tc.in {
			bot[j], dbot[j] = tensor.NewShaped(s), tensor.NewShaped(s)
			bot[j].Randomize(rng, 1)
			dbot[j].Fill(float32(math.NaN()))
		}
		top, dTop := tensor.NewShaped(out), tensor.NewShaped(out)
		dTop.Randomize(rng, 1)
		for _, backward := range []bool{false, true} {
			if ctx.OOC != nil {
				if err := ctx.OOC.beginLayer(ctx, 0, backward); err != nil {
					t.Fatal(err)
				}
			}
			if !backward {
				err = tc.l.Forward(ctx, bot, top)
			} else {
				err = tc.l.Backward(ctx, bot, top, dTop, dbot)
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for j, g := range dbot {
			for i, v := range g.Data {
				if v != v {
					t.Fatalf("%s: dBottoms[%d][%d] left unwritten", tc.name, j, i)
				}
			}
		}
	}
}

// windowedOOC is an executor for a lone conv layer streamed in windows of
// chunk samples.
func windowedOOC(in, out tensor.Shape, chunk int) *OOCState {
	o := oneWindowOOC(in, out)
	o.chunk = chunk
	return o
}

// sharedBottomNet builds a net in which blob "x" has three consumers, one
// of which reads it twice: conv a(x), pool p(x), add d(x, x), joined and
// pooled into a softmax loss. Backward order writes x's gradient as
// d's first bottom, then d's second, p, a.
func sharedBottomNet(t *testing.T, in tensor.Shape) (*Net, []Layer) {
	t.Helper()
	ctx := testCtx()
	ctx.RNG = rand.New(rand.NewSource(17))
	net := NewNet(ctx)
	net.Input("data", in)
	net.Add(NewReLU("r"), "x", "data")
	a, p, d := NewConv("a", in.C, 3, 1, 1, true), NewPool("p", MaxPool, 3, 1, 1), NewAdd("d")
	net.Add(a, "a", "x")
	net.Add(p, "p", "x")
	net.Add(d, "d", "x", "x")
	net.Add(NewAdd("join"), "join", "a", "p", "d")
	net.Add(NewGlobalAvgPool("gap"), "gap", "join")
	loss := NewSoftmaxLoss("loss")
	net.Add(loss, "loss", "gap")
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	net.InputBlob().Data.Randomize(rand.New(rand.NewSource(18)), 1)
	loss.Labels = make([]int, in.N)
	for i := range loss.Labels {
		loss.Labels[i] = i % in.C
	}
	return net, []Layer{d, p, a}
}

// TestSharedBottomGradientOrder: a blob read by three layers, one of them
// twice, gets the gradient the cleared-and-summed walk gave it, ((0 + g1)
// + g2) + ... in backward consumer order, bit for bit, at P = 1, 2 and 4
// (the blob is large enough for the sum to fork). The one allowed
// difference: where the first writer stores -0, the sum from +0 stored
// +0.
func TestSharedBottomGradientOrder(t *testing.T) {
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(0))
	in := tensor.Shape{N: 4, C: 8, H: 48, W: 48} // 5 units of forkGrain
	for _, p := range []int{1, 2, 4} {
		conv.SetMaxWorkers(p)
		net, consumers := sharedBottomNet(t, in)
		if err := net.Forward(); err != nil {
			t.Fatal(err)
		}
		if err := net.Backward(); err != nil {
			t.Fatal(err)
		}
		got := net.Blob("x").Grad.Data

		// Each consumer's contribution, from the top gradients Backward
		// left behind, in backward order (d's two bottoms first).
		x := net.Blob("x").Data
		var parts [][]float32
		for _, l := range consumers {
			nb := 1
			if l == consumers[0] {
				nb = 2
			}
			bot, dbot := make([]*tensor.Tensor, nb), make([]*tensor.Tensor, nb)
			for j := range bot {
				bot[j], dbot[j] = x, tensor.NewShaped(in)
			}
			top := net.Blob(l.Name())
			if err := l.Backward(net.Ctx(), bot, top.Data, top.Grad, dbot); err != nil {
				t.Fatal(err)
			}
			for _, g := range dbot {
				parts = append(parts, g.Data)
			}
		}
		for k := range got {
			var want float32
			for _, g := range parts {
				want += g[k]
			}
			if math.Float32bits(got[k]) == math.Float32bits(want) {
				continue
			}
			if got[k] == 0 && want == 0 && math.Signbit(float64(got[k])) && math.Signbit(float64(parts[0][k])) {
				continue // the first writer's -0
			}
			t.Fatalf("P=%d: x gradient[%d] = %v (%#08x), consumer-order sum from +0 %v (%#08x)",
				p, k, got[k], math.Float32bits(got[k]), want, math.Float32bits(want))
		}
	}
}

// A steady-state backward pass over a net with a shared bottom allocates
// nothing: the routing, the scratch and the sum's fork body are built by
// Setup. The net has no convolution, whose forked SGEMMs allocate. Each
// gradient sum is one launch at a cap of 2, as are the ReLU and pooling
// passes, and none is at a cap of 1.
func TestSharedBottomBackwardAllocs(t *testing.T) {
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	in := tensor.Shape{N: 4, C: 8, H: 32, W: 32}
	ctx := testCtx()
	net := NewNet(ctx)
	net.Input("data", in)
	net.Add(NewReLU("r"), "x", "data")
	net.Add(NewPool("p", MaxPool, 3, 1, 1), "p", "x")
	net.Add(NewAdd("d"), "d", "x", "x")
	net.Add(NewAdd("join"), "join", "x", "p", "d")
	net.Add(NewGlobalAvgPool("gap"), "gap", "join")
	loss := NewSoftmaxLoss("loss")
	net.Add(loss, "loss", "gap")
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	net.InputBlob().Data.Randomize(rand.New(rand.NewSource(3)), 1)
	loss.Labels = []int{0, 1, 2, 3}
	if err := net.Forward(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := net.Backward(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Net.Backward with a shared bottom allocates %v/op at 2 workers, want 0", avg)
	}
	sums := 0
	for _, lb := range net.bound {
		sums += len(lb.sums)
	}
	if sums == 0 {
		t.Fatal("the net routes no gradient sum")
	}
	backward := func() {
		if err := net.Backward(); err != nil {
			t.Fatal(err)
		}
	}
	const forkedLayers = 2 // r and p
	for _, c := range []struct{ workers, want int }{{2, sums + forkedLayers}, {1, 0}} {
		if got := passLaunches(t, c.workers, backward); got != int64(c.want) {
			t.Errorf("Net.Backward at a cap of %d: %d launches, want %d (%d sums, %d forked layers)", c.workers, got, c.want, sums, forkedLayers)
		}
	}
}
