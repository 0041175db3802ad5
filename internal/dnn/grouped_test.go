package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/tensor"
)

// refGroupedForward computes a grouped convolution directly.
func refGroupedForward(x *tensor.Tensor, w *tensor.FilterTensor, groups, stride, pad int, bias []float32) *tensor.Tensor {
	in := x.Shape
	f := w.Filter // K x C/G x R x S
	kTotal := f.K
	cg := in.C / groups
	kg := kTotal / groups
	oh := (in.H+2*pad-f.R)/stride + 1
	ow := (in.W+2*pad-f.S)/stride + 1
	y := tensor.New(in.N, kTotal, oh, ow)
	for n := 0; n < in.N; n++ {
		for k := 0; k < kTotal; k++ {
			g := k / kg
			for u := 0; u < oh; u++ {
				for v := 0; v < ow; v++ {
					acc := float64(0)
					for c := 0; c < cg; c++ {
						for r := 0; r < f.R; r++ {
							ih := u*stride - pad + r
							if ih < 0 || ih >= in.H {
								continue
							}
							for s := 0; s < f.S; s++ {
								iw := v*stride - pad + s
								if iw < 0 || iw >= in.W {
									continue
								}
								acc += float64(x.At(n, g*cg+c, ih, iw)) * float64(w.At(k, c, r, s))
							}
						}
					}
					if bias != nil {
						acc += float64(bias[k])
					}
					y.Set(n, k, u, v, float32(acc))
				}
			}
		}
	}
	return y
}

func TestGroupedConvForwardMatchesReference(t *testing.T) {
	ctx := testCtx()
	ctx.RNG = rand.New(rand.NewSource(21))
	l := NewConvGrouped("gconv", 6, 3, 1, 1, 2, true)
	in := tensor.Shape{N: 3, C: 4, H: 7, W: 7}
	out, err := l.Setup(ctx, []tensor.Shape{in})
	if err != nil {
		t.Fatal(err)
	}
	if out != (tensor.Shape{N: 3, C: 6, H: 7, W: 7}) {
		t.Fatalf("out = %v", out)
	}
	// Filter must be K x C/G x R x S, each group's view K/G x C/G x R x S.
	w := &tensor.FilterTensor{Filter: tensor.Filter{K: 6, C: 2, R: 3, S: 3}, Data: l.filterParam.Data}
	if len(w.Data) != w.Filter.Elems() || l.filt[1].Filter != (tensor.Filter{K: 3, C: 2, R: 3, S: 3}) {
		t.Fatalf("filter holds %d elements, group view %v", len(w.Data), l.filt[1].Filter)
	}
	rng := rand.New(rand.NewSource(22))
	x := tensor.NewShaped(in)
	x.Randomize(rng, 1)
	for i := range l.biasParam.Data {
		l.biasParam.Data[i] = rng.Float32()
	}
	y := tensor.NewShaped(out)
	if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
		t.Fatal(err)
	}
	want := refGroupedForward(x, w, 2, 1, 1, l.biasParam.Data)
	if !tensor.AllClose(y.Data, want.Data, 1e-4, 1e-4) {
		t.Fatalf("grouped forward wrong: maxdiff %g", tensor.MaxAbsDiff(y.Data, want.Data))
	}
}

// The grouped output's channel blocks must be independent: zeroing the
// second input group's channels must not change the first output group.
func TestGroupedConvGroupIndependence(t *testing.T) {
	ctx := testCtx()
	ctx.RNG = rand.New(rand.NewSource(23))
	l := NewConvGrouped("gconv", 4, 3, 1, 1, 2, false)
	in := tensor.Shape{N: 2, C: 4, H: 5, W: 5}
	out, err := l.Setup(ctx, []tensor.Shape{in})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	x := tensor.NewShaped(in)
	x.Randomize(rng, 1)
	y1 := tensor.NewShaped(out)
	l.Forward(ctx, []*tensor.Tensor{x}, y1)
	// Zero group 1's input channels (2, 3).
	for n := 0; n < in.N; n++ {
		for c := 2; c < 4; c++ {
			for h := 0; h < in.H; h++ {
				for w := 0; w < in.W; w++ {
					x.Set(n, c, h, w, 0)
				}
			}
		}
	}
	y2 := tensor.NewShaped(out)
	l.Forward(ctx, []*tensor.Tensor{x}, y2)
	// Output channels 0, 1 (group 0) unchanged; 2, 3 changed.
	for n := 0; n < out.N; n++ {
		for h := 0; h < out.H; h++ {
			for w := 0; w < out.W; w++ {
				if y1.At(n, 0, h, w) != y2.At(n, 0, h, w) || y1.At(n, 1, h, w) != y2.At(n, 1, h, w) {
					t.Fatal("group 0 output depends on group 1 input")
				}
			}
		}
	}
	changed := false
	for n := 0; n < out.N; n++ {
		for h := 0; h < out.H; h++ {
			for w := 0; w < out.W; w++ {
				if y1.At(n, 2, h, w) != y2.At(n, 2, h, w) {
					changed = true
				}
			}
		}
	}
	if !changed {
		t.Fatal("group 1 output ignored its input")
	}
}

func TestGroupedConvGradient(t *testing.T) {
	gradCheckLayer(t, NewConvGrouped("gconv", 4, 3, 1, 1, 2, true),
		[]tensor.Shape{{N: 2, C: 4, H: 5, W: 5}}, 25, 2e-2)
}

func TestGroupedConvStridedGradient(t *testing.T) {
	gradCheckLayer(t, NewConvGrouped("gconv", 6, 3, 2, 1, 3, false),
		[]tensor.Shape{{N: 2, C: 6, H: 7, W: 7}}, 26, 2e-2)
}

func TestGroupedConvRejectsBadGroups(t *testing.T) {
	ctx := testCtx()
	l := NewConvGrouped("g", 4, 3, 1, 1, 3, false)
	if _, err := l.Setup(ctx, []tensor.Shape{{N: 1, C: 4, H: 5, W: 5}}); err == nil {
		t.Fatal("C=4 with 3 groups must fail")
	}
	l2 := NewConvGrouped("g", 5, 3, 1, 1, 2, false)
	if _, err := l2.Setup(ctx, []tensor.Shape{{N: 1, C: 4, H: 5, W: 5}}); err == nil {
		t.Fatal("K=5 with 2 groups must fail")
	}
}

// Grouped conv in a net trains: loss decreases on the quadrant task.
func TestGroupedConvTrains(t *testing.T) {
	ctx := testCtx()
	net := NewNet(ctx)
	net.Input("data", tensor.Shape{N: 8, C: 4, H: 8, W: 8})
	net.Add(NewConvGrouped("conv1", 8, 3, 1, 1, 2, true), "conv1", "data")
	net.Add(NewReLU("relu1"), "relu1", "conv1")
	net.Add(NewGlobalAvgPool("gap"), "gap", "relu1")
	net.Add(NewFC("fc", 4), "fc", "gap")
	loss := NewSoftmaxLoss("loss")
	net.Add(loss, "loss", "fc")
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(27))
	sgd := NewSGD(0.1, 0.9, 0)
	loss.Labels = make([]int, 8)
	var first, last float32
	for it := 0; it < 100; it++ {
		in := net.InputBlob().Data
		in.Randomize(rng, 0.1)
		for n := 0; n < 8; n++ {
			lbl := rng.Intn(4)
			loss.Labels[n] = lbl
			h0, w0 := (lbl/2)*4, (lbl%2)*4
			for c := 0; c < 4; c++ {
				for h := 0; h < 4; h++ {
					for w := 0; w < 4; w++ {
						in.Add(n, c, h0+h, w0+w, 1.5)
					}
				}
			}
		}
		net.ZeroGrads()
		if err := net.Forward(); err != nil {
			t.Fatal(err)
		}
		if err := net.Backward(); err != nil {
			t.Fatal(err)
		}
		sgd.Step(net.Params())
		if it == 0 {
			first = loss.Loss
		}
		last = loss.Loss
	}
	if math.IsNaN(float64(last)) || last > first*0.8 {
		t.Fatalf("grouped training did not converge: %v -> %v", first, last)
	}
}

// Grouped convolution under µ-cuDNN: each group's kernel is planned and
// micro-batched independently, and the result matches plain cuDNN.
func TestGroupedConvUnderUcudnn(t *testing.T) {
	run := func(h ConvHandle, inner *cudnn.Handle) []float32 {
		ctx := NewContext(h, inner, 1<<20)
		ctx.RNG = rand.New(rand.NewSource(51))
		l := NewConvGrouped("gconv", 8, 3, 1, 1, 2, true)
		in := tensor.Shape{N: 6, C: 6, H: 9, W: 9}
		out, err := l.Setup(ctx, []tensor.Shape{in})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(52))
		x := tensor.NewShaped(in)
		x.Randomize(rng, 1)
		y := tensor.NewShaped(out)
		if err := l.Forward(ctx, []*tensor.Tensor{x}, y); err != nil {
			t.Fatal(err)
		}
		return y.Data
	}
	plain := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	base := run(plain, plain)

	inner := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	uc, err := core.New(inner, core.WithPolicy(core.PolicyPowerOfTwo), core.WithWorkspaceLimit(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	opt := run(uc, inner)
	if !tensor.AllClose(base, opt, 1e-4, 1e-4) {
		t.Fatalf("grouped conv diverged under µ-cuDNN: %g", tensor.MaxAbsDiff(base, opt))
	}
	// µ-cuDNN planned the group-shaped kernel (C/G channels).
	found := false
	for _, p := range uc.Plans() {
		if p.Kernel.Shape.In.C == 3 && p.Kernel.Shape.Filt.K == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no group-shaped plan: %v", uc.Plans())
	}
}

// recConv logs every ConvHandle call — descriptors, algorithm,
// workspace size, alpha/beta and operand shapes, never addresses — and
// forwards it to the wrapped handle.
type recConv struct {
	h   ConvHandle
	log []string
}

func (r *recConv) rec(args ...any) { r.log = append(r.log, fmt.Sprint(args...)) }

func (r *recConv) GetConvolutionForwardAlgorithm(x cudnn.TensorDesc, w cudnn.FilterDesc, cd cudnn.ConvDesc, y cudnn.TensorDesc, pref cudnn.Pref, lim int64) (conv.Algo, error) {
	r.rec("GetFwdAlgo", x, w, cd, y, pref, lim)
	return r.h.GetConvolutionForwardAlgorithm(x, w, cd, y, pref, lim)
}
func (r *recConv) GetConvolutionBackwardDataAlgorithm(w cudnn.FilterDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dx cudnn.TensorDesc, pref cudnn.Pref, lim int64) (conv.Algo, error) {
	r.rec("GetBwdDAlgo", w, dy, cd, dx, pref, lim)
	return r.h.GetConvolutionBackwardDataAlgorithm(w, dy, cd, dx, pref, lim)
}
func (r *recConv) GetConvolutionBackwardFilterAlgorithm(x, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dw cudnn.FilterDesc, pref cudnn.Pref, lim int64) (conv.Algo, error) {
	r.rec("GetBwdFAlgo", x, dy, cd, dw, pref, lim)
	return r.h.GetConvolutionBackwardFilterAlgorithm(x, dy, cd, dw, pref, lim)
}
func (r *recConv) GetConvolutionForwardWorkspaceSize(x cudnn.TensorDesc, w cudnn.FilterDesc, cd cudnn.ConvDesc, y cudnn.TensorDesc, a conv.Algo) (int64, error) {
	r.rec("GetFwdWS", x, w, cd, y, a)
	return r.h.GetConvolutionForwardWorkspaceSize(x, w, cd, y, a)
}
func (r *recConv) GetConvolutionBackwardDataWorkspaceSize(w cudnn.FilterDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dx cudnn.TensorDesc, a conv.Algo) (int64, error) {
	r.rec("GetBwdDWS", w, dy, cd, dx, a)
	return r.h.GetConvolutionBackwardDataWorkspaceSize(w, dy, cd, dx, a)
}
func (r *recConv) GetConvolutionBackwardFilterWorkspaceSize(x, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dw cudnn.FilterDesc, a conv.Algo) (int64, error) {
	r.rec("GetBwdFWS", x, dy, cd, dw, a)
	return r.h.GetConvolutionBackwardFilterWorkspaceSize(x, dy, cd, dw, a)
}
func (r *recConv) ConvolutionForward(alpha float32, xd cudnn.TensorDesc, x *tensor.Tensor, wd cudnn.FilterDesc, w *tensor.FilterTensor, cd cudnn.ConvDesc, a conv.Algo, ws []float32, beta float32, yd cudnn.TensorDesc, y *tensor.Tensor) error {
	r.rec("Fwd", alpha, xd, x.Shape, wd, w.Filter, cd, a, len(ws), beta, yd, y.Shape)
	return r.h.ConvolutionForward(alpha, xd, x, wd, w, cd, a, ws, beta, yd, y)
}
func (r *recConv) ConvolutionBackwardData(alpha float32, wd cudnn.FilterDesc, w *tensor.FilterTensor, dyd cudnn.TensorDesc, dy *tensor.Tensor, cd cudnn.ConvDesc, a conv.Algo, ws []float32, beta float32, dxd cudnn.TensorDesc, dx *tensor.Tensor) error {
	r.rec("BwdD", alpha, wd, w.Filter, dyd, dy.Shape, cd, a, len(ws), beta, dxd, dx.Shape)
	return r.h.ConvolutionBackwardData(alpha, wd, w, dyd, dy, cd, a, ws, beta, dxd, dx)
}
func (r *recConv) ConvolutionBackwardFilter(alpha float32, xd cudnn.TensorDesc, x *tensor.Tensor, dyd cudnn.TensorDesc, dy *tensor.Tensor, cd cudnn.ConvDesc, a conv.Algo, ws []float32, beta float32, dwd cudnn.FilterDesc, dw *tensor.FilterTensor) error {
	r.rec("BwdF", alpha, xd, x.Shape, dyd, dy.Shape, cd, a, len(ws), beta, dwd, dw.Filter)
	return r.h.ConvolutionBackwardFilter(alpha, xd, x, dyd, dy, cd, a, ws, beta, dwd, dw)
}

// oneWindowOOC is an executor for a lone conv layer whose plan is a
// single window covering the batch.
func oneWindowOOC(in, out tensor.Shape) *OOCState {
	n := int64(in.N)
	m := &OOCModel{
		Batch: in.N,
		Slabs: []OOCSlab{
			{Name: "x", PerSample: in.Bytes() / n, Full: 2 * in.Bytes()},
			{Name: "y", PerSample: out.Bytes() / n, Full: 2 * out.Bytes()},
		},
		Layers: []OOCLayerFoot{{Name: "conv", Slabs: []int{0, 1}, In: []int{0}, Out: 1}},
	}
	return NewOOCState(m, OOCPlan{Batch: in.N, Chunk: in.N, Windows: 1})
}

// The whole-batch pass is the one-window case of the windowed path, not
// a fork of it: with no blob budget and under a budget whose plan is one
// window, a conv layer must put the identical Get*/Convolution* sequence
// to the library.
func TestConvOneWindowIsWholeBatch(t *testing.T) {
	in := tensor.Shape{N: 4, C: 4, H: 6, W: 6}
	calls := func(groups int, skip, budget bool) []string {
		inner := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
		rc := &recConv{h: inner}
		ctx := NewContext(rc, inner, 1<<20)
		ctx.RNG = rand.New(rand.NewSource(61))
		l := NewConvGrouped("conv", 6, 3, 1, 1, groups, true)
		if skip {
			l.SkipInputGrad()
		}
		if budget {
			ctx.OOC = oneWindowOOC(in, tensor.Shape{N: in.N, C: 6, H: in.H, W: in.W})
		}
		out, err := l.Setup(ctx, []tensor.Shape{in})
		if err != nil {
			t.Fatal(err)
		}
		x, y, dy, dx := tensor.NewShaped(in), tensor.NewShaped(out), tensor.NewShaped(out), tensor.NewShaped(in)
		x.Randomize(ctx.RNG, 1)
		dy.Randomize(ctx.RNG, 1)
		for _, backward := range []bool{false, true} {
			if budget {
				if err := ctx.OOC.beginLayer(ctx, 0, backward); err != nil {
					t.Fatal(err)
				}
			}
			if !backward {
				err = l.Forward(ctx, []*tensor.Tensor{x}, y)
			} else {
				err = l.Backward(ctx, []*tensor.Tensor{x}, y, dy, []*tensor.Tensor{dx})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return rc.log
	}
	for _, groups := range []int{1, 2} {
		for _, skip := range []bool{false, true} {
			whole, windowed := calls(groups, skip, false), calls(groups, skip, true)
			// 6 queries, then one kernel call per group per op.
			ops := 3
			if skip {
				ops = 2
			}
			if want := 6 + ops*groups; len(whole) != want {
				t.Fatalf("groups=%d skip=%v: %d calls, want %d:\n%s", groups, skip, len(whole), want, strings.Join(whole, "\n"))
			}
			if !slices.Equal(whole, windowed) {
				t.Fatalf("groups=%d skip=%v: call sequences differ\nwhole-batch:\n%s\none window:\n%s",
					groups, skip, strings.Join(whole, "\n"), strings.Join(windowed, "\n"))
			}
		}
	}
}

// nopConv answers the three kernel calls with nothing, so a pass over it
// allocates only what the layer itself does.
type nopConv struct{ ConvHandle }

func (nopConv) ConvolutionForward(float32, cudnn.TensorDesc, *tensor.Tensor, cudnn.FilterDesc, *tensor.FilterTensor, cudnn.ConvDesc, conv.Algo, []float32, float32, cudnn.TensorDesc, *tensor.Tensor) error {
	return nil
}
func (nopConv) ConvolutionBackwardData(float32, cudnn.FilterDesc, *tensor.FilterTensor, cudnn.TensorDesc, *tensor.Tensor, cudnn.ConvDesc, conv.Algo, []float32, float32, cudnn.TensorDesc, *tensor.Tensor) error {
	return nil
}
func (nopConv) ConvolutionBackwardFilter(float32, cudnn.TensorDesc, *tensor.Tensor, cudnn.TensorDesc, *tensor.Tensor, cudnn.ConvDesc, conv.Algo, []float32, float32, cudnn.FilterDesc, *tensor.FilterTensor) error {
	return nil
}

// The unbudgeted pass takes no window headers: a window covering the
// batch is handed the layer's own tensors and descriptors, and the
// groups' channel and filter views are re-pointed in place, so Forward +
// Backward allocate nothing, grouped or not. A pass divided into sample
// windows (the out-of-core executor's partition) re-points the layer's
// window views in place too, and allocates nothing either.
func TestConvWholeBatchAllocs(t *testing.T) {
	in := tensor.Shape{N: 4, C: 4, H: 6, W: 6}
	for _, tc := range []struct {
		groups int
		part   []int // sample windows; nil for the whole batch
		want   float64
	}{{1, nil, 0}, {2, nil, 0}, {1, []int{3, 1}, 0}, {2, []int{2, 2}, 0}} {
		inner := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
		ctx := NewContext(inner, inner, 1<<20)
		if tc.part != nil {
			ctx.OOC = &OOCState{model: &OOCModel{Batch: in.N}, chunk: tc.part[0], part: tc.part}
		}
		l := NewConvGrouped("conv", 6, 3, 1, 1, tc.groups, true)
		out, err := l.Setup(ctx, []tensor.Shape{in})
		if err != nil {
			t.Fatal(err)
		}
		ctx.Conv = nopConv{}
		x, y, dy, dx := tensor.NewShaped(in), tensor.NewShaped(out), tensor.NewShaped(out), tensor.NewShaped(in)
		bot, dBot := []*tensor.Tensor{x}, []*tensor.Tensor{dx}
		got := testing.AllocsPerRun(10, func() {
			if err := l.Forward(ctx, bot, y); err != nil {
				t.Fatal(err)
			}
			if err := l.Backward(ctx, bot, y, dy, dBot); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Fatalf("groups=%d windows %v: %v allocs per Forward+Backward, want <= %v", tc.groups, tc.part, got, tc.want)
		}
	}
}
