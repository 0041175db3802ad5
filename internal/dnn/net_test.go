package dnn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/tensor"
)

// buildTinyNet constructs a small CNN ending in a softmax loss.
func buildTinyNet(ctx *Context, batch int) (*Net, *SoftmaxLoss) {
	net := NewNet(ctx)
	net.Input("data", tensor.Shape{N: batch, C: 3, H: 8, W: 8})
	net.Add(NewConv("conv1", 8, 3, 1, 1, true), "conv1", "data")
	net.Add(NewReLU("relu1"), "relu1", "conv1")
	net.Add(NewPool("pool1", MaxPool, 2, 2, 0), "pool1", "relu1")
	net.Add(NewConv("conv2", 8, 3, 1, 1, true), "conv2", "pool1")
	net.Add(NewReLU("relu2"), "relu2", "conv2")
	net.Add(NewGlobalAvgPool("gap"), "gap", "relu2")
	net.Add(NewFC("fc", 4), "fc", "gap")
	loss := NewSoftmaxLoss("loss")
	net.Add(loss, "loss", "fc")
	return net, loss
}

// ZeroGrads runs every iteration of a training loop, so it walks the
// parameter list Setup built instead of building one: it allocates
// nothing, and still clears every gradient.
func TestZeroGradsAllocs(t *testing.T) {
	net, _ := buildTinyNet(testCtx(), 4)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	if got := len(net.Params()); got != 6 {
		t.Fatalf("%d parameters, want 6 (two convs and an FC, each with a bias)", got)
	}
	for _, p := range net.Params() {
		for i := range p.Grad {
			p.Grad[i] = 1
		}
	}
	if allocs := testing.AllocsPerRun(10, net.ZeroGrads); allocs != 0 {
		t.Fatalf("%v allocs per ZeroGrads, want 0", allocs)
	}
	for _, p := range net.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatalf("%s: gradient left at %v", p.Name, g)
			}
		}
	}
}

func TestNetForwardBackward(t *testing.T) {
	ctx := testCtx()
	net, loss := buildTinyNet(ctx, 4)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	net.InputBlob().Data.Randomize(rng, 1)
	loss.Labels = []int{0, 1, 2, 3}
	if err := net.Forward(); err != nil {
		t.Fatal(err)
	}
	if loss.Loss <= 0 {
		t.Fatal("loss must be positive")
	}
	if err := net.Backward(); err != nil {
		t.Fatal(err)
	}
	// Some parameter gradient must be nonzero.
	nonzero := false
	for _, p := range net.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("backward produced all-zero gradients")
	}
	if len(net.Layers()) != 8 {
		t.Fatalf("layers = %v", net.Layers())
	}
}

// Time's timed iterations start each backward pass from zeroed blob
// gradients, as Backward does; otherwise every iteration's bottom
// gradients pile onto the previous one's.
func TestNetTimeZeroesBlobGrads(t *testing.T) {
	build := func() *Net {
		net, loss := buildTinyNet(testCtx(), 4)
		if err := net.Setup(); err != nil {
			t.Fatal(err)
		}
		net.InputBlob().Data.Randomize(rand.New(rand.NewSource(3)), 1)
		loss.Labels = []int{0, 1, 2, 3}
		return net
	}
	timed := build()
	if _, err := timed.Time(1); err != nil {
		t.Fatal(err)
	}
	ref := build() // Time(1) is a warm-up iteration plus one timed one
	for i := 0; i < 2; i++ {
		if err := ref.Forward(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Backward(); err != nil {
			t.Fatal(err)
		}
	}
	got, want := timed.Blob("pool1").Grad.Data, ref.Blob("pool1").Grad.Data
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("pool1 gradient[%d] after Time(1) = %v, after two Forward+Backward passes %v", i, got[i], want[i])
		}
	}
}

func TestNetErrors(t *testing.T) {
	ctx := testCtx()
	net := NewNet(ctx)
	if err := net.Setup(); err == nil {
		t.Fatal("missing input must error")
	}
	net.Input("data", tensor.Shape{N: 1, C: 1, H: 4, W: 4})
	net.Add(NewReLU("r"), "out", "nosuch")
	if err := net.Setup(); err == nil || !strings.Contains(err.Error(), "unknown blob") {
		t.Fatalf("unknown bottom: %v", err)
	}
	net2 := NewNet(testCtx())
	net2.Input("data", tensor.Shape{N: 1, C: 1, H: 4, W: 4})
	net2.Add(NewReLU("r1"), "data", "data")
	if err := net2.Setup(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate blob: %v", err)
	}
	net3 := NewNet(testCtx())
	net3.Input("data", tensor.Shape{N: 1, C: 1, H: 4, W: 4})
	if err := net3.Backward(); err == nil {
		t.Fatal("backward before setup must error")
	}
}

// Training on a learnable synthetic task: loss must drop substantially.
func TestTrainingConverges(t *testing.T) {
	ctx := testCtx()
	batch := 8
	net, loss := buildTinyNet(ctx, batch)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	// Task: classify by which quadrant carries the largest energy.
	rng := rand.New(rand.NewSource(7))
	makeBatch := func() {
		in := net.InputBlob().Data
		in.Randomize(rng, 0.1)
		loss.Labels = make([]int, batch)
		for n := 0; n < batch; n++ {
			lbl := rng.Intn(4)
			loss.Labels[n] = lbl
			h0, w0 := (lbl/2)*4, (lbl%2)*4
			for c := 0; c < 3; c++ {
				for h := 0; h < 4; h++ {
					for w := 0; w < 4; w++ {
						in.Add(n, c, h0+h, w0+w, 1.5)
					}
				}
			}
		}
	}
	sgd := NewSGD(0.05, 0.9, 1e-4)
	var first, last float32
	for it := 0; it < 60; it++ {
		makeBatch()
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
	if last > first*0.7 {
		t.Fatalf("training did not converge: first %v last %v", first, last)
	}
	t.Logf("loss %v -> %v", first, last)
}

// The paper's transparency claim: swapping the cuDNN handle for the
// µ-cuDNN handle leaves network outputs numerically unchanged while the
// conv layers run micro-batched plans.
func TestHandleSwapTransparency(t *testing.T) {
	run := func(h ConvHandle, inner *cudnn.Handle) ([]float32, float32) {
		ctx := NewContext(h, inner, 1<<20)
		ctx.RNG = rand.New(rand.NewSource(42)) // identical init
		net, loss := buildTinyNet(ctx, 6)
		if err := net.Setup(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		net.InputBlob().Data.Randomize(rng, 1)
		loss.Labels = []int{0, 1, 2, 3, 0, 1}
		if err := net.Forward(); err != nil {
			t.Fatal(err)
		}
		if err := net.Backward(); err != nil {
			t.Fatal(err)
		}
		return append([]float32{}, net.Blob("fc").Data.Data...), loss.Loss
	}
	plainInner := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	plainOut, plainLoss := run(plainInner, plainInner)

	ucInner := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	uc, err := core.New(ucInner, core.WithPolicy(core.PolicyPowerOfTwo), core.WithWorkspaceLimit(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	ucOut, ucLoss := run(uc, ucInner)

	if !tensor.AllClose(plainOut, ucOut, 1e-3, 1e-3) {
		t.Fatalf("µ-cuDNN changed the network output: maxdiff %g",
			tensor.MaxAbsDiff(plainOut, ucOut))
	}
	if d := plainLoss - ucLoss; d > 1e-3 || d < -1e-3 {
		t.Fatalf("loss diverged: %v vs %v", plainLoss, ucLoss)
	}
	// µ-cuDNN actually planned the conv kernels.
	if len(uc.Plans()) == 0 {
		t.Fatal("µ-cuDNN produced no plans")
	}
}

// Timing-only mode: no host tensors, but a full per-layer breakdown from
// the simulated clock.
func TestNetTimeSkipCompute(t *testing.T) {
	inner := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	ctx := NewContext(inner, inner, 8<<20)
	net, _ := buildTinyNet(ctx, 64)
	rep, err := net.Time(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() <= 0 {
		t.Fatal("simulated time must be positive")
	}
	if len(rep.Layers) != 8 {
		t.Fatalf("layers in report = %d", len(rep.Layers))
	}
	conv1 := rep.Layer("conv1")
	if conv1 == nil || conv1.Forward <= 0 || conv1.Backward <= 0 {
		t.Fatalf("conv1 timing missing: %+v", conv1)
	}
	// Backward of a conv layer runs two kernels; it should cost more than
	// forward.
	if conv1.Backward <= conv1.Forward {
		t.Fatalf("conv backward (%v) should exceed forward (%v)", conv1.Backward, conv1.Forward)
	}
	convSum := rep.SumMatching(func(n string) bool { return strings.HasPrefix(n, "conv") })
	if convSum <= 0 || convSum > rep.Total() {
		t.Fatalf("conv total %v out of range (total %v)", convSum, rep.Total())
	}
	var sb strings.Builder
	rep.Print(&sb)
	if !strings.Contains(sb.String(), "TOTAL") || !strings.Contains(sb.String(), "conv1") {
		t.Fatal("report print missing rows")
	}
	// Memory accounting happened even without host tensors.
	if inner.Mem().Used() == 0 {
		t.Fatal("device memory accounting missing")
	}
}

// µ-cuDNN under a tiny per-layer limit must beat (or match) plain cuDNN's
// simulated network time at the same limit — the Fig. 10 mechanism.
func TestMicroBatchingSpeedsUpNetwork(t *testing.T) {
	timeNet := func(h ConvHandle, inner *cudnn.Handle) float64 {
		ctx := NewContext(h, inner, 4<<20)
		net := NewNet(ctx)
		net.Input("data", tensor.Shape{N: 128, C: 64, H: 27, W: 27})
		net.Add(NewConv("conv2", 192, 5, 1, 2, false), "conv2", "data")
		net.Add(NewConv("conv3", 128, 3, 1, 1, false), "conv3", "conv2")
		rep, err := net.Time(2)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total().Seconds()
	}
	plain := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	base := timeNet(plain, plain)
	ucInner := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	uc, err := core.New(ucInner, core.WithPolicy(core.PolicyPowerOfTwo), core.WithWorkspaceLimit(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	opt := timeNet(uc, ucInner)
	if opt > base*1.001 {
		t.Fatalf("µ-cuDNN net time %v must not exceed cuDNN %v", opt, base)
	}
	t.Logf("net: cuDNN %.3fs vs µ-cuDNN %.3fs (%.2fx)", base, opt, base/opt)
}

// TF-style integration: the framework passes PreferFastest and no limit;
// µ-cuDNN applies its own (env-configured) limit — the paper's §IV-B2
// TensorFlow path. With plain cuDNN the same context just picks the
// fastest algorithm.
func TestTFStyleContext(t *testing.T) {
	t.Setenv("UCUDNN_WORKSPACE_LIMIT", "1048576")
	t.Setenv("UCUDNN_BATCH_SIZE_POLICY", "powerOfTwo")
	inner := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	uc, err := core.New(inner, core.FromEnv())
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContextTF(uc, inner)
	net := NewNet(ctx)
	net.Input("data", tensor.Shape{N: 64, C: 32, H: 27, W: 27})
	net.Add(NewConv("conv", 48, 5, 1, 2, false), "conv", "data")
	if _, err := net.Time(1); err != nil {
		t.Fatal(err)
	}
	plans := uc.Plans()
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	for _, p := range plans {
		if p.Workspace > 1<<20 {
			t.Fatalf("env limit ignored: plan ws %d", p.Workspace)
		}
	}
}
