package conv_test

import (
	"testing"

	"ucudnn/internal/blas"
	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/tensor"
	"ucudnn/internal/zoo"
)

// zooConvLayers builds zoo network name at batch 4 on the model-only
// backend and returns its convolution layers, whose shapes the
// workspace pins below sum over.
func zooConvLayers(t *testing.T, name string) []*dnn.Conv {
	t.Helper()
	h := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	ctx := dnn.NewContext(h, h, 64<<20)
	net, _, err := zoo.Build(ctx, name, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	return net.ConvLayers()
}

// The implicit algorithms' workspace sizes decide which plans fit a
// budget, so they are pinned on every zoo conv shape: IMPLICIT_GEMM is
// zero for every op, IMPLICIT_PRECOMP_GEMM reserves cuDNN's C·R·S·OH·OW
// index table (4 bytes per entry) at both the full and the minimal size,
// though its kernel is IMPLICIT_GEMM's and reads none of it: the device
// model plans cuDNN's PRECOMP, which needs it. The numbers are those of
// the scalar kernels these replaced (commit 578b600).
func TestImplicitWorkspacePinnedOnZoo(t *testing.T) {
	type pin struct {
		convs    int
		sum, max int64
	}
	pins := map[string]pin{
		"alexnet":       {5, 14119788, 4665600},
		"caffe-alexnet": {5, 11785260, 4392300},
		"resnet18":      {20, 58756096, 7375872},
		"resnet50":      {53, 83041280, 7375872},
		"densenet40":    {39, 219791360, 16809984},
		"inception":     {6, 6372352, 2709504},
	}
	alexnet := map[string]int64{"conv1": 4392300, "conv2": 4665600, "conv3": 1168128, "conv4": 2336256, "conv5": 1557504}
	for _, name := range zoo.Names() {
		var got pin
		for _, l := range zooConvLayers(t, name) {
			cs := l.Shape()
			for _, op := range conv.Ops {
				full, ok1 := conv.Workspace(op, conv.AlgoImplicitGemm, cs)
				least, ok2 := conv.MinWorkspace(op, conv.AlgoImplicitGemm, cs)
				if !ok1 || !ok2 || full != 0 || least != 0 {
					t.Errorf("%s %s %v: IMPLICIT_GEMM workspace %d/%d (%v/%v), want 0", name, l.Name(), op, full, least, ok1, ok2)
				}
			}
			full, ok1 := conv.Workspace(conv.Forward, conv.AlgoImplicitPrecompGemm, cs)
			least, ok2 := conv.MinWorkspace(conv.Forward, conv.AlgoImplicitPrecompGemm, cs)
			if !ok1 || !ok2 || full != least {
				t.Errorf("%s %s: IMPLICIT_PRECOMP_GEMM workspace %d, minimal %d (%v/%v)", name, l.Name(), full, least, ok1, ok2)
			}
			if want, ok := alexnet[l.Name()]; ok && name == "alexnet" && full != want {
				t.Errorf("alexnet %s: IMPLICIT_PRECOMP_GEMM workspace %d, want %d", l.Name(), full, want)
			}
			got.convs++
			got.sum += full
			got.max = max(got.max, full)
		}
		if got != pins[name] {
			t.Errorf("%s: IMPLICIT_PRECOMP_GEMM workspace over conv layers = %+v, want %+v", name, got, pins[name])
		}
	}
}

// The Winograd kernels' workspace sizes decide which plans fit a budget,
// so they are pinned for every op on every zoo conv shape, at the full
// and the minimal size (MaxWorkers 4, TestMain's pin). The numbers are
// those of the per-tile kernels the lane-batched ones replaced (commit
// d965f73): the lane blocks and pack blocks live on the workers' stacks
// and the filter bank is packed within its own k*c floats, so nothing
// here moved — including where K (or C, BackwardData's panel dimension)
// is not a multiple of blas.MR and the last filter panel has no room for
// its zero padding.
func TestWinogradWorkspacePinnedOnZoo(t *testing.T) {
	algos := []conv.Algo{conv.AlgoWinograd, conv.AlgoWinogradNonfused}
	type pin struct {
		kernels          int
		full, least, max int64
	}
	pins := map[string]pin{
		"alexnet":       {18, 366842432, 366814352, 31067136},
		"caffe-alexnet": {18, 253600320, 253572240, 31067136},
		"resnet18":      {65, 1003614912, 1003519152, 40109760},
		"resnet50":      {80, 1227256000, 1227136048, 40109760},
		"densenet40":    {185, 1676145920, 1675883840, 22957056},
		"inception":     {8, 46542400, 46530448, 8883200},
	}
	ragged := 0 // kernels with a partial last filter panel
	for _, name := range zoo.Names() {
		var got pin
		for _, l := range zooConvLayers(t, name) {
			cs := l.Shape()
			for _, op := range conv.Ops {
				for _, algo := range algos {
					full, ok := conv.Workspace(op, algo, cs)
					if !ok {
						continue
					}
					least, _ := conv.MinWorkspace(op, algo, cs)
					got.kernels++
					got.full += full
					got.least += least
					got.max = max(got.max, full)
					if cs.Filt.K%blas.MR != 0 || cs.Filt.C%blas.MR != 0 {
						ragged++
					}
				}
			}
		}
		if got != pins[name] {
			t.Errorf("%s: Winograd workspace over conv kernels = %+v, want %+v", name, got, pins[name])
		}
	}
	if ragged == 0 {
		t.Error("no zoo kernel has K or C off a multiple of blas.MR; the pins no longer cover the partial filter panel")
	}

	// Shapes chosen for the partial panel: K = 30 with two kc-blocks of C,
	// K = 7 and K = 9 (F(2,3), F(4,3)/F(6,3) and F(2,5) between them).
	shape := func(n, c, h, w, k, r, pad int) tensor.ConvShape {
		return tensor.ConvShape{
			In:     tensor.Shape{N: n, C: c, H: h, W: w},
			Filt:   tensor.Filter{K: k, C: c, R: r, S: r},
			Params: tensor.ConvParams{PadH: pad, PadW: pad, StrideH: 1, StrideW: 1},
		}
	}
	for _, tc := range []struct {
		cs          tensor.ConvShape
		op          conv.Op
		algo        conv.Algo
		full, least int64
	}{
		{shape(2, 200, 13, 13, 30, 3, 1), conv.Forward, conv.AlgoWinograd, 1326848, 1326272},
		{shape(2, 200, 13, 13, 30, 3, 1), conv.Forward, conv.AlgoWinogradNonfused, 2598912, 2596608},
		{shape(2, 200, 13, 13, 30, 3, 1), conv.BackwardData, conv.AlgoWinograd, 1326848, 1326272},
		{shape(2, 200, 13, 13, 30, 3, 1), conv.BackwardData, conv.AlgoWinogradNonfused, 2598912, 2596608},
		{shape(2, 200, 13, 13, 30, 3, 1), conv.BackwardFilter, conv.AlgoWinogradNonfused, 2598912, 2596608},
		{shape(3, 5, 17, 11, 7, 3, 0), conv.Forward, conv.AlgoWinograd, 52160, 51584},
		{shape(3, 5, 17, 11, 7, 3, 0), conv.Forward, conv.AlgoWinogradNonfused, 68976, 67680},
		{shape(3, 5, 17, 11, 7, 3, 0), conv.BackwardData, conv.AlgoWinograd, 52160, 51584},
		{shape(3, 5, 17, 11, 7, 3, 0), conv.BackwardData, conv.AlgoWinogradNonfused, 84528, 83232},
		{shape(3, 5, 17, 11, 7, 3, 0), conv.BackwardFilter, conv.AlgoWinogradNonfused, 68976, 67680},
		{shape(2, 6, 16, 16, 9, 5, 2), conv.Forward, conv.AlgoWinogradNonfused, 285984, 284688},
		{shape(2, 6, 16, 16, 9, 5, 2), conv.BackwardData, conv.AlgoWinogradNonfused, 285984, 284688},
		{shape(2, 6, 16, 16, 9, 5, 2), conv.BackwardFilter, conv.AlgoWinogradNonfused, 285984, 284688},
	} {
		full, ok := conv.Workspace(tc.op, tc.algo, tc.cs)
		least, _ := conv.MinWorkspace(tc.op, tc.algo, tc.cs)
		if !ok || full != tc.full || least != tc.least {
			t.Errorf("%v %v %v: workspace %d, minimal %d (%v), want %d, %d", tc.cs, tc.op, tc.algo, full, least, ok, tc.full, tc.least)
		}
	}
}

// The FFT kernels' workspace sizes decide which plans fit a budget just
// as the Winograd ones do, and FFT's is the batch-proportional one the
// paper's micro-batching trades against: pinned for both spectral
// algorithms, every op, every zoo conv shape, at the full and the
// minimal size (MaxWorkers 4, TestMain's pin). The numbers are those of
// the kernels at commit 18b80f7, before FFT and FFT_TILING shared one
// geometry.
func TestFFTWorkspacePinnedOnZoo(t *testing.T) {
	algos := [2]conv.Algo{conv.AlgoFFT, conv.AlgoFFTTiling}
	type pin struct {
		kernels          int
		full, least, max int64
	}
	pins := map[string][2]pin{
		"alexnet":       {{12, 176287520, 176219840, 31212568}, {12, 3365941536, 3365789184, 438977560}},
		"caffe-alexnet": {{12, 132198176, 132130496, 20907032}, {12, 2245423392, 2245271040, 438977560}},
		"resnet18":      {{39, 1039141800, 1038369024, 43321368}, {39, 13998383016, 13997887872, 1158693912}},
		"resnet50":      {{138, 5396644848, 5394516960, 160106520}, {138, 131984569584, 131982817536, 4607984664}},
		"densenet40":    {{117, 8600937720, 8598366528, 280135704}, {117, 30688809720, 30687324288, 4179608600}},
		"inception":     {{18, 332876208, 332647680, 31769624}, {18, 754010544, 753782016, 85247000}},
	}
	for _, name := range zoo.Names() {
		var got [2]pin
		for _, l := range zooConvLayers(t, name) {
			cs := l.Shape()
			for _, op := range conv.Ops {
				for i, algo := range algos {
					full, ok := conv.Workspace(op, algo, cs)
					if !ok {
						continue
					}
					least, _ := conv.MinWorkspace(op, algo, cs)
					got[i].kernels++
					got[i].full += full
					got[i].least += least
					got[i].max = max(got[i].max, full)
				}
			}
		}
		for i, algo := range algos {
			if got[i] != pins[name][i] {
				t.Errorf("%s: %v workspace over conv kernels = %+v, want %+v", name, algo, got[i], pins[name][i])
			}
		}
	}
}
