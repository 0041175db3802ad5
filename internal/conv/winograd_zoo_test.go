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
		h := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
		ctx := dnn.NewContext(h, h, 64<<20)
		ctx.SkipCompute = true
		net, _, err := zoo.Build(ctx, name, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Setup(); err != nil {
			t.Fatal(err)
		}
		var got pin
		for _, l := range net.ConvLayers() {
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
