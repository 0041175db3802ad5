package conv_test

import (
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/zoo"
)

// The implicit algorithms' workspace sizes decide which plans fit a
// budget, so they are pinned on every zoo conv shape: IMPLICIT_GEMM is
// zero for every op, IMPLICIT_PRECOMP_GEMM is the C·R·S·OH·OW index table
// (4 bytes per entry) at both the full and the minimal size. The numbers
// are those of the scalar kernels these replaced (commit 578b600).
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
