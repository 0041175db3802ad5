package core_test

import (
	"fmt"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/tensor"
)

// ExampleOptimizeWR plans AlexNet's conv2 forward kernel under the
// paper's 64 MiB workspace limit: the optimizer divides the mini-batch so
// the FFT algorithm fits.
func ExampleOptimizeWR() {
	h := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	b := core.NewBencher(h, nil)
	kernel := core.Kernel{
		Op: conv.Forward,
		Shape: tensor.ConvShape{
			In:     tensor.Shape{N: 256, C: 64, H: 27, W: 27},
			Filt:   tensor.Filter{K: 192, C: 64, R: 5, S: 5},
			Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1},
		},
	}
	plan, err := core.OptimizeWR(b, kernel, 64<<20, core.PolicyPowerOfTwo)
	if err != nil {
		panic(err)
	}
	fmt.Println(plan.Config)
	// Output: <FFT@32, FFT@32, FFT@32, FFT@32, FFT@32, FFT@32, FFT@32, FFT@32>
}

// ExampleNew wires µ-cuDNN in front of a cuDNN handle: the Get call
// returns the virtual algorithm with zero workspace, exactly as the
// paper's framework integration expects.
func ExampleNew() {
	inner := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	h, err := core.New(inner, core.WithWorkspaceLimit(8<<20))
	if err != nil {
		panic(err)
	}
	xd, _ := cudnn.NewTensorDesc(64, 16, 13, 13)
	wd, _ := cudnn.NewFilterDesc(32, 16, 3, 3)
	cd, _ := cudnn.NewConvDesc(1, 1, 1, 1, 1, 1)
	yd, _ := cudnn.GetOutputDim(xd, wd, cd)
	algo, _ := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.PreferFastest, 0)
	ws, _ := h.GetConvolutionForwardWorkspaceSize(xd, wd, cd, yd, algo)
	fmt.Println(algo == core.VirtualAlgo, ws)
	// Output: true 0
}

// ExamplePolicy_CandidateSizes shows the micro-batch sizes each policy
// benchmarks for a mini-batch of 16.
func ExamplePolicy_CandidateSizes() {
	fmt.Println(core.PolicyUndivided.CandidateSizes(16))
	fmt.Println(core.PolicyPowerOfTwo.CandidateSizes(16))
	fmt.Println(core.PolicyAll.CandidateSizes(16))
	// Output:
	// [16]
	// [1 2 4 8 16]
	// [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16]
}
