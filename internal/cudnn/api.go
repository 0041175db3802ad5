package cudnn

import (
	"fmt"

	"ucudnn/internal/conv"
	"ucudnn/internal/tensor"
)

// This file provides the cuDNN-named entry points frameworks call. Each is
// a thin descriptor-validating wrapper over the generic AlgoPerfs /
// PickAlgo / Convolve core; µ-cuDNN overrides exactly this surface.

// CheckConv is the descriptor check every convolution entry point runs
// before anything else: (x, w, cd) must describe a valid convolution
// whose output is y. x is the forward input (dX for BackwardData) and y
// the forward output (dY for the backward ops). It returns the shape.
func CheckConv(x TensorDesc, w FilterDesc, cd ConvDesc, y TensorDesc) (tensor.ConvShape, error) {
	cs := Shape(x, w, cd)
	if !cs.Valid() {
		return cs, fmt.Errorf("cudnn: invalid convolution %v", cs)
	}
	o := cs.OutShape()
	if (tensor.Shape{N: y.N, C: y.C, H: y.H, W: y.W}) != o {
		return cs, fmt.Errorf("cudnn: output descriptor %v does not match %v", y, o)
	}
	return cs, nil
}

// GetConvolutionForwardAlgorithm mirrors cudnnGetConvolutionForwardAlgorithm.
func (h *Handle) GetConvolutionForwardAlgorithm(x TensorDesc, w FilterDesc, cd ConvDesc, y TensorDesc, pref Pref, wsLimit int64) (conv.Algo, error) {
	cs, err := CheckConv(x, w, cd, y)
	if err != nil {
		return 0, err
	}
	p, err := h.PickAlgo(conv.Forward, cs, pref, wsLimit)
	return p.Algo, err
}

// GetConvolutionBackwardDataAlgorithm mirrors
// cudnnGetConvolutionBackwardDataAlgorithm.
func (h *Handle) GetConvolutionBackwardDataAlgorithm(w FilterDesc, dy TensorDesc, cd ConvDesc, dx TensorDesc, pref Pref, wsLimit int64) (conv.Algo, error) {
	cs, err := CheckConv(dx, w, cd, dy)
	if err != nil {
		return 0, err
	}
	p, err := h.PickAlgo(conv.BackwardData, cs, pref, wsLimit)
	return p.Algo, err
}

// GetConvolutionBackwardFilterAlgorithm mirrors
// cudnnGetConvolutionBackwardFilterAlgorithm.
func (h *Handle) GetConvolutionBackwardFilterAlgorithm(x TensorDesc, dy TensorDesc, cd ConvDesc, dw FilterDesc, pref Pref, wsLimit int64) (conv.Algo, error) {
	cs, err := CheckConv(x, dw, cd, dy)
	if err != nil {
		return 0, err
	}
	p, err := h.PickAlgo(conv.BackwardFilter, cs, pref, wsLimit)
	return p.Algo, err
}

// FindConvolutionForwardAlgorithm mirrors
// cudnnFindConvolutionForwardAlgorithm: it benchmarks all supported
// algorithms and returns them sorted fastest first.
func (h *Handle) FindConvolutionForwardAlgorithm(x TensorDesc, w FilterDesc, cd ConvDesc, y TensorDesc) ([]AlgoPerf, error) {
	cs, err := CheckConv(x, w, cd, y)
	if err != nil {
		return nil, err
	}
	return h.AlgoPerfs(conv.Forward, cs), nil
}

// FindConvolutionBackwardDataAlgorithm mirrors
// cudnnFindConvolutionBackwardDataAlgorithm.
func (h *Handle) FindConvolutionBackwardDataAlgorithm(w FilterDesc, dy TensorDesc, cd ConvDesc, dx TensorDesc) ([]AlgoPerf, error) {
	cs, err := CheckConv(dx, w, cd, dy)
	if err != nil {
		return nil, err
	}
	return h.AlgoPerfs(conv.BackwardData, cs), nil
}

// FindConvolutionBackwardFilterAlgorithm mirrors
// cudnnFindConvolutionBackwardFilterAlgorithm.
func (h *Handle) FindConvolutionBackwardFilterAlgorithm(x TensorDesc, dy TensorDesc, cd ConvDesc, dw FilterDesc) ([]AlgoPerf, error) {
	cs, err := CheckConv(x, dw, cd, dy)
	if err != nil {
		return nil, err
	}
	return h.AlgoPerfs(conv.BackwardFilter, cs), nil
}

// GetConvolutionForwardWorkspaceSize mirrors
// cudnnGetConvolutionForwardWorkspaceSize. The size covers the kernel
// engine's full-parallel execution (per-worker workspace strips); the
// kernels accept smaller buffers down to conv.MinWorkspace by running
// with fewer strips.
func (h *Handle) GetConvolutionForwardWorkspaceSize(x TensorDesc, w FilterDesc, cd ConvDesc, y TensorDesc, algo conv.Algo) (int64, error) {
	cs, err := CheckConv(x, w, cd, y)
	if err != nil {
		return 0, err
	}
	bytes, ok := conv.Workspace(conv.Forward, algo, cs)
	if !ok {
		return 0, fmt.Errorf("cudnn: %v unsupported for Forward on %v", algo, cs)
	}
	return bytes, nil
}

// GetConvolutionBackwardDataWorkspaceSize mirrors
// cudnnGetConvolutionBackwardDataWorkspaceSize.
func (h *Handle) GetConvolutionBackwardDataWorkspaceSize(w FilterDesc, dy TensorDesc, cd ConvDesc, dx TensorDesc, algo conv.Algo) (int64, error) {
	cs, err := CheckConv(dx, w, cd, dy)
	if err != nil {
		return 0, err
	}
	bytes, ok := conv.Workspace(conv.BackwardData, algo, cs)
	if !ok {
		return 0, fmt.Errorf("cudnn: %v unsupported for BackwardData on %v", algo, cs)
	}
	return bytes, nil
}

// GetConvolutionBackwardFilterWorkspaceSize mirrors
// cudnnGetConvolutionBackwardFilterWorkspaceSize.
func (h *Handle) GetConvolutionBackwardFilterWorkspaceSize(x TensorDesc, dy TensorDesc, cd ConvDesc, dw FilterDesc, algo conv.Algo) (int64, error) {
	cs, err := CheckConv(x, dw, cd, dy)
	if err != nil {
		return 0, err
	}
	bytes, ok := conv.Workspace(conv.BackwardFilter, algo, cs)
	if !ok {
		return 0, fmt.Errorf("cudnn: %v unsupported for BackwardFilter on %v", algo, cs)
	}
	return bytes, nil
}

// ConvolutionForward mirrors cudnnConvolutionForward:
// y = alpha*conv(x, w) + beta*y.
func (h *Handle) ConvolutionForward(alpha float32, xd TensorDesc, x *tensor.Tensor, wd FilterDesc, w *tensor.FilterTensor, cd ConvDesc, algo conv.Algo, ws []float32, beta float32, yd TensorDesc, y *tensor.Tensor) error {
	cs, err := CheckConv(xd, wd, cd, yd)
	if err != nil {
		return err
	}
	return h.Convolve(conv.Forward, algo, cs, x, w, y, alpha, beta, ws)
}

// ConvolutionBackwardData mirrors cudnnConvolutionBackwardData:
// dx = alpha*corr*(dy, w) + beta*dx.
func (h *Handle) ConvolutionBackwardData(alpha float32, wd FilterDesc, w *tensor.FilterTensor, dyd TensorDesc, dy *tensor.Tensor, cd ConvDesc, algo conv.Algo, ws []float32, beta float32, dxd TensorDesc, dx *tensor.Tensor) error {
	cs, err := CheckConv(dxd, wd, cd, dyd)
	if err != nil {
		return err
	}
	return h.Convolve(conv.BackwardData, algo, cs, dx, w, dy, alpha, beta, ws)
}

// ConvolutionBackwardFilter mirrors cudnnConvolutionBackwardFilter:
// dw = alpha*grad(x, dy) + beta*dw. beta=1 accumulates, which is how
// micro-batched filter gradients keep the undivided semantics.
func (h *Handle) ConvolutionBackwardFilter(alpha float32, xd TensorDesc, x *tensor.Tensor, dyd TensorDesc, dy *tensor.Tensor, cd ConvDesc, algo conv.Algo, ws []float32, beta float32, dwd FilterDesc, dw *tensor.FilterTensor) error {
	cs, err := CheckConv(xd, dwd, cd, dyd)
	if err != nil {
		return err
	}
	return h.Convolve(conv.BackwardFilter, algo, cs, x, dw, dy, alpha, beta, ws)
}
