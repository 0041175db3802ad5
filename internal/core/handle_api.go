package core

import (
	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/tensor"
)

// This file is the overridden cuDNN call surface (§III-D): the same
// signatures as *cudnn.Handle, but Get*/Find* return the virtual
// algorithm with zero workspace (recording the kernel for WD), and
// Convolution* substitutes the optimized micro-batched plan. Every entry
// point runs cuDNN's own descriptor check (cudnn.CheckConv) before it
// registers or executes anything, so µ-cuDNN rejects exactly the
// descriptor sets cuDNN rejects.

// effectiveLimit maps a framework-provided preference/limit to the
// per-kernel workspace limit µ-cuDNN optimizes under.
func (h *Handle) effectiveLimit(pref cudnn.Pref, wsLimit int64) int64 {
	switch pref {
	case cudnn.SpecifyWorkspaceLimit:
		return wsLimit
	case cudnn.NoWorkspace:
		return 0
	default:
		return h.opts.WorkspaceLimit
	}
}

// GetConvolutionForwardAlgorithm records the forward kernel and returns
// the virtual algorithm.
func (h *Handle) GetConvolutionForwardAlgorithm(x cudnn.TensorDesc, w cudnn.FilterDesc, cd cudnn.ConvDesc, y cudnn.TensorDesc, pref cudnn.Pref, wsLimit int64) (conv.Algo, error) {
	cs, err := cudnn.CheckConv(x, w, cd, y)
	if err != nil {
		return 0, err
	}
	h.register(Kernel{Op: conv.Forward, Shape: cs}, h.effectiveLimit(pref, wsLimit))
	return VirtualAlgo, nil
}

// GetConvolutionBackwardDataAlgorithm records the backward-data kernel and
// returns the virtual algorithm.
func (h *Handle) GetConvolutionBackwardDataAlgorithm(w cudnn.FilterDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dx cudnn.TensorDesc, pref cudnn.Pref, wsLimit int64) (conv.Algo, error) {
	cs, err := cudnn.CheckConv(dx, w, cd, dy)
	if err != nil {
		return 0, err
	}
	h.register(Kernel{Op: conv.BackwardData, Shape: cs}, h.effectiveLimit(pref, wsLimit))
	return VirtualAlgo, nil
}

// GetConvolutionBackwardFilterAlgorithm records the backward-filter kernel
// and returns the virtual algorithm.
func (h *Handle) GetConvolutionBackwardFilterAlgorithm(x cudnn.TensorDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dw cudnn.FilterDesc, pref cudnn.Pref, wsLimit int64) (conv.Algo, error) {
	cs, err := cudnn.CheckConv(x, dw, cd, dy)
	if err != nil {
		return 0, err
	}
	h.register(Kernel{Op: conv.BackwardFilter, Shape: cs}, h.effectiveLimit(pref, wsLimit))
	return VirtualAlgo, nil
}

// virtualPerf is the single benchmark row µ-cuDNN reports through Find*:
// the virtual algorithm with zero required workspace, satisfying the
// cuDNN interface semantics so frameworks allocate nothing themselves.
func (h *Handle) virtualPerf(k Kernel) []cudnn.AlgoPerf {
	return []cudnn.AlgoPerf{{Algo: VirtualAlgo, Time: 0, Memory: 0}}
}

// FindConvolutionForwardAlgorithm registers the kernel and reports the
// virtual algorithm.
func (h *Handle) FindConvolutionForwardAlgorithm(x cudnn.TensorDesc, w cudnn.FilterDesc, cd cudnn.ConvDesc, y cudnn.TensorDesc) ([]cudnn.AlgoPerf, error) {
	cs, err := cudnn.CheckConv(x, w, cd, y)
	if err != nil {
		return nil, err
	}
	k := Kernel{Op: conv.Forward, Shape: cs}
	h.register(k, 0)
	return h.virtualPerf(k), nil
}

// FindConvolutionBackwardDataAlgorithm registers the kernel and reports
// the virtual algorithm.
func (h *Handle) FindConvolutionBackwardDataAlgorithm(w cudnn.FilterDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dx cudnn.TensorDesc) ([]cudnn.AlgoPerf, error) {
	cs, err := cudnn.CheckConv(dx, w, cd, dy)
	if err != nil {
		return nil, err
	}
	k := Kernel{Op: conv.BackwardData, Shape: cs}
	h.register(k, 0)
	return h.virtualPerf(k), nil
}

// FindConvolutionBackwardFilterAlgorithm registers the kernel and reports
// the virtual algorithm.
func (h *Handle) FindConvolutionBackwardFilterAlgorithm(x cudnn.TensorDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dw cudnn.FilterDesc) ([]cudnn.AlgoPerf, error) {
	cs, err := cudnn.CheckConv(x, dw, cd, dy)
	if err != nil {
		return nil, err
	}
	k := Kernel{Op: conv.BackwardFilter, Shape: cs}
	h.register(k, 0)
	return h.virtualPerf(k), nil
}

// GetConvolutionForwardWorkspaceSize reports zero for the virtual
// algorithm (µ-cuDNN owns its workspaces) and delegates otherwise.
func (h *Handle) GetConvolutionForwardWorkspaceSize(x cudnn.TensorDesc, w cudnn.FilterDesc, cd cudnn.ConvDesc, y cudnn.TensorDesc, algo conv.Algo) (int64, error) {
	if algo != VirtualAlgo {
		return h.inner.GetConvolutionForwardWorkspaceSize(x, w, cd, y, algo)
	}
	_, err := cudnn.CheckConv(x, w, cd, y)
	return 0, err
}

// GetConvolutionBackwardDataWorkspaceSize reports zero for the virtual
// algorithm and delegates otherwise.
func (h *Handle) GetConvolutionBackwardDataWorkspaceSize(w cudnn.FilterDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dx cudnn.TensorDesc, algo conv.Algo) (int64, error) {
	if algo != VirtualAlgo {
		return h.inner.GetConvolutionBackwardDataWorkspaceSize(w, dy, cd, dx, algo)
	}
	_, err := cudnn.CheckConv(dx, w, cd, dy)
	return 0, err
}

// GetConvolutionBackwardFilterWorkspaceSize reports zero for the virtual
// algorithm and delegates otherwise.
func (h *Handle) GetConvolutionBackwardFilterWorkspaceSize(x cudnn.TensorDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dw cudnn.FilterDesc, algo conv.Algo) (int64, error) {
	if algo != VirtualAlgo {
		return h.inner.GetConvolutionBackwardFilterWorkspaceSize(x, dy, cd, dw, algo)
	}
	_, err := cudnn.CheckConv(x, dw, cd, dy)
	return 0, err
}

// ConvolutionForward executes the optimized micro-batched forward plan
// when called with the virtual algorithm, delegating to cuDNN otherwise.
// The caller's workspace is ignored for virtual execution (zero was
// requested).
func (h *Handle) ConvolutionForward(alpha float32, xd cudnn.TensorDesc, x *tensor.Tensor, wd cudnn.FilterDesc, w *tensor.FilterTensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, yd cudnn.TensorDesc, y *tensor.Tensor) error {
	if algo != VirtualAlgo {
		return h.inner.ConvolutionForward(alpha, xd, x, wd, w, cd, algo, ws, beta, yd, y)
	}
	cs, err := cudnn.CheckConv(xd, wd, cd, yd)
	if err != nil {
		return err
	}
	return h.execute(conv.Forward, cs, x, w, y, alpha, beta)
}

// ConvolutionBackwardData executes the optimized micro-batched
// backward-data plan when called with the virtual algorithm.
func (h *Handle) ConvolutionBackwardData(alpha float32, wd cudnn.FilterDesc, w *tensor.FilterTensor, dyd cudnn.TensorDesc, dy *tensor.Tensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, dxd cudnn.TensorDesc, dx *tensor.Tensor) error {
	if algo != VirtualAlgo {
		return h.inner.ConvolutionBackwardData(alpha, wd, w, dyd, dy, cd, algo, ws, beta, dxd, dx)
	}
	cs, err := cudnn.CheckConv(dxd, wd, cd, dyd)
	if err != nil {
		return err
	}
	return h.execute(conv.BackwardData, cs, dx, w, dy, alpha, beta)
}

// ConvolutionBackwardFilter executes the optimized micro-batched
// backward-filter plan when called with the virtual algorithm; gradient
// accumulation across micro-batches keeps the undivided semantics.
func (h *Handle) ConvolutionBackwardFilter(alpha float32, xd cudnn.TensorDesc, x *tensor.Tensor, dyd cudnn.TensorDesc, dy *tensor.Tensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, dwd cudnn.FilterDesc, dw *tensor.FilterTensor) error {
	if algo != VirtualAlgo {
		return h.inner.ConvolutionBackwardFilter(alpha, xd, x, dyd, dy, cd, algo, ws, beta, dwd, dw)
	}
	cs, err := cudnn.CheckConv(xd, dwd, cd, dyd)
	if err != nil {
		return err
	}
	return h.execute(conv.BackwardFilter, cs, x, dw, dy, alpha, beta)
}
