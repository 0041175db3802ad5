package conv

import (
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

// runDirect is the reference implementation: the seven-nested-loop
// convolution of the paper's Algorithm 1, with no workspace. It is the
// correctness oracle for every other algorithm.
//
// BackwardFilter deliberately accumulates the per-sample contributions in
// batch order with a single running accumulator per filter element, so a
// micro-batched sequence of calls with beta=1 reproduces the undivided
// result bit for bit (the paper's §II loop-splitting argument).
func runDirect(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32) {
	p := cs.Params.Normalized()
	out := cs.OutShape()
	f := cs.Filt
	in := cs.In
	switch op {
	case Forward:
		// One task per (n, k) output plane.
		fork(MaxWorkers(), out.N*out.C, func(_, lo, hi int) {
			t := prof.Enter()
			for idx := lo; idx < hi; idx++ {
				n := idx / out.C
				k := idx % out.C
				for oh := 0; oh < out.H; oh++ {
					for ow := 0; ow < out.W; ow++ {
						var acc float32
						hBase := oh*p.StrideH - p.PadH
						wBase := ow*p.StrideW - p.PadW
						for c := 0; c < f.C; c++ {
							for r := 0; r < f.R; r++ {
								ih := hBase + r*p.DilationH
								if ih < 0 || ih >= in.H {
									continue
								}
								for s := 0; s < f.S; s++ {
									iw := wBase + s*p.DilationW
									if iw < 0 || iw >= in.W {
										continue
									}
									acc += x.At(n, c, ih, iw) * w.At(k, c, r, s)
								}
							}
						}
						blend(&y.Data[y.Index(n, k, oh, ow)], acc, alpha, beta)
					}
				}
			}
			prof.Exit(phDirectMain, t)
		})
	case BackwardData:
		// dX[n,c,ih,iw] = sum_{k,r,s : oh,ow valid} dY[n,k,oh,ow] * W[k,c,r,s].
		fork(MaxWorkers(), in.N*in.C, func(_, lo, hi int) {
			t := prof.Enter()
			for idx := lo; idx < hi; idx++ {
				n := idx / in.C
				c := idx % in.C
				for ih := 0; ih < in.H; ih++ {
					for iw := 0; iw < in.W; iw++ {
						var acc float32
						for k := 0; k < f.K; k++ {
							for r := 0; r < f.R; r++ {
								ohNum := ih + p.PadH - r*p.DilationH
								if ohNum < 0 || ohNum%p.StrideH != 0 {
									continue
								}
								oh := ohNum / p.StrideH
								if oh >= out.H {
									continue
								}
								for s := 0; s < f.S; s++ {
									owNum := iw + p.PadW - s*p.DilationW
									if owNum < 0 || owNum%p.StrideW != 0 {
										continue
									}
									ow := owNum / p.StrideW
									if ow >= out.W {
										continue
									}
									acc += y.At(n, k, oh, ow) * w.At(k, c, r, s)
								}
							}
						}
						blend(&x.Data[x.Index(n, c, ih, iw)], acc, alpha, beta)
					}
				}
			}
			prof.Exit(phDirectMain, t)
		})
	case BackwardFilter:
		// dW[k,c,r,s] = sum_n sum_{oh,ow} dY[n,k,oh,ow] * X[n,c,ih,iw].
		// The n loop is outermost per element and strictly ordered. The
		// task grid is K*C so deep-but-narrow layers (small K, large C)
		// still expose enough tasks to occupy every worker; each (k, c)
		// pair owns a disjoint R*S block of dW, and the per-element order
		// is identical at every grid width and worker count.
		fork(MaxWorkers(), f.K*f.C, func(_, lo, hi int) {
			t := prof.Enter()
			for idx := lo; idx < hi; idx++ {
				k := idx / f.C
				c := idx % f.C
				for r := 0; r < f.R; r++ {
					for s := 0; s < f.S; s++ {
						elem := &w.Data[w.Index(k, c, r, s)]
						if beta == 0 {
							*elem = 0
						} else {
							*elem *= beta
						}
						for n := 0; n < in.N; n++ {
							var part float32
							for oh := 0; oh < out.H; oh++ {
								ih := oh*p.StrideH - p.PadH + r*p.DilationH
								if ih < 0 || ih >= in.H {
									continue
								}
								for ow := 0; ow < out.W; ow++ {
									iw := ow*p.StrideW - p.PadW + s*p.DilationW
									if iw < 0 || iw >= in.W {
										continue
									}
									part += y.At(n, k, oh, ow) * x.At(n, c, ih, iw)
								}
							}
							*elem += alpha * part
						}
					}
				}
			}
			prof.Exit(phDirectMain, t)
		})
	}
}
