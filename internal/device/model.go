package device

import (
	"math"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/tensor"
)

// Gen returns the architecture generation used for algorithm-efficiency
// adjustments (Kepler=3, Pascal=6, Volta=7).
func (s Spec) gen() int {
	switch s.Name {
	case K80.Name:
		return 3
	case V100.Name:
		return 7
	default:
		return 6
	}
}

// quant returns the useful-work fraction of a dimension of extent x
// processed in hardware tiles of extent t (tile-quantization loss).
func quant(x, t int64) float64 {
	if x <= 0 {
		return 0
	}
	tiles := (x + t - 1) / t
	return float64(x) / float64(tiles*t)
}

// sat is a saturating efficiency curve: ~x/x0 for small x, ->1 for large.
func sat(x, x0 int64) float64 {
	if x <= 0 {
		return 0
	}
	return float64(x) / float64(x+x0)
}

// impliedGemmDims returns the (M, N, K) dimensions of the matrix product
// the convolution lowers onto for each operation.
func impliedGemmDims(op conv.Op, cs tensor.ConvShape) (m, n, k int64) {
	out := cs.OutShape()
	crs := int64(cs.Filt.C) * int64(cs.Filt.R) * int64(cs.Filt.S)
	krs := int64(cs.Filt.K) * int64(cs.Filt.R) * int64(cs.Filt.S)
	pix := int64(out.H) * int64(out.W)
	switch op {
	case conv.Forward:
		return int64(cs.Filt.K), int64(cs.In.N) * pix, crs
	case conv.BackwardData:
		return int64(cs.In.C), int64(cs.In.N) * int64(cs.In.H) * int64(cs.In.W), krs
	default: // BackwardFilter
		return int64(cs.Filt.K), crs, int64(cs.In.N) * pix
	}
}

// ModelTime predicts the execution time of one convolution kernel call on
// this device: a roofline of algorithm FLOPs at an algorithm- and
// shape-dependent efficiency against minimal memory traffic, plus fixed
// per-launch overheads. Unsupported (op, algo, shape) combinations return
// 0 and false.
func (s Spec) ModelTime(op conv.Op, algo conv.Algo, cs tensor.ConvShape) (time.Duration, bool) {
	if !conv.Supported(op, algo, cs) {
		return 0, false
	}
	flops := float64(cs.FwdFlops()) // same MAC count for all three ops
	traffic := float64(cs.IOBytes())
	gm, gn, gk := impliedGemmDims(op, cs)
	nTot := int64(cs.In.N)
	out := cs.OutShape()
	work := nTot * int64(out.H) * int64(out.W) * int64(cs.Filt.K)
	// Occupancy floor: tiny kernels cannot fill the SM array.
	occ := sat(work, int64(s.SMs)*256)
	gen := s.gen()

	var eff float64
	launches := 1.0
	switch algo {
	case conv.AlgoDirect:
		eff = 0.08 * quant(gn, 128) * sat(gk, 64)
	case conv.AlgoImplicitGemm:
		eff = 0.34 * quant(gm, 32) * quant(gn, 128) * sat(gk, 256)
	case conv.AlgoImplicitPrecompGemm:
		eff = 0.46 * quant(gm, 32) * quant(gn, 128) * sat(gk, 128)
		if gen >= 7 {
			eff *= 1.1
		}
		launches = 2
	case conv.AlgoGemm:
		eff = 0.55 * quant(gm, 64) * quant(gn, 64) * sat(gk, 128)
		// The materialized lowering is written and re-read.
		traffic += 2 * 4 * float64(gk) * float64(gn)
		launches = 2
	case conv.AlgoFFT, conv.AlgoFFTTiling:
		pi, qi, ti := conv.FFTGeometry(op, algo, cs)
		p, q, tiles := int64(pi), int64(qi), int64(ti)
		hw := q/2 + 1
		planeFlops := 2.5 * float64(p*q) * math.Log2(float64(p*q))
		c, k := int64(cs.In.C), int64(cs.Filt.K)
		transforms := float64(k*c)*planeFlops +
			float64(tiles)*float64(nTot*(c+k))*planeFlops
		pointwise := 8 * float64(tiles) * float64(nTot*k*c) * float64(p*hw)
		flops = transforms + pointwise
		// Spectra stream through memory once in each direction.
		traffic = float64(cs.IOBytes()) +
			2*8*float64(p*hw)*float64(tiles)*float64(nTot*(c+k)+0) +
			2*8*float64(p*hw)*float64(k*c)
		if algo == conv.AlgoFFT {
			eff = 0.30
			launches = 6
		} else {
			// Tile decomposition wastes halo work, so tiling never beats
			// the full-plane FFT on speed; it wins on workspace.
			eff = 0.26
			launches = 2 + float64(tiles)
		}
		if gen < 6 {
			eff *= 0.85
		}
		eff *= quant(gn, 64) // output-pixel quantization of the final store
	case conv.AlgoWinograd, conv.AlgoWinogradNonfused:
		mi, ti := conv.WinogradTiles(op, algo, cs)
		m, tiles := int64(mi), int64(ti)
		a := m + int64(cs.Filt.R) - 1
		c, k := int64(cs.In.C), int64(cs.Filt.K)
		gemm := 2 * float64(a*a) * float64(k*c) * float64(tiles*nTot)
		tfm := 4*float64(a*a*a)*float64(nTot*c*tiles) +
			4*float64(m*a*(a+m))*float64(nTot*k*tiles) +
			4*float64(a*a*int64(cs.Filt.R))*float64(k*c)
		flops = gemm + tfm
		if algo == conv.AlgoWinograd {
			eff = 0.50
			launches = 3
		} else {
			eff = 0.45
			launches = 8
			// Non-fused transforms are materialized through memory.
			traffic += 2 * 4 * float64(a*a) * (float64(k*c) + float64((c+k)*tiles*nTot))
		}
		eff *= quant(k, 32) * quant(tiles*nTot, 64) * sat(c, 64)
		if gen < 6 {
			eff *= 0.7
		}
	default:
		return 0, false
	}

	eff *= occ
	if eff <= 0 {
		return 0, false
	}
	compute := flops / (s.PeakFlops * eff)
	mem := traffic / s.MemBW
	sec := math.Max(compute, mem) + launches*s.LaunchOverhead.Seconds()
	return time.Duration(sec * float64(time.Second)), true
}

// MemBoundTime models a purely bandwidth-bound kernel (pooling,
// activation, normalization, elementwise) that moves the given bytes.
func (s Spec) MemBoundTime(bytes int64) time.Duration {
	sec := float64(bytes)/s.MemBW + s.LaunchOverhead.Seconds()
	return time.Duration(sec * float64(time.Second))
}

// GemmTime models a dense (m x k) x (k x n) SGEMM, used for
// fully-connected layers.
func (s Spec) GemmTime(m, n, k int64) time.Duration {
	if m <= 0 || n <= 0 || k <= 0 {
		return s.LaunchOverhead
	}
	eff := 0.6 * quant(m, 64) * quant(n, 64) * sat(k, 128) * sat(m*n, int64(s.SMs)*256)
	flops := 2 * float64(m) * float64(n) * float64(k)
	traffic := 4 * float64(m*k+k*n+m*n)
	sec := math.Max(flops/(s.PeakFlops*eff), traffic/s.MemBW) + s.LaunchOverhead.Seconds()
	return time.Duration(sec * float64(time.Second))
}
