package winograd

// Lane-batched transforms. A convolution transforms thousands of tiles
// with the same small matrices, so the kernels here put the tiles in the
// SIMD lanes: a plane is stored [a][b][lane] — element (a, b) of every
// tile in one contiguous row — and a transform L·x·R is two passes of
// row AXPYs whose coefficients are the matrix entries (every transform
// here has R = Lᵀ):
//
//	tmp[i][b][:] = Σ_a L[i][a] · src[a][b][:]
//	dst[i][j][:] = Σ_b tmp[i][b][:] · R[b][j]
//
// Bit contract: every element is one chain from zero, in a (then b)
// order, multiply then add with no fused contraction — exactly the
// per-tile product (L·x)·R of two row-major triple loops, whatever the
// lane count and whichever of the AVX kernel and its pure-Go twin runs.

// Lanes is the number of tiles (or filter pairs) one lane block holds;
// MaxAlpha is the largest tile edge a block has rows for (F(6x6,3x3)).
const (
	Lanes    = 64
	MaxAlpha = 8
)

// LaneBlock is one plane of up to Lanes tiles: row e = a*cols+b of the
// tiles starts at e*LaneStride(w). Callers keep the blocks they gather
// into and scatter from — and the scratch the transforms need between
// their two passes — as locals of the function that walks the tiles, so
// the blocks cost no workspace and no allocation.
type LaneBlock [MaxAlpha * MaxAlpha * Lanes]float32

// InputLanes computes V = Bᵀ d B for the w <= Lanes tiles gathered in src:
// element (i, j) of the spectral tiles goes to dst[(i*Alpha+j)*dstStride].
func (t *Transform) InputLanes(dst []float32, dstStride int, src *LaneBlock, w int, tmp *LaneBlock) {
	sandwich(dst, dstStride, t.bt32, t.Alpha, t.Alpha, src[:], true, LaneStride(w), w, tmp)
}

// FilterLanes computes U = G g Gᵀ for w gathered filter tiles (r x r rows
// in, alpha x alpha rows out), in InputLanes's addressing.
func (t *Transform) FilterLanes(dst []float32, dstStride int, src *LaneBlock, w int, tmp *LaneBlock) {
	sandwich(dst, dstStride, t.g32, t.Alpha, t.R, src[:], true, LaneStride(w), w, tmp)
}

// OutputAdjointLanes computes W = A y Aᵀ, the adjoint of OutputLanes, for
// w gathered output-gradient tiles (m x m rows in, alpha x alpha rows
// out) — the backward-filter path.
func (t *Transform) OutputAdjointLanes(dst []float32, dstStride int, src *LaneBlock, w int, tmp *LaneBlock) {
	sandwich(dst, dstStride, t.a32, t.Alpha, t.M, src[:], true, LaneStride(w), w, tmp)
}

// OutputLanes computes Y = Aᵀ M A into the lane block dst (m x m rows) for
// w spectral accumulators: element (a, b) is the row at
// src[(a*Alpha+b)*srcStride].
func (t *Transform) OutputLanes(dst *LaneBlock, src []float32, srcStride, w int, tmp *LaneBlock) {
	sandwich(dst[:], LaneStride(w), t.at32, t.M, t.Alpha, src, false, srcStride, w, tmp)
}

// FilterAdjointLanes computes g = Gᵀ U G, the adjoint of FilterLanes, into
// the lane block dst (r x r rows) from alpha x alpha rows in OutputLanes's
// addressing.
func (t *Transform) FilterAdjointLanes(dst *LaneBlock, src []float32, srcStride, w int, tmp *LaneBlock) {
	sandwich(dst[:], LaneStride(w), t.gt32, t.R, t.Alpha, src, false, srcStride, w, tmp)
}

// LaneStride is the row stride of a lane block holding w tiles: w rounded
// up to whole groups of eight lanes. The pad lanes hold whatever the
// block held before; lanes never mix.
func LaneStride(w int) int { return (w + 7) &^ 7 }

// sandwich computes dst = mat · src · matᵀ over w lanes: mat is (rows x
// cols), src holds (cols x cols) rows and dst (rows x rows) rows at the
// given strides. The first pass lands in tmp as [i][b][lane] at
// LaneStride(w). When src is a lane block too (srcBlock), its cols rows
// per a are adjacent, pad lanes included, and the pass is one wide
// product; bank rows take cols narrow ones.
func sandwich(dst []float32, dstStride int, mat []float32, rows, cols int, src []float32, srcBlock bool, srcStride, w int, tmp *LaneBlock) {
	if w < 1 || w > Lanes || rows > MaxAlpha || cols > MaxAlpha {
		panic("winograd: lane block out of range")
	}
	ls := LaneStride(w)
	if srcBlock {
		laneMul(tmp[:], cols*ls, mat, rows, cols, src, cols*ls, cols*ls)
	} else {
		for b := 0; b < cols; b++ {
			laneMul(tmp[b*ls:], cols*ls, mat, rows, cols, src[b*srcStride:], cols*srcStride, w)
		}
	}
	for i := 0; i < rows; i++ {
		laneMul(dst[i*rows*dstStride:], dstStride, mat, rows, cols, tmp[i*cols*ls:], ls, w)
	}
}

// laneMul computes dst[i*dstStride+x] = Σ_a coef[i*ca+a] · src[a*srcStride+x]
// for i < ra and x < w: whole groups of eight lanes through the AVX kernel
// when there is one, the rest through its twin.
func laneMul(dst []float32, dstStride int, coef []float32, ra, ca int, src []float32, srcStride, w int) {
	_ = dst[(ra-1)*dstStride+w-1]
	_ = src[(ca-1)*srcStride+w-1]
	_ = coef[ra*ca-1]
	w8 := 0
	if useAVX {
		if w8 = w &^ 7; w8 > 0 {
			laneMulAVX(&dst[0], dstStride, &coef[0], ra, ca, &src[0], srcStride, w8/8)
		}
	}
	if w8 < w {
		laneMulGeneric(dst, dstStride, coef, ra, ca, src, srcStride, w8, w)
	}
}

// laneMulGeneric is the pure-Go form of laneMulAVX over lanes [lo, hi).
// The float32 conversions keep a compiler that has a fused multiply-add
// from contracting the chain.
func laneMulGeneric(dst []float32, dstStride int, coef []float32, ra, ca int, src []float32, srcStride, lo, hi int) {
	for i := 0; i < ra; i++ {
		d := dst[i*dstStride+lo : i*dstStride+hi]
		clear(d)
		for a := 0; a < ca; a++ {
			cv := coef[i*ca+a]
			s := src[a*srcStride+lo : a*srcStride+hi]
			for x := range d {
				d[x] += float32(cv * s[x])
			}
		}
	}
}
