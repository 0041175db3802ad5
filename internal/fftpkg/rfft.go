package fftpkg

import "math"

// This file is the float32 real-transform kernel behind the FFT conv
// algorithms: a 2-D real-to-complex forward / complex-to-real inverse
// pair that exploits Hermitian symmetry. A p x q real plane is
// transformed row-wise by a half-length complex FFT (the q real samples
// of a row are viewed as q/2 complex values, transformed, and untangled
// into the q/2+1 unique spectrum columns), then column-wise by p-point
// complex FFTs over only those stored columns — half the butterflies
// and half the scratch of the complex128 reference path above.
//
// All butterfly twiddles and untangle factors are precomputed by
// NewPlan2D into a caller-provided float32 table (computed in float64,
// rounded once), so the per-plane transforms are pure arithmetic over
// caller-owned scratch: no allocation, and a fixed operation order that
// keeps results bitwise identical at every engine worker count.

// A Plan2D holds the twiddle tables for a p x q real 2-D transform
// (both powers of two). The zero value is not usable; build one with
// NewPlan2D over a table of PlanFloats(p, q) float32s.
type Plan2D struct {
	p, q, h, hw int // h = q/2, hw = q/2+1 stored spectrum columns

	rowTw []float32 // stage twiddles of the h-point row FFT
	untTw []float32 // e^(-2*pi*i*k/q), k = 0..h, for the r2c untangle
	colTw []float32 // stage twiddles of the p-point column FFT
}

// HalfWidth returns the number of stored spectrum columns, q/2 + 1.
func (pl Plan2D) HalfWidth() int { return pl.hw }

// PlanFloats returns the float32 table size NewPlan2D needs for a
// p x q plan.
func PlanFloats(p, q int) int {
	h := q / 2
	n := h + 1 // untangle factors
	if h > 1 {
		n += h - 1 // row stage twiddles
	}
	if p > 1 {
		n += p - 1 // column stage twiddles
	}
	return 2 * n
}

// ScratchFloats returns the per-worker scratch a p x q plan's FwdReal /
// InvReal calls need: one real p x q plane plus one spectrum-row swap
// buffer of q/2+1 complex values.
func ScratchFloats(p, q int) int { return p*q + 2*(q/2+1) }

// NewPlan2D fills tab (at least PlanFloats(p, q) float32s) with the
// twiddle tables of a p x q plan and returns the plan referencing it.
// Twiddles are evaluated in float64 and rounded once to float32, so a
// plan's tables are a pure function of (p, q).
func NewPlan2D(p, q int, tab []float32) Plan2D {
	if !IsPow2(p) || !IsPow2(q) {
		panic("fftpkg: plan dimensions must be powers of two")
	}
	if len(tab) < PlanFloats(p, q) {
		panic("fftpkg: plan table too small")
	}
	h := q / 2
	pl := Plan2D{p: p, q: q, h: h, hw: h + 1}
	off := 0
	if h > 1 {
		pl.rowTw = tab[off : off+2*(h-1)]
		fillStageTwiddles(pl.rowTw, h)
		off += 2 * (h - 1)
	}
	pl.untTw = tab[off : off+2*(h+1)]
	for k := 0; k <= h; k++ {
		ang := -2 * math.Pi * float64(k) / float64(q)
		pl.untTw[2*k] = float32(math.Cos(ang))
		pl.untTw[2*k+1] = float32(math.Sin(ang))
	}
	off += 2 * (h + 1)
	if p > 1 {
		pl.colTw = tab[off : off+2*(p-1)]
		fillStageTwiddles(pl.colTw, p)
	}
	return pl
}

// fillStageTwiddles writes the concatenated per-stage butterfly factors
// of an n-point FFT: stage with half-size L/2 = half stores
// e^(-pi*i*j/half) for j in [0, half) at complex offset half-1.
func fillStageTwiddles(tw []float32, n int) {
	for half := 1; half < n; half <<= 1 {
		for j := 0; j < half; j++ {
			ang := -math.Pi * float64(j) / float64(half)
			tw[(half-1+j)*2] = float32(math.Cos(ang))
			tw[(half-1+j)*2+1] = float32(math.Sin(ang))
		}
	}
}

// cfft is the in-place iterative radix-2 complex FFT over n interleaved
// (re, im) float32 pairs, using the precomputed stage twiddles tw (laid
// out by fillStageTwiddles). The inverse conjugates the twiddles and
// scales by 1/n — an exact power of two, so the scaling rounds nothing.
func cfft(buf []float32, n int, tw []float32, inverse bool) {
	if n <= 1 {
		return
	}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			buf[2*i], buf[2*j] = buf[2*j], buf[2*i]
			buf[2*i+1], buf[2*j+1] = buf[2*j+1], buf[2*i+1]
		}
	}
	sgn := float32(1)
	if inverse {
		sgn = -1
	}
	for half := 1; half < n; half <<= 1 {
		base := (half - 1) * 2
		for i := 0; i < n; i += half << 1 {
			for j := 0; j < half; j++ {
				wr := tw[base+2*j]
				wi := sgn * tw[base+2*j+1]
				a := 2 * (i + j)
				b := a + 2*half
				br, bi := buf[b], buf[b+1]
				vr := wr*br - wi*bi
				vi := wr*bi + wi*br
				ur, ui := buf[a], buf[a+1]
				buf[a] = ur + vr
				buf[a+1] = ui + vi
				buf[b] = ur - vr
				buf[b+1] = ui - vi
			}
		}
	}
	if inverse {
		s := float32(1) / float32(n)
		for i := range buf[:2*n] {
			buf[i] *= s
		}
	}
}

// colPass runs the p-point FFT down every stored spectrum column of the
// plane at once, row-wise: the bit-reversal permutes whole rows (via the
// tmp swap buffer) and each butterfly combines two full rows with one
// scalar twiddle, so the inner loop walks 2*hw contiguous floats instead
// of a strided column gather. Element-wise the arithmetic and its order
// are exactly the per-column cfft's.
func colPass(dst []float32, p, hw int, tw, tmp []float32, inverse bool) {
	if p <= 1 {
		return
	}
	w2 := 2 * hw
	for i, j := 1, 0; i < p; i++ {
		bit := p >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			ri := dst[i*w2 : (i+1)*w2]
			rj := dst[j*w2 : (j+1)*w2]
			copy(tmp, ri)
			copy(ri, rj)
			copy(rj, tmp)
		}
	}
	sgn := float32(1)
	if inverse {
		sgn = -1
	}
	for half := 1; half < p; half <<= 1 {
		base := (half - 1) * 2
		for i := 0; i < p; i += half << 1 {
			for j := 0; j < half; j++ {
				wr := tw[base+2*j]
				wi := sgn * tw[base+2*j+1]
				ra := dst[(i+j)*w2 : (i+j)*w2+w2]
				rb := dst[(i+j+half)*w2 : (i+j+half)*w2+w2]
				rowButterfly(ra, rb, wr, wi)
			}
		}
	}
	if inverse {
		s := float32(1) / float32(p)
		for i := range dst[:p*w2] {
			dst[i] *= s
		}
	}
}

// rowButterfly combines two interleaved complex rows with one twiddle:
// (a, b) <- (a + w*b, a - w*b) element-wise.
func rowButterfly(ra, rb []float32, wr, wi float32) {
	for c := 0; c < len(ra); c += 2 {
		br, bi := rb[c], rb[c+1]
		vr := wr*br - wi*bi
		vi := wr*bi + wi*br
		ur, ui := ra[c], ra[c+1]
		ra[c] = ur + vr
		ra[c+1] = ui + vi
		rb[c] = ur - vr
		rb[c+1] = ui - vi
	}
}

// FwdReal transforms the real p x q plane re (row-major, caller-filled,
// destroyed) into dst, the interleaved (re, im) half-spectrum of
// p rows x (q/2+1) stored columns. Rows nz and beyond are taken as all
// zero: their row transforms are skipped and written as exact zeros —
// bit-identical to transforming the zeros, since every butterfly and
// untangle term on signed zeros rounds back to +0. tmp is a 2*(q/2+1)
// float swap buffer; re and tmp together are ScratchFloats(p, q) floats.
func (pl Plan2D) FwdReal(dst, re, tmp []float32, nz int) {
	p, q, h, hw := pl.p, pl.q, pl.h, pl.hw
	if nz > p {
		nz = p
	}
	for r := 0; r < nz; r++ {
		row := re[r*q : (r+1)*q]
		out := dst[2*r*hw : 2*(r+1)*hw]
		if h == 0 { // q == 1: the DFT is the sample itself
			out[0], out[1] = row[0], 0
			continue
		}
		// View the q reals as h complex values and transform.
		cfft(row, h, pl.rowTw, false)
		// Untangle Z into the length-q DFT's unique half: with
		// E = (Z[k] + conj(Z[h-k]))/2 and O = -i(Z[k] - conj(Z[h-k]))/2
		// (the even/odd subsequence spectra), X[k] = E + w^k O.
		for k := 0; k <= h; k++ {
			zk := k & (h - 1)
			zm := (h - k) & (h - 1)
			zr, zi := row[2*zk], row[2*zk+1]
			mr, mi := row[2*zm], row[2*zm+1]
			er := (zr + mr) * 0.5
			ei := (zi - mi) * 0.5
			or := (zi + mi) * 0.5
			oi := (mr - zr) * 0.5
			wr := pl.untTw[2*k]
			wi := pl.untTw[2*k+1]
			out[2*k] = er + wr*or - wi*oi
			out[2*k+1] = ei + wr*oi + wi*or
		}
	}
	for i := range dst[2*nz*hw : 2*p*hw] {
		dst[2*nz*hw+i] = 0
	}
	colPass(dst, p, hw, pl.colTw, tmp, false)
}

// InvReal inverse-transforms the interleaved half-spectrum src
// (destroyed) into the real p x q plane re, including the full 1/(p*q)
// inverse normalization. tmp is the same swap buffer as in FwdReal.
func (pl Plan2D) InvReal(re, src, tmp []float32) {
	p, q, h, hw := pl.p, pl.q, pl.h, pl.hw
	colPass(src, p, hw, pl.colTw, tmp, true)
	for r := 0; r < p; r++ {
		srow := src[2*r*hw : 2*(r+1)*hw]
		drow := re[r*q : (r+1)*q]
		if h == 0 {
			drow[0] = srow[0]
			continue
		}
		// Retangle: E = (X[k] + conj(X[h-k]))/2 and D = w^k O =
		// (X[k] - conj(X[h-k]))/2 recover Z[k] = E + i*(D * conj(w^k));
		// the inverse half-length FFT then leaves the q reals of the row
		// interleaved in natural order.
		for k := 0; k < h; k++ {
			x0r, x0i := srow[2*k], srow[2*k+1]
			x1r, x1i := srow[2*(h-k)], srow[2*(h-k)+1]
			er := (x0r + x1r) * 0.5
			ei := (x0i - x1i) * 0.5
			dr := (x0r - x1r) * 0.5
			di := (x0i + x1i) * 0.5
			wr := pl.untTw[2*k]
			wi := pl.untTw[2*k+1]
			or := dr*wr + di*wi
			oi := di*wr - dr*wi
			drow[2*k] = er - oi
			drow[2*k+1] = ei + or
		}
		cfft(drow, h, pl.rowTw, true)
	}
}
