package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tileBody is one tile walk the package switches can force: the AVX-512
// 4x32 tile (over the FMA 4x16 one for odd panels and partial rows), the
// FMA 4x16 tile with the FMA skinny kernels, the Go twins with the AVX A
// packer (an AVX host without FMA), or the Go twins alone, which every
// other architecture runs.
type tileBody struct {
	name             string
	avx, fma, avx512 bool
}

// hostTileBodies lists the bodies this host can run, the Go twins first;
// a body the host lacks is left out with a log line.
func hostTileBodies(t *testing.T) []tileBody {
	bodies := []tileBody{{name: "go"}}
	if useAVX {
		bodies = append(bodies, tileBody{name: "avx-nofma", avx: true})
	} else {
		t.Log("no AVX: the AVX bodies are not compared")
	}
	if useFMA {
		bodies = append(bodies, tileBody{name: "fma", avx: true, fma: true})
	} else {
		t.Log("no FMA: the fused AVX bodies are not compared")
	}
	if useAVX512 {
		bodies = append(bodies, tileBody{name: "avx512", avx: true, fma: true, avx512: true})
	} else {
		t.Log("no AVX-512: the 4x32 body is not compared")
	}
	return bodies
}

// with runs f with the body's switches set, restoring the host's after.
func (b tileBody) with(f func()) {
	avx, fma, avx512 := useAVX, useFMA, useAVX512
	useAVX, useFMA, useAVX512 = b.avx, b.fma, b.avx512
	defer func() { useAVX, useFMA, useAVX512 = avx, fma, avx512 }()
	f()
}

// TestTileKernelsMatchGoTwins: every fused body the host has against the
// Go twins over the whole shape matrix — row panels (m > mr) and the
// in-place skinny kernels (m <= mr) alike. The no-FMA AVX body runs the
// Go twins too and differs only in its A packer, which
// TestPackAPanelsVectorMatchesScalar compares directly.
func TestTileKernelsMatchGoTwins(t *testing.T) {
	bodies := hostTileBodies(t)
	forEachShape(t, func(name string, sc shapeCase, alpha, beta float32) {
		var want []float32
		bodies[0].with(func() { want = sc.run(1, alpha, beta) })
		for _, b := range bodies[1:] {
			if !b.fma {
				continue
			}
			var got []float32
			b.with(func() { got = sc.run(1, alpha, beta) })
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s: %s body differs from the Go twins at %d", name, b.name, i)
			}
		}
	})
}

// The values the direct tables salt their operands with: signed zeros,
// both infinities, denormals, and NaN. The NaN is the one x86 arithmetic
// produces (negative quiet, zero payload): where two NaNs meet, IEEE 754
// leaves open which payload survives and Go's compiler may commute the
// operands of + and *, so with one payload in play every NaN result is
// that same pattern and the comparison stays bitwise.
var (
	negZero  = float32(math.Copysign(0, -1))
	qNaN     = math.Float32frombits(0xFFC00000)
	denormal = math.Float32frombits(0x00012345)
	specials = []float32{negZero, denormal, -denormal, 0, float32(math.Inf(1)), float32(math.Inf(-1)), qNaN}
)

// salt overwrites a sparse, seed-dependent set of elements of s with the
// specials: every seventh element gets a zero or denormal, and each of
// the three non-finite values lands once.
func salt(rng *rand.Rand, s []float32) {
	for i := rng.Intn(7); i < len(s); i += 7 {
		s[i] = specials[rng.Intn(3)]
	}
	for _, v := range specials[4:] {
		s[rng.Intn(len(s))] = v
	}
}

// refKernelBlock is KernelBlock's contract written out element by
// element: per C element, a fused chain from zero over the packed panels
// in ascending p, then stored by fuseBeta.
func refKernelBlock(pa, pb []float32, ib, jb, kb int, first bool, beta float32, c []float32, off, ldc int) {
	for i := 0; i < ib; i++ {
		for j := 0; j < jb; j++ {
			var s float32
			for p := 0; p < kb; p++ {
				s = fma32(pa[(i/mr)*(kb*mr)+p*mr+i%mr], pb[(j/nr)*(kb*nr)+p*nr+j%nr], s)
			}
			c[off+i*ldc+j] = fuseBeta(c[off+i*ldc+j], s, first, beta)
		}
	}
}

// TestKernelBlockBodies drives KernelBlock directly over tile-edge
// shapes — columns around one, two and three nr panels (the 4x32 tile's
// width ±1 panel, and the odd-panel and partial-panel fallbacks), rows
// around mr, one, two, three and a full kc of k — in all three store
// forms, with special values in A, B and C and C rows narrower than ldc,
// every body forced on in turn. Everything outside the block holds a
// sentinel, so a store past a row end or outside the block shows as a
// difference from the reference.
func TestKernelBlockBodies(t *testing.T) {
	bodies := hostTileBodies(t)
	sentinel := math.Float32frombits(0x7FA5A5A5)
	const off = 3
	for _, jb := range []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49, 64, 160} {
		for _, ib := range []int{1, 3, 4, 5, 64} {
			for _, kb := range []int{1, 2, 3, 192} {
				rng := rand.New(rand.NewSource(int64(jb*10000 + ib*1000 + kb)))
				pa := randSlice(rng, PackAFloats(ib, kb))
				pb := randSlice(rng, ((jb+nr-1)/nr)*nr*kb)
				salt(rng, pa)
				salt(rng, pb)
				ldc := jb + 5
				c0 := make([]float32, off+ib*ldc+2*nr)
				for i := range c0 {
					c0[i] = sentinel
				}
				for i := 0; i < ib; i++ {
					row := c0[off+i*ldc : off+i*ldc+jb]
					copy(row, randSlice(rng, jb))
					salt(rng, row)
				}
				for _, first := range []bool{true, false} {
					for _, beta := range []float32{0, 1, 0.5} {
						name := fmt.Sprintf("jb=%d ib=%d kb=%d first=%v beta=%v", jb, ib, kb, first, beta)
						want := append([]float32(nil), c0...)
						refKernelBlock(pa, pb, ib, jb, kb, first, beta, want, off, ldc)
						for _, b := range bodies {
							got := append([]float32(nil), c0...)
							b.with(func() { KernelBlock(pa, pb, ib, jb, kb, first, beta, got, off, ldc) })
							if e := sameBits(got, want); e >= 0 {
								r, col := (e-off)/ldc, (e-off)%ldc
								t.Fatalf("%s: %s body: element %d (row %d, column %d) is %#x, want %#x", name, b.name, e, r, col, math.Float32bits(got[e]), math.Float32bits(want[e]))
							}
						}
					}
				}
			}
		}
	}
}

// TestPackAPanelsVectorMatchesScalar: the AVX no-trans A packer (eight k
// at a time, with the scalar loop for the k tail and partial panels)
// against the scalar loop alone, over panel and k remainders, offsets
// into A, alpha classes and special values; nothing past the packed
// length is written.
func TestPackAPanelsVectorMatchesScalar(t *testing.T) {
	if !useAVX {
		t.Log("no AVX: the scalar packer is the only one")
		return
	}
	sentinel := math.Float32frombits(0x7FA5A5A5)
	for _, ib := range []int{1, 3, 4, 5, 64} {
		for _, kb := range []int{1, 7, 8, 9, 16, 17, 192} {
			for _, i0 := range []int{0, 2} {
				for _, k0 := range []int{0, 5} {
					lda := k0 + kb + 3
					rng := rand.New(rand.NewSource(int64(ib*1000 + kb*10 + i0 + k0)))
					a := randSlice(rng, (i0+ib)*lda)
					salt(rng, a)
					for _, alpha := range []float32{1, 0.75, -2, denormal} {
						pack := func(vector bool) []float32 {
							dst := make([]float32, PackAFloats(ib, kb)+nr)
							for i := range dst {
								dst[i] = sentinel
							}
							tileBody{avx: vector}.with(func() {
								PackAPanels(dst, false, a, lda, i0, ib, k0, kb, alpha)
							})
							return dst
						}
						got, want := pack(true), pack(false)
						if e := sameBits(got, want); e >= 0 {
							t.Fatalf("ib=%d kb=%d i0=%d k0=%d alpha=%v: vector pack differs at %d: %#x, want %#x", ib, kb, i0, k0, alpha, e, math.Float32bits(got[e]), math.Float32bits(want[e]))
						}
						for i, v := range got[PackAFloats(ib, kb):] {
							if math.Float32bits(v) != math.Float32bits(sentinel) {
								t.Fatalf("ib=%d kb=%d: pack wrote past its length at +%d", ib, kb, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestPackBPanelsTransMatchesNoTrans: the transposed B pack of B equals,
// bit for bit, the no-trans pack of Bᵀ, with the AVX 8x8 body and the
// scalar loop alike, over partial panels (jw < nr), k tails, offsets
// into B in both directions and special values; nothing past the packed
// panels is written.
func TestPackBPanelsTransMatchesNoTrans(t *testing.T) {
	bodies := []tileBody{{name: "go"}}
	if useAVX {
		bodies = append(bodies, tileBody{name: "avx", avx: true})
	} else {
		t.Log("no AVX: the scalar packer is the only one")
	}
	sentinel := math.Float32frombits(0x7FA5A5A5)
	for _, jb := range []int{1, 7, 15, 16, 17, 33, 160} {
		for _, kb := range []int{1, 7, 8, 9, 16, 23, 192} {
			for _, j0 := range []int{0, 3} {
				for _, k0 := range []int{0, 5} {
					// B is (n x k) row-major with ldb > k; Bᵀ is (k x n).
					n, k := j0+jb+2, k0+kb+1
					ldb := k + 3
					rng := rand.New(rand.NewSource(int64(jb*1000 + kb*10 + j0 + k0)))
					b := randSlice(rng, n*ldb)
					salt(rng, b)
					bt := make([]float32, k*n)
					for j := 0; j < n; j++ {
						for p := 0; p < k; p++ {
							bt[p*n+j] = b[j*ldb+p]
						}
					}
					panels := (jb + nr - 1) / nr
					pack := func(body tileBody, trans bool) []float32 {
						dst := make([]float32, panels*kb*nr+nr)
						for i := range dst {
							dst[i] = sentinel
						}
						body.with(func() {
							if trans {
								PackBPanels(dst, true, b, ldb, k0, kb, j0, jb)
							} else {
								PackBPanels(dst, false, bt, n, k0, kb, j0, jb)
							}
						})
						return dst
					}
					want := pack(bodies[0], false)
					for i, v := range want[panels*kb*nr:] {
						if math.Float32bits(v) != math.Float32bits(sentinel) {
							t.Fatalf("jb=%d kb=%d: no-trans pack wrote past its length at +%d", jb, kb, i)
						}
					}
					for _, body := range bodies {
						got := pack(body, true)
						if e := sameBits(got, want); e >= 0 {
							t.Fatalf("%s jb=%d kb=%d j0=%d k0=%d: transposed pack differs at %d: %#x, want %#x",
								body.name, jb, kb, j0, k0, e, math.Float32bits(got[e]), math.Float32bits(want[e]))
						}
					}
				}
			}
		}
	}
}

// TestSaxpyVectorMatchesScalar: Saxpy's AVX body (eight elements at a
// time, the scalar loop for the tail) against the scalar loop alone, bit
// for bit, over lengths around the vector width, alpha classes and
// special values.
func TestSaxpyVectorMatchesScalar(t *testing.T) {
	if !useAVX {
		t.Log("no AVX: the scalar loop is the only one")
		return
	}
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 64, 100} {
		for _, alpha := range []float32{1, 0.75, -2, denormal} {
			x, y := randSlice(rng, n), randSlice(rng, n)
			if n > 0 {
				salt(rng, x)
				salt(rng, y)
			}
			run := func(vector bool) []float32 {
				out := append([]float32(nil), y...)
				tileBody{avx: vector}.with(func() { Saxpy(alpha, x, out) })
				return out
			}
			got, want := run(true), run(false)
			if e := sameBits(got, want); e >= 0 {
				t.Fatalf("n=%d alpha=%v: vector Saxpy differs at %d: %#x, want %#x", n, alpha, e, math.Float32bits(got[e]), math.Float32bits(want[e]))
			}
		}
	}
}
