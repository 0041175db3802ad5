//go:build amd64

package blas

// sgemmTileAVX is the AVX+FMA form of sgemmTileGeneric: one 4x16 C tile
// accumulated in eight YMM chains, bitwise-identical to the generic tile
// (see sgemm_tile_amd64.s).
//
//go:noescape
func sgemmTileAVX(pa, pb *float32, kb int, acc *[mr * nr]float32)

// sgemmTile32AVX512 is the 4x32 AVX-512 tile over two adjacent packed B
// panels (pb and pb + kb*nr): the same per-element chains as two
// sgemmTileAVX calls, then stored into the four C rows at c (row stride
// ldc floats) in the given store form (tileStore, tileAdd, tileScale).
//
//go:noescape
func sgemmTile32AVX512(pa, pb *float32, kb int, c *float32, ldc, mode int, beta float32)

// packA4x8AVX packs kb8 groups of eight k of one full A row panel: rows
// a, a+lda, a+2*lda, a+3*lda (contiguous in k), scaled by alpha, into
// dst as [8*kb8][mr] — PackAPanels' no-trans scalar loop, eight k at a
// time.
//
//go:noescape
func packA4x8AVX(dst, a *float32, lda, kb8 int, alpha float32)

// packBT8AVX packs kb8 groups of eight k of eight B rows b, b+ldb, ...,
// b+7*ldb (op(B) = Bᵀ, each row contiguous in k) into the first eight
// lanes of dst's [8*kb8][nr] panel rows: PackBPanels' transposed copy,
// an 8x8 block at a time.
//
//go:noescape
func packBT8AVX(dst, b *float32, ldb, kb8 int)

// saxpyAVX is Saxpy's loop over n8 groups of eight: the same rounded
// product and rounded sum per element (no fused multiply-add).
//
//go:noescape
func saxpyAVX(alpha float32, x, y *float32, n8 int)

// sgemmDotAVX and sgemmAxpyAVX are the AVX+FMA forms of sgemmDotGeneric
// and sgemmAxpyGeneric, the skinny path's in-place-B kernels.
//
//go:noescape
func sgemmDotAVX(pa, b *float32, ldb, kb int, acc *[dotRows * mr]float32)

//go:noescape
func sgemmAxpyAVX(pa, b *float32, ldb, kb, n8 int, acc *[mr * skinnyStrip]float32)

//go:noescape
func cpuidLow(arg1, arg2 uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// useAVX reports whether the CPU and OS support AVX (CPUID feature bit
// plus OSXSAVE with YMM state enabled). Decided once at init; the tile
// walk branches on it per tile.
var useAVX = func() bool {
	_, _, ecx, _ := cpuidLow(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	eax, _ := xgetbv0()
	return eax&6 == 6 // XMM and YMM state managed by the OS
}()

// useFMA reports whether the fused SGEMM bodies run: AVX as above plus
// the FMA3 feature bit. Without it the SGEMM takes the Go twins, which
// compute the same fused chains in software; the AVX A packer (no add)
// still runs. Decided once at init, like useAVX.
var useFMA = useAVX && func() bool {
	_, _, ecx, _ := cpuidLow(1, 0)
	const fma = 1 << 12
	return ecx&fma != 0
}()

// useAVX512 reports whether the AVX-512F tile runs: FMA as above, the
// leaf-7 AVX512F bit, and the OS managing the opmask and both halves of
// the ZMM state. Decided once at init, like useAVX.
var useAVX512 = useFMA && func() bool {
	if maxLeaf, _, _, _ := cpuidLow(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuidLow(7, 0)
	const avx512f = 1 << 16
	if ebx&avx512f == 0 {
		return false
	}
	eax, _ := xgetbv0()
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // XMM, YMM, opmask, ZMM0-15 upper, ZMM16-31
	return eax&zmmState == zmmState
}()

// HasAVX reports whether the AVX kernels run on this machine, for the
// packages that carry AVX kernels of their own. It says nothing about
// FMA: those kernels multiply, round, then add.
func HasAVX() bool { return useAVX }
