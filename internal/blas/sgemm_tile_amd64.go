//go:build amd64

package blas

// sgemmTileAVX is the AVX form of sgemmTileGeneric: one 4x8 C tile
// accumulated in YMM registers, bitwise-identical to the generic tile
// (see sgemm_tile_amd64.s).
//
//go:noescape
func sgemmTileAVX(pa, pb *float32, kb int, acc *[mr * nr]float32)

// sgemmDotAVX and sgemmAxpyAVX are the AVX forms of sgemmDotGeneric and
// sgemmAxpyGeneric, the skinny path's in-place-B kernels.
//
//go:noescape
func sgemmDotAVX(pa, b *float32, ldb, kb int, acc *[nr * mr]float32)

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

// HasAVX reports whether the AVX kernels run on this machine, for the
// packages that carry AVX kernels of their own.
func HasAVX() bool { return useAVX }
