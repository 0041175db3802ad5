//go:build !amd64

package blas

const (
	useAVX    = false
	useFMA    = false
	useAVX512 = false
)

// HasAVX reports whether the AVX kernels run on this machine: never here.
func HasAVX() bool { return false }

func sgemmTileAVX(pa, pb *float32, kb int, acc *[mr * nr]float32) {
	panic("blas: sgemmTileAVX without amd64")
}

func sgemmTile32AVX512(pa, pb *float32, kb int, c *float32, ldc, mode int, beta float32) {
	panic("blas: sgemmTile32AVX512 without amd64")
}

func packA4x8AVX(dst, a *float32, lda, kb8 int, alpha float32) {
	panic("blas: packA4x8AVX without amd64")
}

func sgemmDotAVX(pa, b *float32, ldb, kb int, acc *[dotRows * mr]float32) {
	panic("blas: sgemmDotAVX without amd64")
}

func sgemmAxpyAVX(pa, b *float32, ldb, kb, n8 int, acc *[mr * skinnyStrip]float32) {
	panic("blas: sgemmAxpyAVX without amd64")
}

func packBT8AVX(dst, b *float32, ldb, kb8 int) {
	panic("blas: packBT8AVX without amd64")
}

func saxpyAVX(alpha float32, x, y *float32, n8 int) {
	panic("blas: saxpyAVX without amd64")
}
