package blas

import "testing"

// TestSkinnyKernelsMatchGoTwins: the AVX in-place kernels against their
// pure-Go twins over the whole shape matrix (the twins are what every
// other architecture runs).
func TestSkinnyKernelsMatchGoTwins(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: the Go twins are the only kernels")
	}
	forEachShape(t, func(name string, sc shapeCase, alpha, beta float32) {
		if sc.m > mr {
			return
		}
		avx := sc.run(1, alpha, beta)
		useAVX = false
		generic := sc.run(1, alpha, beta)
		useAVX = true
		if i := sameBits(avx, generic); i >= 0 {
			t.Fatalf("%s: AVX kernel differs from its Go twin at %d", name, i)
		}
	})
}
