//go:build amd64

package winograd

import "ucudnn/internal/blas"

// laneMulAVX is the AVX form of laneMulGeneric over n8 whole groups of
// eight lanes, bitwise-identical to it (see lanes_amd64.s).
//
//go:noescape
func laneMulAVX(dst *float32, dstStride int, coef *float32, ra, ca int, src *float32, srcStride, n8 int)

// useAVX selects the AVX kernel; a variable so the tests can run the twin.
var useAVX = blas.HasAVX()
