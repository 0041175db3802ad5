//go:build !amd64

package winograd

const useAVX = false

func laneMulAVX(dst *float32, dstStride int, coef *float32, ra, ca int, src *float32, srcStride, n8 int) {
	panic("winograd: laneMulAVX without amd64")
}
