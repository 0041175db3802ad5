package conv

// blend writes out = alpha*v + beta*out for one element.
//
//ucudnn:hotpath
func blend(out *float32, v, alpha, beta float32) {
	if beta == 0 {
		*out = alpha * v
	} else {
		*out = alpha*v + beta**out
	}
}

//ucudnn:hotpath
func imin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

//ucudnn:hotpath
func imax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

//ucudnn:hotpath
func ceilDiv(a, b int) int { return (a + b - 1) / b }
