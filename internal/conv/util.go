package conv

// blend writes out = alpha*v + beta*out for one element.
func blend(out *float32, v, alpha, beta float32) {
	if beta == 0 {
		*out = alpha * v
	} else {
		*out = alpha*v + beta**out
	}
}

func imin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func imax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
