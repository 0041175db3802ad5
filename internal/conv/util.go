package conv

// blend writes out = alpha*v + beta*out for one element.
func blend(out *float32, v, alpha, beta float32) {
	if beta == 0 {
		*out = alpha * v
	} else {
		*out = alpha*v + beta**out
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
