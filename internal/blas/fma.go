package blas

import "math"

// fma32 returns a*b + c rounded once to float32 (round to nearest even),
// the result of x86's VFMADD231SS: the Go twins' one arithmetic step.
//
// The float64 product of two float32 values is exact (48 bits, and no
// float32 product can overflow or underflow float64), so the only
// rounding before the last is the float64 sum s. Rounding s to float32
// rounds a*b+c correctly unless s sits exactly on a float32 tie, the
// midpoint of two float32 neighbours: then the exact value may lie off
// the tie on either side, and float32(math.FMA(a, b, c)) rounds twice
// and can miss. A tie has the low 28 bits of its float64 significand
// clear (more at float32's subnormal exponents), so every other s takes
// the one conversion.
//
// A sum that may be a tie is rounded to odd instead, which 53 bits carry
// into a correct 24-bit rounding. TwoSum gives the exact error e of s.
// When e != 0, s (even here) moves one ulp toward e, to the odd float64
// neighbour; the exact value lies between the two. The sign test is on
// e*s, which cannot underflow: both are multiples of 2^-298, the grain
// of a float32 product. ±Inf and NaN sums have a NaN error and are left
// alone. A nonzero e never meets s = 0: a float64 sum of these operands
// that rounds to zero was exact.
//
// Every product and sum is rounded by an explicit conversion or stands
// alone, so no compiler may fuse any of it into a multiply-add. fma32
// fits the inliner's budget, and must: the Go tile calls it per step.
func fma32(a, b, c float32) float32 {
	p := float64(float64(a) * float64(b))
	s := p + float64(c)
	bits := math.Float64bits(s)
	if bits<<36 == 0 {
		v := s - p
		if es := ((p - (s - v)) + (float64(c) - v)) * s; es > 0 {
			bits++ // away from zero
		} else if es < 0 {
			bits--
		}
	}
	return float32(math.Float64frombits(bits))
}
