package blas

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"ucudnn/internal/prof"
)

// fmaExact is a*b + c computed exactly in math/big (2000 bits cover the
// product's 48 and every exponent gap float32 operands can open) and
// rounded once to float32, to nearest even. Finite operands only:
// math/big has no NaN.
type fmaExact struct{ x, y, z big.Float }

func (r *fmaExact) fma(a, b, c float32) float32 {
	r.x.SetPrec(2000).SetFloat64(float64(a))
	r.y.SetPrec(2000).SetFloat64(float64(b))
	r.z.SetPrec(2000).SetFloat64(float64(c))
	r.x.Mul(&r.x, &r.y)
	r.x.Add(&r.x, &r.z)
	f, _ := r.x.Float32()
	return f
}

// TestFMA32CorrectlyRounded holds the Go twins' multiply-add to the
// exact result rounded once: the double-rounding case plain math.FMA
// misses, subnormal results, overflow to ±Inf, exact cancellation and its
// zero signs, the non-finite operands (against x86's results), and a
// million random triples drawn to land near cancellation, on float32 ties
// and in the subnormal range.
func TestFMA32CorrectlyRounded(t *testing.T) {
	var ref fmaExact
	f32 := math.Float32frombits
	maxF := float32(math.MaxFloat32)
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	tiny := f32(1) // the smallest subnormal, 2^-149

	// a = b = 1+2^-12, c = 2^-80: a*b = 1 + 2^-11 + 2^-24 is a float32 tie,
	// and c lifts it above. math.FMA rounds to float64 first, lands on the
	// tie and rounds it to even.
	one12 := float32(1 + 0x1p-12)
	if got := math.Float32bits(fma32(one12, one12, 0x1p-80)); got != 0x3f801001 {
		t.Fatalf("fma32(1+2^-12, 1+2^-12, 2^-80) = %#x, want 0x3f801001", got)
	}
	if got := math.Float32bits(float32(math.FMA(float64(one12), float64(one12), 0x1p-80))); got != 0x3f801000 {
		t.Fatalf("math.FMA double-rounds that case to 0x3f801000, got %#x: the case no longer discriminates", got)
	}

	finite := []struct {
		name    string
		a, b, c float32
	}{
		{"tie lifted", one12, one12, 0x1p-80},
		{"tie lowered", one12, one12, -0x1p-80},
		{"tie kept, to even", one12, one12, 0},
		{"negative tie lifted", -one12, one12, -0x1p-80},
		{"subnormal product", 0x1p-75, 0x1p-70, 0},
		{"subnormal tie, to even", 0x1p-75, 0x1.8p-74, 0},
		{"subnormal just above a tie", 0x1.000002p-75, 0x1.8p-74, 0},
		{"subnormal product plus the smallest", 0x1p-75, 0x1.8p-74, tiny},
		{"subnormal sum", tiny, 3, f32(5)},
		{"subnormal cancellation", 0x1.000002p-70, 0x1p-70, -0x1p-140},
		{"underflow to +0", 0x1p-76, 0x1p-76, 0},
		{"underflow to -0", -0x1p-76, 0x1p-76, 0},
		{"half the smallest subnormal rounds to even zero", 0x1p-75, 0x1p-75, 0},
		{"over half rounds up", 0x1.000002p-75, 0x1p-75, 0},
		{"overflow", maxF, 2, 0},
		{"negative overflow", maxF, -2, 0},
		{"overflow at the tie", maxF, 1, 0x1p103},
		{"under the overflow tie", maxF, 1, 0x1.fffffep102},
		{"exact cancellation", 3, 5, -15},
		{"exact cancellation, negative product", -3, 5, 15},
		{"zero product plus -0", 0, 5, negZero},
		{"-0 product plus -0", negZero, 5, negZero},
		{"-0 product plus +0", negZero, 5, 0},
		{"-0 product plus 1", negZero, 5, 1},
		{"largest product", maxF, maxF, -maxF},
		{"smallest product", tiny, tiny, 0},
		{"smallest product plus -0", tiny, -tiny, negZero},
	}
	for _, tc := range finite {
		want := ref.fma(tc.a, tc.b, tc.c)
		if got := fma32(tc.a, tc.b, tc.c); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("%s: fma32(%g, %g, %g) = %#x, want %#x", tc.name, tc.a, tc.b, tc.c, math.Float32bits(got), math.Float32bits(want))
		}
	}
	if got := math.Float32bits(fma32(3, 5, -15)); got != 0 {
		t.Errorf("exact cancellation gave %#x, want +0", got)
	}
	if got := math.Float32bits(fma32(negZero, 5, negZero)); got != 0x80000000 {
		t.Errorf("-0 + -0 gave %#x, want -0", got)
	}

	// Non-finite operands, against VFMADD231SS: infinities propagate with
	// the product's sign, Inf·0 and Inf−Inf give x86's default NaN, and
	// that NaN passes through. No nudge may touch any of them. (Elsewhere
	// only NaN-ness is held: other CPUs produce other default NaNs.)
	nan := f32(0xffc00000)
	for _, tc := range []struct {
		a, b, c float32
		want    uint32
	}{
		{inf, 2, 1, 0x7f800000},
		{inf, -2, 1, 0xff800000},
		{2, 3, -inf, 0xff800000},
		{maxF, maxF, inf, 0x7f800000},
		{inf, 1, inf, 0x7f800000},
		{inf, 0, 1, 0xffc00000},
		{inf, 1, -inf, 0xffc00000},
		{nan, 1, 1, 0xffc00000},
		{1, 1, nan, 0xffc00000},
		{0, 0, nan, 0xffc00000},
	} {
		got := math.Float32bits(fma32(tc.a, tc.b, tc.c))
		if got != tc.want && !(runtime.GOARCH != "amd64" && got&0x7fffffff > 0x7f800000 && tc.want == 0xffc00000) {
			t.Errorf("fma32(%g, %g, %g) = %#x, want %#x", tc.a, tc.b, tc.c, got, tc.want)
		}
	}

	rng := rand.New(rand.NewSource(33))
	n := 1_000_000
	if prof.RaceEnabled {
		n /= 10 // the race detector slows math/big ~10x; no memory is shared
	}
	for i := 0; i < n; i++ {
		a, b, c := fmaTriple(rng, i%4)
		want := ref.fma(a, b, c)
		if got := fma32(a, b, c); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("triple %d: fma32(%#x, %#x, %#x) = %#x, want %#x", i, math.Float32bits(a), math.Float32bits(b), math.Float32bits(c), math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// fmaTriple draws one finite (a, b, c) of the given kind:
//
//	0: near-cancelling: c is -float32(a*b) moved by a few ulps;
//	1: tie-prone: a and b carry 12-13 significant bits, so a*b often
//	   needs exactly 25, and c is zero or far below a*b;
//	2: subnormal range: a*b and c within a few binades of 2^-149;
//	3: any finite bit patterns.
func fmaTriple(rng *rand.Rand, kind int) (a, b, c float32) {
	sign := func() float32 { return float32(1 - 2*rng.Intn(2)) }
	scaled := func(bits, exp int) float32 {
		m := float64(rng.Int63n(1<<bits) | 1<<(bits-1))
		return sign() * float32(math.Ldexp(m, exp-bits))
	}
	finite := func() float32 {
		for {
			f := math.Float32frombits(rng.Uint32())
			if !math.IsInf(float64(f), 0) && f == f {
				return f
			}
		}
	}
	switch kind {
	case 0:
		a, b = scaled(24, rng.Intn(80)-40), scaled(24, rng.Intn(80)-40)
		cb := math.Float32bits(-float32(float64(a) * float64(b)))
		c = math.Float32frombits(cb + uint32(rng.Intn(9)) - 4)
	case 1:
		a, b = scaled(12+rng.Intn(2), rng.Intn(20)-10), scaled(12+rng.Intn(2), rng.Intn(20)-10)
		if rng.Intn(4) > 0 {
			c = scaled(24, int(math.Ilogb(float64(a)*float64(b)))-24-rng.Intn(60))
		}
	case 2:
		a, b = scaled(24, -60-rng.Intn(20)), scaled(24, -60-rng.Intn(20))
		c = scaled(1+rng.Intn(24), -125-rng.Intn(24))
	default:
		a, b, c = finite(), finite(), finite()
	}
	return a, b, c
}
