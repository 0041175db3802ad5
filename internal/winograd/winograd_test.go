package winograd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// correlate1D computes the valid correlation of d (length alpha) with g
// (length r), producing m = alpha-r+1 outputs.
func correlate1D(d, g []float64) []float64 {
	m := len(d) - len(g) + 1
	y := make([]float64, m)
	for u := 0; u < m; u++ {
		for v := range g {
			y[u] += d[u+v] * g[v]
		}
	}
	return y
}

func winograd1D(t *Transform, d, g []float64) []float64 {
	alpha := t.Alpha
	bd := make([]float64, alpha)
	gg := make([]float64, alpha)
	for j := 0; j < alpha; j++ {
		for i := 0; i < alpha; i++ {
			bd[j] += t.BT[j*alpha+i] * d[i]
		}
		for l := 0; l < t.R; l++ {
			gg[j] += t.G[j*t.R+l] * g[l]
		}
	}
	y := make([]float64, t.M)
	for u := 0; u < t.M; u++ {
		for j := 0; j < alpha; j++ {
			y[u] += t.AT[u*alpha+j] * bd[j] * gg[j]
		}
	}
	return y
}

func TestF23MatchesLavinShape(t *testing.T) {
	tr, err := NewTransform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Alpha != 4 {
		t.Fatalf("alpha = %d, want 4", tr.Alpha)
	}
	// With points {0, 1, -1, inf}, AT must be [[1,1,1,0],[0,1,-1,1]].
	wantAT := []float64{1, 1, 1, 0, 0, 1, -1, 1}
	for i, w := range wantAT {
		if math.Abs(tr.AT[i]-w) > 1e-12 {
			t.Fatalf("AT[%d] = %g, want %g", i, tr.AT[i], w)
		}
	}
	// G rows: g(0), g(1)/2, g(-1)/2 (sign depends on N_j), leading coeff.
	wantG := []float64{
		1, 0, 0,
		0.5, 0.5, 0.5,
		0.5, -0.5, 0.5,
		0, 0, 1,
	}
	for i, w := range wantG {
		if math.Abs(tr.G[i]-w) > 1e-12 {
			t.Fatalf("G[%d] = %g, want %g", i, tr.G[i], w)
		}
	}
}

func test1DEquivalence(t *testing.T, m, r int) {
	t.Helper()
	tr, err := NewTransform(m, r)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(m*10 + r)))
	for trial := 0; trial < 20; trial++ {
		d := make([]float64, tr.Alpha)
		g := make([]float64, r)
		for i := range d {
			d[i] = rng.Float64()*2 - 1
		}
		for i := range g {
			g[i] = rng.Float64()*2 - 1
		}
		want := correlate1D(d, g)
		got := winograd1D(tr, d, g)
		for u := range want {
			if math.Abs(got[u]-want[u]) > 1e-8 {
				t.Fatalf("F(%d,%d) trial %d: y[%d] = %g, want %g", m, r, trial, u, got[u], want[u])
			}
		}
	}
}

func TestF23(t *testing.T) { test1DEquivalence(t, 2, 3) }
func TestF43(t *testing.T) { test1DEquivalence(t, 4, 3) }
func TestF63(t *testing.T) { test1DEquivalence(t, 6, 3) }
func TestF25(t *testing.T) { test1DEquivalence(t, 2, 5) }
func TestF45(t *testing.T) { test1DEquivalence(t, 4, 5) }
func TestF27(t *testing.T) { test1DEquivalence(t, 2, 7) }
func TestF12(t *testing.T) { test1DEquivalence(t, 1, 2) }

func TestUnsupported(t *testing.T) {
	if _, err := NewTransform(0, 3); err == nil {
		t.Fatal("m=0 should fail")
	}
	if _, err := NewTransform(2, 1); err == nil {
		t.Fatal("r=1 should fail")
	}
	if _, err := NewTransform(20, 20); err == nil {
		t.Fatal("huge tile should exhaust the point set")
	}
}

// 2-D nested identity: Y = AT [ (G g GT) ⊙ (BT d B) ] A equals the direct
// 2-D valid correlation.
func TestNested2D(t *testing.T) {
	for _, mr := range [][2]int{{2, 3}, {4, 3}, {6, 3}, {2, 5}} {
		m, r := mr[0], mr[1]
		tr, err := NewTransform(m, r)
		if err != nil {
			t.Fatal(err)
		}
		alpha := tr.Alpha
		rng := rand.New(rand.NewSource(int64(100*m + r)))
		d := make([]float32, alpha*alpha)
		g := make([]float32, r*r)
		for i := range d {
			d[i] = rng.Float32()*2 - 1
		}
		for i := range g {
			g[i] = rng.Float32()*2 - 1
		}
		// Direct 2-D correlation.
		want := make([]float64, m*m)
		for u := 0; u < m; u++ {
			for v := 0; v < m; v++ {
				var s float64
				for a := 0; a < r; a++ {
					for b := 0; b < r; b++ {
						s += float64(d[(u+a)*alpha+v+b]) * float64(g[a*r+b])
					}
				}
				want[u*m+v] = s
			}
		}
		// Winograd path via the float32 kernels.
		u32 := make([]float32, alpha*alpha)
		v32 := make([]float32, alpha*alpha)
		tmp := make([]float32, alpha*alpha)
		tr.FilterTransform(u32, g, tmp)
		tr.InputTransform(v32, d, tmp)
		macc := make([]float32, alpha*alpha)
		for i := range macc {
			macc[i] = u32[i] * v32[i]
		}
		y := make([]float32, m*m)
		tr.OutputTransform(y, macc, tmp)
		for i := range want {
			if math.Abs(float64(y[i])-want[i]) > 1e-4 {
				t.Fatalf("F(%dx%d,%dx%d): Y[%d] = %g, want %g", m, m, r, r, i, y[i], want[i])
			}
		}
	}
}

// The adjoint pair must satisfy <A y AT, U> == <y, AT U A> (i.e.
// OutputAdjoint is the true adjoint of OutputTransform), which is what
// makes the backward-filter path exact.
func TestAdjointProperty(t *testing.T) {
	tr, err := NewTransform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	alpha, m := tr.Alpha, tr.M
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		y := make([]float32, m*m)
		u := make([]float32, alpha*alpha)
		for i := range y {
			y[i] = rng.Float32()*2 - 1
		}
		for i := range u {
			u[i] = rng.Float32()*2 - 1
		}
		tmp := make([]float32, alpha*alpha)
		// lhs = <OutputAdjoint(y), u>
		ay := make([]float32, alpha*alpha)
		tr.OutputAdjoint(ay, y, tmp)
		var lhs float64
		for i := range ay {
			lhs += float64(ay[i]) * float64(u[i])
		}
		// rhs = <y, OutputTransform(u)>
		out := make([]float32, m*m)
		tr.OutputTransform(out, u, tmp)
		var rhs float64
		for i := range out {
			rhs += float64(y[i]) * float64(out[i])
		}
		return math.Abs(lhs-rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterAdjointProperty(t *testing.T) {
	tr, err := NewTransform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	alpha, r := tr.Alpha, tr.R
	rng := rand.New(rand.NewSource(11))
	g := make([]float32, r*r)
	u := make([]float32, alpha*alpha)
	for i := range g {
		g[i] = rng.Float32()
	}
	for i := range u {
		u[i] = rng.Float32()
	}
	tmp := make([]float32, alpha*alpha)
	// <FilterTransform(g), u> == <g, FilterAdjoint(u)>
	fg := make([]float32, alpha*alpha)
	tr.FilterTransform(fg, g, tmp)
	var lhs float64
	for i := range fg {
		lhs += float64(fg[i]) * float64(u[i])
	}
	au := make([]float32, r*r)
	tr.FilterAdjoint(au, u, tmp)
	var rhs float64
	for i := range au {
		rhs += float64(g[i]) * float64(au[i])
	}
	if math.Abs(lhs-rhs) > 1e-4 {
		t.Fatalf("filter adjoint: %g vs %g", lhs, rhs)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	m := []float64{1, 2, 2, 4}
	v := []float64{1, 2}
	if _, err := solveDense(m, v, 2); err == nil {
		t.Fatal("singular system should error")
	}
}

func TestSolveDenseKnown(t *testing.T) {
	// 2x + y = 5; x - y = 1 -> x=2, y=1.
	m := []float64{2, 1, 1, -1}
	v := []float64{5, 1}
	x, err := solveDense(m, v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("solve = %v", x)
	}
}

// The per-tile transforms: two row-major triple loops per tile. They are
// what the convolution kernels ran before the lane-batched forms in
// lanes.go replaced them, and remain the oracle the lane kernels must
// match bit for bit (lanes_test.go) and the subject of the adjoint and
// nesting identities above.

// matmul32 computes dst = a (ra x ca) * b (ca x cb), all row-major.
func matmul32(dst, a, b []float32, ra, ca, cb int) {
	for i := 0; i < ra; i++ {
		for j := 0; j < cb; j++ {
			var s float32
			for k := 0; k < ca; k++ {
				s += a[i*ca+k] * b[k*cb+j]
			}
			dst[i*cb+j] = s
		}
	}
}

// FilterTransform computes U = G g Gᵀ, mapping an r x r filter tile to an
// alpha x alpha spectral tile. tmp must have alpha*r capacity.
func (t *Transform) FilterTransform(dst, g, tmp []float32) {
	matmul32(tmp, t.g32, g, t.Alpha, t.R, t.R)        // (alpha x r) = G * g
	matmul32(dst, tmp, t.gt32, t.Alpha, t.R, t.Alpha) // (alpha x alpha) = tmp * Gᵀ
}

// InputTransform computes V = Bᵀ d B, mapping an alpha x alpha input tile
// to its spectral form. tmp must have alpha*alpha capacity.
func (t *Transform) InputTransform(dst, d, tmp []float32) {
	matmul32(tmp, t.bt32, d, t.Alpha, t.Alpha, t.Alpha)
	matmul32(dst, tmp, transpose32(t.bt32, t.Alpha, t.Alpha), t.Alpha, t.Alpha, t.Alpha)
}

// OutputTransform computes Y = Aᵀ M A, mapping an alpha x alpha spectral
// accumulator to the m x m output tile. tmp must have m*alpha capacity.
func (t *Transform) OutputTransform(dst, mAcc, tmp []float32) {
	matmul32(tmp, t.at32, mAcc, t.M, t.Alpha, t.Alpha)
	matmul32(dst, tmp, t.a32, t.M, t.Alpha, t.M)
}

// OutputAdjoint computes W = A y Aᵀ, the adjoint of OutputTransform; it
// maps an m x m output-gradient tile into spectral space (used by the
// backward-filter path). tmp must have alpha*m capacity.
func (t *Transform) OutputAdjoint(dst, y, tmp []float32) {
	matmul32(tmp, t.a32, y, t.Alpha, t.M, t.M)
	matmul32(dst, tmp, t.at32, t.Alpha, t.M, t.Alpha)
}

// FilterAdjoint computes g = Gᵀ U G, the adjoint of FilterTransform; it
// maps a spectral accumulator back to an r x r filter-gradient tile. tmp
// must have r*alpha capacity.
func (t *Transform) FilterAdjoint(dst, u, tmp []float32) {
	matmul32(tmp, t.gt32, u, t.R, t.Alpha, t.Alpha)
	matmul32(dst, tmp, t.g32, t.R, t.Alpha, t.R)
}
