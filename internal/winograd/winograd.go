// Package winograd generates and applies Winograd minimal-filtering
// transforms F(m x m, r x r), as used by cuDNN's WINOGRAD convolution
// algorithms (Lavin & Gray, CVPR 2016).
//
// A 1-D transform F(m, r) computes m outputs of a correlation with an
// r-tap filter using alpha = m+r-1 multiplications:
//
//	y = Aᵀ [ (G g) ⊙ (Bᵀ d) ]
//
// where g is the filter (length r), d the input tile (length alpha), and
// Aᵀ (m x alpha), G (alpha x r), Bᵀ (alpha x alpha) are the transform
// matrices. The 2-D form nests the 1-D transforms:
//
//	Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A
//
// Rather than hard-coding published matrices, this package derives Bᵀ for
// arbitrary (m, r) from the Cook–Toom interpolation structure: Aᵀ and G
// are Vandermonde-style evaluations at the standard point set
// {0, 1, -1, 2, -2, ½, -½, ...} (plus the point at infinity), and Bᵀ is
// the unique solution of the filtering identity, solved exactly as a
// linear system and verified before use.
package winograd

import (
	"fmt"
	"math"
)

// Transform holds the matrices of a Winograd minimal filtering algorithm
// F(m x m, r x r). All matrices are stored row-major in float64 (used for
// generation/verification) with float32 copies for the compute kernels.
type Transform struct {
	M     int // outputs per tile (per dimension)
	R     int // filter taps (per dimension)
	Alpha int // tile size = M + R - 1

	AT []float64 // M x Alpha
	G  []float64 // Alpha x R
	BT []float64 // Alpha x Alpha

	at32, g32, bt32 []float32
	// Transposes, for the adjoint (backward-filter) path.
	a32, gt32 []float32
}

// standardPoints is the canonical Cook–Toom interpolation point sequence.
// Good points keep the transform entries small, which controls the FP32
// error growth of large tiles.
var standardPoints = []float64{0, 1, -1, 2, -2, 0.5, -0.5, 4, -4, 0.25, -0.25, 3, -3}

// NewTransform derives and verifies the F(m x m, r x r) transform.
// m >= 1, r >= 2, and m+r-1 must not exceed the available point set.
func NewTransform(m, r int) (*Transform, error) {
	if m < 1 || r < 2 {
		return nil, fmt.Errorf("winograd: F(%d,%d) not supported (need m>=1, r>=2)", m, r)
	}
	alpha := m + r - 1
	if alpha-1 > len(standardPoints) {
		return nil, fmt.Errorf("winograd: F(%d,%d) needs %d interpolation points, have %d", m, r, alpha-1, len(standardPoints))
	}
	pts := standardPoints[:alpha-1] // finite points; the last point is at infinity

	t := &Transform{M: m, R: r, Alpha: alpha}
	t.AT = make([]float64, m*alpha)
	for u := 0; u < m; u++ {
		for j := 0; j < alpha-1; j++ {
			t.AT[u*alpha+j] = math.Pow(pts[j], float64(u))
		}
	}
	t.AT[(m-1)*alpha+alpha-1] = 1 // point at infinity contributes to the last output

	// G[j][l] = p_j^l / N_j, N_j = prod_{k!=j}(p_j - p_k); infinity row picks
	// the leading filter coefficient.
	t.G = make([]float64, alpha*r)
	for j := 0; j < alpha-1; j++ {
		nj := 1.0
		for k := 0; k < alpha-1; k++ {
			if k != j {
				nj *= pts[j] - pts[k]
			}
		}
		for l := 0; l < r; l++ {
			t.G[j*r+l] = math.Pow(pts[j], float64(l)) / nj
		}
	}
	t.G[(alpha-1)*r+r-1] = 1
	// Normalize each G row to a positive leading entry (the sign of a row
	// cancels between G and Bᵀ in the product, since Bᵀ is solved below
	// against this G). This matches the published F(2,3) matrices.
	for j := 0; j < alpha; j++ {
		for l := 0; l < r; l++ {
			v := t.G[j*r+l]
			if v == 0 {
				continue
			}
			if v < 0 {
				for ll := 0; ll < r; ll++ {
					t.G[j*r+ll] = -t.G[j*r+ll]
				}
			}
			break
		}
	}

	// Bᵀ is determined by the filtering identity
	//   y_u = Σ_v d_{u+v} g_v  =  Σ_j AT[u][j] (Bᵀ d)_j (G g)_j .
	// Matching the coefficient of d_i g_l on both sides gives, per column i
	// of Bᵀ, the linear system H x = e_i with
	//   H[(u,l)][j] = AT[u][j] * G[j][l]
	// and e_i[(u,l)] = 1 iff i == u + l. H is (m*r) x alpha with full column
	// rank for distinct points, so each column is solved by least squares
	// (the residual is verified to be numerically zero).
	h := make([]float64, m*r*alpha)
	for u := 0; u < m; u++ {
		for l := 0; l < r; l++ {
			row := (u*r + l) * alpha
			for j := 0; j < alpha; j++ {
				h[row+j] = t.AT[u*alpha+j] * t.G[j*r+l]
			}
		}
	}
	t.BT = make([]float64, alpha*alpha)
	rhs := make([]float64, m*r)
	for i := 0; i < alpha; i++ {
		for u := 0; u < m; u++ {
			for l := 0; l < r; l++ {
				if u+l == i {
					rhs[u*r+l] = 1
				} else {
					rhs[u*r+l] = 0
				}
			}
		}
		col, err := solveLeastSquares(h, rhs, m*r, alpha)
		if err != nil {
			return nil, fmt.Errorf("winograd: F(%d,%d): %v", m, r, err)
		}
		for j := 0; j < alpha; j++ {
			t.BT[j*alpha+i] = col[j]
		}
	}

	if err := t.verify(); err != nil {
		return nil, err
	}
	t.buildFloat32()
	return t, nil
}

// verify checks the 1-D filtering identity coefficientwise.
func (t *Transform) verify() error {
	m, r, alpha := t.M, t.R, t.Alpha
	for u := 0; u < m; u++ {
		for i := 0; i < alpha; i++ {
			for l := 0; l < r; l++ {
				var got float64
				for j := 0; j < alpha; j++ {
					got += t.AT[u*alpha+j] * t.BT[j*alpha+i] * t.G[j*r+l]
				}
				want := 0.0
				if u+l == i {
					want = 1
				}
				if math.Abs(got-want) > 1e-8 {
					return fmt.Errorf("winograd: F(%d,%d) identity violated at u=%d i=%d l=%d: got %g want %g", m, r, u, i, l, got, want)
				}
			}
		}
	}
	return nil
}

func (t *Transform) buildFloat32() {
	to32 := func(x []float64) []float32 {
		y := make([]float32, len(x))
		for i, v := range x {
			y[i] = float32(v)
		}
		return y
	}
	t.at32 = to32(t.AT)
	t.g32 = to32(t.G)
	t.bt32 = to32(t.BT)
	t.a32 = transpose32(t.at32, t.M, t.Alpha)
	t.gt32 = transpose32(t.g32, t.Alpha, t.R)
}

func transpose32(x []float32, rows, cols int) []float32 {
	y := make([]float32, len(x))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			y[j*rows+i] = x[i*cols+j]
		}
	}
	return y
}

// solveLeastSquares solves min ||Hx - b|| for H (rows x cols, row-major)
// via the normal equations, requiring the residual to be ~0 (the systems
// solved here are consistent by construction).
func solveLeastSquares(h, b []float64, rows, cols int) ([]float64, error) {
	// Form Hᵀ H (cols x cols) and Hᵀ b.
	m := make([]float64, cols*cols)
	v := make([]float64, cols)
	for i := 0; i < rows; i++ {
		hi := h[i*cols : (i+1)*cols]
		for a := 0; a < cols; a++ {
			v[a] += hi[a] * b[i]
			for c := a; c < cols; c++ {
				m[a*cols+c] += hi[a] * hi[c]
			}
		}
	}
	for a := 0; a < cols; a++ {
		for c := 0; c < a; c++ {
			m[a*cols+c] = m[c*cols+a]
		}
	}
	x, err := solveDense(m, v, cols)
	if err != nil {
		return nil, err
	}
	// Verify consistency.
	var res float64
	for i := 0; i < rows; i++ {
		s := -b[i]
		for j := 0; j < cols; j++ {
			s += h[i*cols+j] * x[j]
		}
		res += s * s
	}
	if res > 1e-16*float64(rows) {
		return nil, fmt.Errorf("inconsistent system (residual %g)", res)
	}
	return x, nil
}

// solveDense solves the n x n system m x = v by Gaussian elimination with
// partial pivoting. m and v are clobbered.
func solveDense(m, v []float64, n int) ([]float64, error) {
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r*n+col]) > math.Abs(m[p*n+col]) {
				p = r
			}
		}
		if math.Abs(m[p*n+col]) < 1e-12 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		if p != col {
			for j := 0; j < n; j++ {
				m[col*n+j], m[p*n+j] = m[p*n+j], m[col*n+j]
			}
			v[col], v[p] = v[p], v[col]
		}
		piv := m[col*n+col]
		for r := col + 1; r < n; r++ {
			f := m[r*n+col] / piv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m[r*n+j] -= f * m[col*n+j]
			}
			v[r] -= f * v[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := v[r]
		for j := r + 1; j < n; j++ {
			s -= m[r*n+j] * x[j]
		}
		x[r] = s / m[r*n+r]
	}
	return x, nil
}
