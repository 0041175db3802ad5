package blas

import (
	"math"
	"math/rand"
	"testing"

	"ucudnn/internal/prof"
)

// accuracyShapes are the products the accuracy bound is held on: the
// kernel ledger's SGEMM shapes and AlexNet's (zoo.AlexNet, batch 4) FC
// and im2col conv GEMMs. An element's error depends on its own k-chain
// only, so the wide products keep k and cut n (and dW's m) to 169
// columns, the 13x13 plane: enough for full tiles and every edge body,
// without a 151 MB operand.
var accuracyShapes = []struct {
	name           string
	transA, transB bool
	m, n, k        int
}{
	{"Sgemm256", false, false, 256, 256, 256},
	{"SgemmSkinny32x784x144", false, false, 32, 169, 144},
	{"SgemmPanel64x196x16", false, false, 64, 169, 16},
	{"SgemmKernelBlock 64x160x192", false, false, 64, 160, 192},
	{"fc6 fwd 4x4096x9216 NT", false, true, 4, 169, 9216},
	{"fc6 dX 4x9216x4096 NN", false, false, 4, 169, 4096},
	{"fc6 dW 4096x9216x4 TN", true, false, 169, 169, 4},
	{"fc7 fwd 4x4096x4096 NT", false, true, 4, 169, 4096},
	{"fc8 fwd 4x1000x4096 NT", false, true, 4, 1000, 4096},
	{"conv1 fwd 64x3025x363", false, false, 64, 169, 363},
	{"conv1 dW 64x363x3025", false, true, 64, 169, 3025},
	{"conv2 fwd 192x729x1600", false, false, 192, 169, 1600},
	{"conv3 fwd 384x169x1728", false, false, 384, 169, 1728},
	{"conv4 fwd 256x169x3456", false, false, 256, 169, 3456},
	{"conv5 fwd 256x169x2304", false, false, 256, 169, 2304},
}

// TestSgemmAccuracyBound runs every SGEMM body the host has on each
// accuracy shape (alpha 1, beta 0, operands uniform in [-1, 1]) against
// a float64 reference. Each element's error is normalised by the sum of
// |a_p·b_p| feeding it and must stay within the deterministic bound of a
// k-term chain rounded once per step, γ_k = k·u/(1−k·u), u = 2^-24; a
// dropped, repeated or mispaired term breaks it. It logs the max and RMS
// normalised error per shape and body.
func TestSgemmAccuracyBound(t *testing.T) {
	const u = 0x1p-24
	bodies := hostTileBodies(t)
	for _, sh := range accuracyShapes {
		m, n, k := sh.m, sh.n, sh.k
		if prof.RaceEnabled && m*n*k > 1<<24 {
			continue // the race detector slows this arithmetic ~10x; no memory is shared
		}
		rng := rand.New(rand.NewSource(int64(m*1_000_000 + n*1000 + k)))
		a, b := randSlice(rng, m*k), randSlice(rng, k*n)
		lda, ldb := k, n
		if sh.transA {
			lda = m
		}
		if sh.transB {
			ldb = k
		}
		// op(A) by rows and op(B) by columns, both contiguous in p.
		ar, bc := make([]float64, m*k), make([]float64, n*k)
		for p := 0; p < k; p++ {
			for i := 0; i < m; i++ {
				if sh.transA {
					ar[i*k+p] = float64(a[p*m+i])
				} else {
					ar[i*k+p] = float64(a[i*k+p])
				}
			}
			for j := 0; j < n; j++ {
				if sh.transB {
					bc[j*k+p] = float64(b[j*k+p])
				} else {
					bc[j*k+p] = float64(b[p*n+j])
				}
			}
		}
		ref := make([]float64, m*n)
		mass := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s, abs float64
				for p, av := range ar[i*k : i*k+k] {
					prod := float64(av * bc[j*k+p]) // exact
					s += prod
					abs += math.Abs(prod)
				}
				ref[i*n+j], mass[i*n+j] = s, abs
			}
		}
		gamma := float64(k) * u / (1 - float64(k)*u)
		for _, body := range bodies {
			if body.avx && !body.fma {
				continue // the Go twins again, behind the AVX A packer
			}
			c := make([]float32, m*n)
			body.with(func() { SgemmWorkers(1, sh.transA, sh.transB, m, n, k, 1, a, lda, b, ldb, 0, c, n) })
			var worst, sq float64
			for e, v := range c {
				if mass[e] == 0 {
					continue
				}
				d := math.Abs(float64(v)-ref[e]) / mass[e]
				worst = math.Max(worst, d)
				sq += d * d
			}
			t.Logf("%-28s %-7s max %.3e  rms %.3e  (max/γ_k %.4f)", sh.name, body.name, worst, math.Sqrt(sq/float64(len(c))), worst/gamma)
			if worst > gamma {
				t.Errorf("%s, %s body: normalised error %.3e exceeds γ_%d = %.3e", sh.name, body.name, worst, k, gamma)
			}
		}
	}
}
