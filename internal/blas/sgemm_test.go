package blas

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ucudnn/internal/prof"
)

// naive reference GEMM: C = alpha*op(A)*op(B) + beta*C.
func refGemm(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	at := func(i, p int) float32 {
		if transA {
			return a[p*lda+i]
		}
		return a[i*lda+p]
	}
	bt := func(p, j int) float32 {
		if transB {
			return b[j*ldb+p]
		}
		return b[p*ldb+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			c[i*ldc+j] = alpha*s + beta*c[i*ldc+j]
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

func maxDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := float64(a[i] - b[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

func checkGemmCase(t *testing.T, transA, transB bool, m, n, k int, alpha, beta float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*1000 + n*100 + k)))
	lda, ldb, ldc := k, n, n
	if transA {
		lda = m
	}
	if transB {
		ldb = k
	}
	arows, brows := m, k
	if transA {
		arows = k
	}
	if transB {
		brows = n
	}
	a := randSlice(rng, arows*lda)
	b := randSlice(rng, brows*ldb)
	c1 := randSlice(rng, m*ldc)
	c2 := append([]float32(nil), c1...)
	Sgemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c1, ldc)
	refGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c2, ldc)
	if d := maxDiff(c1, c2); d > 1e-4*float64(k+1) {
		t.Fatalf("tA=%v tB=%v m=%d n=%d k=%d alpha=%v beta=%v: maxdiff %g", transA, transB, m, n, k, alpha, beta, d)
	}
}

func TestSgemmSmall(t *testing.T) {
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			checkGemmCase(t, ta, tb, 3, 4, 5, 1, 0)
			checkGemmCase(t, ta, tb, 1, 1, 1, 2, 0.5)
			checkGemmCase(t, ta, tb, 7, 2, 9, -1, 1)
		}
	}
}

func TestSgemmBlockBoundaries(t *testing.T) {
	// Exercise sizes straddling the cache-blocking parameters.
	for _, m := range []int{mc - 1, mc, mc + 1} {
		for _, k := range []int{kc - 1, kc, kc + 1} {
			checkGemmCase(t, false, false, m, 33, k, 1, 0)
		}
	}
	checkGemmCase(t, false, false, 5, nc+5, 5, 1, 0)
	checkGemmCase(t, false, false, 5, nc-1, kc+3, 1, 0)
}

// TestSgemmRegisterTileBoundaries covers every remainder class of the
// mr x nr register tiling (±1 around multiples of mr, nr, and kc) for
// all transpose combinations and the three beta fast paths — the edge
// lanes the micro-kernel masks out must not leak into C.
func TestSgemmRegisterTileBoundaries(t *testing.T) {
	dims := []int{mr - 1, mr, mr + 1, 2*mr + 1, nr - 1, nr, nr + 1, 3*nr - 1}
	ks := []int{1, mr, kc - 1, kc, kc + 1}
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			for _, beta := range []float32{0, 1, 0.75} {
				for _, m := range dims {
					checkGemmCase(t, ta, tb, m, 2*nr+1, 9, 1.5, beta)
				}
				for _, k := range ks {
					checkGemmCase(t, ta, tb, mr+1, nr+2, k, 1, beta)
				}
			}
		}
	}
}

func packACopy(transA bool, m, k int, alpha float32, a []float32, lda int) []float32 {
	pa := make([]float32, PackAFloats(m, k))
	PackA(pa, transA, m, k, alpha, a, lda)
	return pa
}

// sgemmPackedForked is the whole pack-once product C = PA * op(B) +
// beta * C with its MR-row panels forked over workers, as a kernel hands
// disjoint row ranges of one packed A to the workers of its own launch.
func sgemmPackedForked(workers int, pa []float32, transB bool, m, n, k int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	Fork(workers, (m+mr-1)/mr, func(_, lo, hi int) {
		SgemmPackedARows(lo*mr, min(hi*mr, m), pa, transB, m, n, k, b, ldb, beta, c, ldc)
	})
}

// TestSgemmPackedAMatchesSgemm: the pack-once path must be bit-identical
// to the general entry point (same kernels, same accumulation order) on
// shapes covering panel remainders and both B orientations, whole and
// with its row panels forked over workers.
func TestSgemmPackedAMatchesSgemm(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		transA, transB bool
		m, n, k        int
		alpha, beta    float32
	}{
		{false, false, 32, 784, 144, 1.25, 0},
		{true, false, 144, 784, 32, 1, 0.75},
		{false, true, mr + 1, nr + 3, kc + 2, 0.5, 1},
		{false, false, mc + mr - 1, 2*nr + 1, 7, 1, 0},
		{true, true, 5, 3, 9, -1, 0.25},
	} {
		lda, ldb := tc.k, tc.n
		if tc.transA {
			lda = tc.m
		}
		if tc.transB {
			ldb = tc.k
		}
		arows, brows := tc.m, tc.k
		if tc.transA {
			arows = tc.k
		}
		if tc.transB {
			brows = tc.n
		}
		a := randSlice(rng, arows*lda)
		b := randSlice(rng, brows*ldb)
		c1 := randSlice(rng, tc.m*tc.n)
		c2 := append([]float32(nil), c1...)
		pa := packACopy(tc.transA, tc.m, tc.k, tc.alpha, a, lda)
		for _, workers := range []int{1, 3} {
			copy(c1, c2)
			sgemmPackedForked(workers, pa, tc.transB, tc.m, tc.n, tc.k, b, ldb, tc.beta, c1, tc.n)
			want := append([]float32(nil), c2...)
			Sgemm(tc.transA, tc.transB, tc.m, tc.n, tc.k, tc.alpha, a, lda, b, ldb, tc.beta, want, tc.n)
			for i := range c1 {
				if c1[i] != want[i] {
					t.Fatalf("%+v workers=%d: packed path diverges at %d: %v vs %v", tc, workers, i, c1[i], want[i])
				}
			}
		}
		// Two row ranges split on an MR boundary, run one at a time: the
		// upper leaves the lower rows alone, and together they give the
		// same bits.
		mid := (tc.m / 2) &^ (mr - 1)
		copy(c1, c2)
		SgemmPackedARows(mid, tc.m, pa, tc.transB, tc.m, tc.n, tc.k, b, ldb, tc.beta, c1, tc.n)
		if i := sameBits(c1[:mid*tc.n], c2[:mid*tc.n]); i >= 0 {
			t.Fatalf("%+v: rows [%d, %d) wrote element %d below them", tc, mid, tc.m, i)
		}
		SgemmPackedARows(0, mid, pa, tc.transB, tc.m, tc.n, tc.k, b, ldb, tc.beta, c1, tc.n)
		SgemmPackedARows(0, tc.m, pa, tc.transB, tc.m, tc.n, tc.k, b, ldb, tc.beta, c2, tc.n)
		if i := sameBits(c1, c2); i >= 0 {
			t.Fatalf("%+v: row ranges split at %d diverge at %d: %v vs %v", tc, mid, i, c1[i], c2[i])
		}
	}
}

// TestSgemmWorkerCountInvariance: identical bits at every worker count,
// for both the general and the packed-A entry points (the latter's row
// panels forked over the workers).
func TestSgemmWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, n, k := 61, 95, 131
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	c0 := randSlice(rng, m*n)
	var ref []float32
	pa := packACopy(false, m, k, 1.5, a, k)
	for _, workers := range []int{1, 2, 3, 7, 16} {
		c := append([]float32(nil), c0...)
		SgemmWorkers(workers, false, false, m, n, k, 1.5, a, k, b, n, 0.75, c, n)
		if ref == nil {
			ref = c
		} else {
			for i := range c {
				if c[i] != ref[i] {
					t.Fatalf("workers=%d: elem %d differs: %v vs %v", workers, i, c[i], ref[i])
				}
			}
		}
		cp := append([]float32(nil), c0...)
		sgemmPackedForked(workers, pa, false, m, n, k, b, n, 0.75, cp, n)
		for i := range cp {
			if cp[i] != ref[i] {
				t.Fatalf("packed workers=%d: elem %d differs: %v vs %v", workers, i, cp[i], ref[i])
			}
		}
	}
}

// The packed serial paths are on the engine's zero-allocation steady
// state: repacking and multiplying must not allocate.
func TestSgemmZeroAllocSteadyState(t *testing.T) {
	m, n, k := 32, 784, 144
	rng := rand.New(rand.NewSource(3))
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	c := make([]float32, m*n)
	pa := make([]float32, PackAFloats(m, k))
	for _, row := range []struct {
		name string
		f    func()
	}{
		{"packed path", func() {
			PackA(pa, false, m, k, 1, a, k)
			SgemmPackedARows(0, m, pa, false, m, n, k, b, n, 0, c, n)
		}},
		{"serial Sgemm", func() { SgemmWorkers(1, false, false, m, n, k, 1, a, k, b, n, 0, c, n) }},
		// alpha == 0 leaves only C = beta*C.
		{"beta-only scale", func() { SgemmWorkers(1, false, false, m, n, k, 0, a, k, b, n, 0.5, c, n) }},
	} {
		if avg := testing.AllocsPerRun(10, row.f); avg != 0 {
			t.Errorf("%s allocates %v/op, want 0", row.name, avg)
		}
	}
}

func TestSgemmParallelLarge(t *testing.T) {
	// Big enough to take the multi-goroutine path.
	checkGemmCase(t, false, false, 130, 90, 70, 1.5, 0.25)
	checkGemmCase(t, true, false, 96, 128, 64, 1, 1)
	checkGemmCase(t, false, true, 64, 64, 200, 0.5, -1)
}

func TestSgemmBetaZeroOverwritesNaNFreeGarbage(t *testing.T) {
	// beta=0 must overwrite C regardless of prior contents.
	m, n, k := 4, 4, 4
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range c {
		c[i] = 1e30
	}
	Sgemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("c[%d] = %v, want 0", i, v)
		}
	}
}

func TestSgemmAlphaZeroSkipsProduct(t *testing.T) {
	m, n, k := 3, 3, 3
	a := randSlice(rand.New(rand.NewSource(1)), m*k)
	b := randSlice(rand.New(rand.NewSource(2)), k*n)
	c := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	Sgemm(false, false, m, n, k, 0, a, k, b, n, 2, c, n)
	want := []float32{2, 4, 6, 8, 10, 12, 14, 16, 18}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestSgemmZeroK(t *testing.T) {
	c := []float32{1, 2, 3, 4}
	Sgemm(false, false, 2, 2, 0, 1, nil, 1, nil, 2, 0.5, c, 2)
	want := []float32{0.5, 1, 1.5, 2}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("k=0: c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestSgemmPanicsOnBadDims(t *testing.T) {
	cases := []func(){
		func() { Sgemm(false, false, -1, 2, 2, 1, nil, 2, nil, 2, 0, nil, 2) },
		func() {
			Sgemm(false, false, 2, 2, 2, 1, make([]float32, 3), 2, make([]float32, 4), 2, 0, make([]float32, 4), 2)
		},
		func() {
			Sgemm(false, false, 2, 2, 2, 1, make([]float32, 4), 1, make([]float32, 4), 2, 0, make([]float32, 4), 2)
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: Sgemm agrees with the naive reference on random shapes.
func TestSgemmQuick(t *testing.T) {
	f := func(m8, n8, k8 uint8, ta, tb bool, seed int64) bool {
		m := int(m8%40) + 1
		n := int(n8%40) + 1
		k := int(k8%40) + 1
		rng := rand.New(rand.NewSource(seed))
		lda, ldb := k, n
		if ta {
			lda = m
		}
		if tb {
			ldb = k
		}
		arows, brows := m, k
		if ta {
			arows = k
		}
		if tb {
			brows = n
		}
		a := randSlice(rng, arows*lda)
		b := randSlice(rng, brows*ldb)
		c1 := randSlice(rng, m*n)
		c2 := append([]float32(nil), c1...)
		Sgemm(ta, tb, m, n, k, 1.25, a, lda, b, ldb, 0.75, c1, n)
		refGemm(ta, tb, m, n, k, 1.25, a, lda, b, ldb, 0.75, c2, n)
		return maxDiff(c1, c2) <= 1e-4*float64(k+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSaxpy(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	Saxpy(2, x, y)
	want := []float32{6, 9, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Saxpy: y[%d]=%v", i, y[i])
		}
	}
}

func benchSgemm(b *testing.B, m, n, k int) { benchSgemmT(b, false, m, n, k) }

func benchSgemmT(b *testing.B, transB bool, m, n, k int) {
	rng := rand.New(rand.NewSource(7))
	a := randSlice(rng, m*k)
	bm := randSlice(rng, k*n)
	c := make([]float32, m*n)
	ldb := n
	if transB {
		ldb = k
	}
	b.SetBytes(int64(2) * int64(m) * int64(n) * int64(k) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sgemm(false, transB, m, n, k, 1, a, k, bm, ldb, 0, c, n)
	}
}

func BenchmarkSgemm256(b *testing.B) { benchSgemm(b, 256, 256, 256) }

// The shapes conv actually emits are nothing like square: the forward
// im2col GEMM is skinny (m = K output channels, n = output pixels), and
// the Winograd spectral GEMM is a small panel. Track both so benchdiff
// catches regressions on the shapes that matter.
func BenchmarkSgemmSkinny32x784x144(b *testing.B) { benchSgemm(b, 32, 784, 144) }

func BenchmarkSgemmPanel64x196x16(b *testing.B) { benchSgemm(b, 64, 196, 16) }

// AlexNet's fc6 (4096 x 9216) at the end-to-end benchmark's batch 4: the
// forward product Y = X Wᵀ (NT) and the input gradient dX = dY W (NN).
// One row panel of A against a 151 MB B whose every element is used
// once — the shapes the in-place skinny kernels exist for.
func BenchmarkSgemmFC4x4096x9216NT(b *testing.B) { benchSgemmT(b, true, 4, 4096, 9216) }

func BenchmarkSgemmFC4x4096x9216NN(b *testing.B) { benchSgemmT(b, false, 4, 9216, 4096) }

// BenchmarkSgemmFCdW4096x9216x4 is fc6's weight gradient at batch 4,
// dW += dYᵀ X: k = 4, so each 151 MB pass over dW is a read-modify-write
// of C with four products per element.
func BenchmarkSgemmFCdW4096x9216x4(b *testing.B) {
	const m, n, k = 4096, 9216, 4
	rng := rand.New(rand.NewSource(7))
	dy, x, dw := randSlice(rng, k*m), randSlice(rng, k*n), make([]float32, m*n)
	b.SetBytes(int64(2) * m * n * k * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sgemm(true, false, m, n, k, 1, dy, m, x, n, 1, dw, n)
	}
}

// BenchmarkSgemmKernelBlock is the register-tile walk alone on one full
// cache block (64 x 160 x 192, packed) accumulating into C rows 784
// floats apart — an implicit-GEMM forward block on a 28x28 plane.
func BenchmarkSgemmKernelBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pa, pb := randSlice(rng, mc*kc), randSlice(rng, kc*nc)
	const ldc = 784
	c := make([]float32, mc*ldc)
	b.SetBytes(int64(2) * mc * nc * kc * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KernelBlock(pa, pb, mc, nc, kc, true, 1, c, 0, ldc)
	}
}

// BenchmarkSgemmPackedA measures the conv forward inner loop once the
// weight matrix has been packed per Run: the A-pack cost disappears from
// the per-sample path.
func BenchmarkSgemmPackedA32x784x144(b *testing.B) {
	m, n, k := 32, 784, 144
	rng := rand.New(rand.NewSource(7))
	a := randSlice(rng, m*k)
	bm := randSlice(rng, k*n)
	c := make([]float32, m*n)
	pa := make([]float32, PackAFloats(m, k))
	PackA(pa, false, m, k, 1, a, k)
	b.SetBytes(int64(2) * int64(m) * int64(n) * int64(k) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SgemmPackedARows(0, m, pa, false, m, n, k, bm, n, 0, c, n)
	}
}

func TestSgemmDegenerateDims(t *testing.T) {
	// m==0 and n==0 are no-ops that must not touch C.
	c := []float32{1, 2, 3, 4}
	Sgemm(false, false, 0, 2, 2, 1, nil, 2, make([]float32, 4), 2, 0, c, 2)
	Sgemm(false, false, 2, 0, 2, 1, make([]float32, 4), 2, nil, 1, 0, c, 1)
	for i, v := range []float32{1, 2, 3, 4} {
		if c[i] != v {
			t.Fatalf("degenerate GEMM touched C[%d]", i)
		}
	}
}

func TestSaxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Saxpy(1, []float32{1}, []float32{1, 2})
}

// A forked SGEMM's workers record their own pack/kernel windows, so it
// is one launch whose busy time is the measured time those windows are
// held against: attributed never exceeds measured. The same holds for a
// pack-once product whose row ranges are forked over the workers.
func TestForkedSgemmLaunchAccounting(t *testing.T) {
	const m, n, k = 64, 96, 64
	rng := rand.New(rand.NewSource(11))
	a, b, c := randSlice(rng, m*k), randSlice(rng, k*n), make([]float32, m*n)
	pa := make([]float32, PackAFloats(m, k))
	PackA(pa, false, m, k, 1, a, k)
	prof.Reset()
	prof.Enable()
	t.Cleanup(func() {
		prof.Disable()
		prof.Reset()
	})
	for name, run := range map[string]func(){
		"recorded":   func() { SgemmWorkers(4, false, false, m, n, k, 1, a, k, b, n, 0, c, n) },
		"packedRows": func() { sgemmPackedForked(4, pa, false, m, n, k, b, n, 0, c, n) },
	} {
		tok := prof.Begin(name)
		run()
		prof.End(tok)
	}
	for _, r := range prof.Snapshot() {
		if r.Workers.Launches != 1 {
			t.Errorf("%s: %d launches, want 1", r.Kernel, r.Workers.Launches)
		}
		if r.AttributedNS <= 0 || r.AttributedNS > r.MeasuredNS {
			t.Errorf("%s: attributed %d, measured %d", r.Kernel, r.AttributedNS, r.MeasuredNS)
		}
	}
}

// A launch on parked workers allocates nothing: a Fork of a body built
// once makes no object at P = 2, and a forked SGEMM only its product's
// closure, for a fully-connected product (one row panel, split by
// columns) and a square one (split by rows).
func TestForkedSgemmAllocs(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(2))
	body := func(_, _, _ int) {}
	if n := testing.AllocsPerRun(20, func() { Fork(2, 64, body) }); n != 0 {
		t.Errorf("Fork of a prebuilt body at P=2 makes %v allocs/op, want 0", n)
	}
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name    string
		transB  bool
		m, n, k int
	}{
		{"fc", true, 4, 1024, 512},
		{"square", false, 96, 96, 96},
	} {
		a, b, c := randSlice(rng, tc.m*tc.k), randSlice(rng, tc.k*tc.n), make([]float32, tc.m*tc.n)
		ldb := tc.n
		if tc.transB {
			ldb = tc.k
		}
		if AutoWorkers(int64(tc.m)*int64(tc.n)*int64(tc.k)) != 2 {
			t.Fatalf("%s: product below the small-product rule; it would not fork", tc.name)
		}
		run := func() { Sgemm(false, tc.transB, tc.m, tc.n, tc.k, 1, a, tc.k, b, ldb, 0, c, tc.n) }
		if n := testing.AllocsPerRun(20, run); n > 1 {
			t.Errorf("%s: forked Sgemm at P=2 makes %v allocs/op, want <= 1", tc.name, n)
		}
	}
}
