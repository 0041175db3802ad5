package blas

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ucudnn/internal/prof"
)

// shapeCase is one product of the bitwise matrix with its operands:
// leading dimensions wider than the rows, and values chosen so that sign
// and NaN propagation are compared too — negative zeros, a row of A that
// is exactly zero (a dropped-out sample) and one Inf in B.
type shapeCase struct {
	transA, transB bool
	m, n, k        int
	a, b, c        []float32
	lda, ldb, ldc  int
}

func newShapeCase(transA, transB bool, m, n, k int) shapeCase {
	rng := rand.New(rand.NewSource(int64(m*1_000_000 + n*1000 + k)))
	arows, acols := m, k
	if transA {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if transB {
		brows, bcols = n, k
	}
	sc := shapeCase{transA: transA, transB: transB, m: m, n: n, k: k, lda: acols + 3, ldb: bcols + 5, ldc: n + 2}
	sc.a = randSlice(rng, arows*sc.lda)
	sc.b = randSlice(rng, brows*sc.ldb)
	sc.c = randSlice(rng, m*sc.ldc)
	negZero := float32(math.Copysign(0, -1))
	for i := 0; i < len(sc.a); i += 7 {
		sc.a[i] = negZero
	}
	for i := 3; i < len(sc.b); i += 11 {
		sc.b[i] = negZero
	}
	// op(A) row m-1 exactly zero.
	for p := 0; p < k; p++ {
		if transA {
			sc.a[p*sc.lda+m-1] = 0
		} else {
			sc.a[(m-1)*sc.lda+p] = 0
		}
	}
	// op(B)[k/2][n/2] = +Inf: column n/2 becomes Inf, and NaN in the zero row.
	if transB {
		sc.b[(n/2)*sc.ldb+k/2] = float32(math.Inf(1))
	} else {
		sc.b[(k/2)*sc.ldb+n/2] = float32(math.Inf(1))
	}
	return sc
}

// reference is the serial packed path: B packed into panels, every tile
// through KernelBlock — what every shape ran before the split and the
// skinny kernels, and the definition of the bits.
func (sc shapeCase) reference(alpha, beta float32) []float32 {
	c := append([]float32(nil), sc.c...)
	sgemmRows(sc.transA, sc.transB, 0, sc.m, 0, sc.n, sc.k, alpha, sc.a, sc.lda, sc.b, sc.ldb, beta, c, sc.ldc)
	return c
}

func (sc shapeCase) run(workers int, alpha, beta float32) []float32 {
	c := append([]float32(nil), sc.c...)
	SgemmWorkers(workers, sc.transA, sc.transB, sc.m, sc.n, sc.k, alpha, sc.a, sc.lda, sc.b, sc.ldb, beta, c, sc.ldc)
	return c
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// forEachShape walks the matrix of the issue: shapes on both sides of
// mr, nr, kc and the strip/column-split boundaries, all four transpose
// combinations, both alpha classes and the three beta store forms.
func forEachShape(t *testing.T, f func(name string, sc shapeCase, alpha, beta float32)) {
	ms := []int{1, 2, 3, 4, 5, 8, 17}
	ns := []int{1, 7, 8, 9, 160, 161, 1000}
	ks := []int{1, 4, 191, 192, 193, 400}
	if testing.Short() || prof.RaceEnabled {
		// Under the race detector the Go-side packers run ~15x slower; the
		// reduced matrix still takes every kernel and both split axes.
		ms, ns, ks = []int{1, 4, 5}, []int{7, 161, 1000}, []int{4, 193}
	}
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			for _, m := range ms {
				for _, n := range ns {
					for _, k := range ks {
						sc := newShapeCase(ta, tb, m, n, k)
						for _, alpha := range []float32{1, 0.75} {
							for _, beta := range []float32{0, 1, 0.5} {
								f(fmt.Sprintf("tA=%v tB=%v m=%d n=%d k=%d alpha=%v beta=%v", ta, tb, m, n, k, alpha, beta), sc, alpha, beta)
							}
						}
					}
				}
			}
		}
	}
}

// TestSgemmShapeMatrixBitwise: whatever the split (rows, columns) and
// whichever kernel the shape selects (packed tiles, in-place dot chains,
// in-place AXPYs), every C element — padding columns of ldc included —
// carries the bits of the serial packed path.
func TestSgemmShapeMatrixBitwise(t *testing.T) {
	forEachShape(t, func(name string, sc shapeCase, alpha, beta float32) {
		want := sc.reference(alpha, beta)
		for _, workers := range []int{1, 2, 3, 4} {
			if i := sameBits(sc.run(workers, alpha, beta), want); i >= 0 {
				t.Fatalf("%s workers=%d: element %d differs from the packed path", name, workers, i)
			}
		}
	})
}

// TestSgemmBatchOneForks pins the m=1 fix: a batch-1 product used to be
// clamped to one worker by `workers > m`; it now forks over columns, as
// one launch, to the same bits.
func TestSgemmBatchOneForks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, k = 4096, 4096
	rng := rand.New(rand.NewSource(5))
	a, b := randSlice(rng, k), randSlice(rng, n*k)
	serial, forked := make([]float32, n), make([]float32, n)
	SgemmWorkers(1, false, true, 1, n, k, 1, a, k, b, k, 0, serial, n)

	prof.Reset()
	prof.Enable()
	t.Cleanup(func() {
		prof.Disable()
		prof.Reset()
	})
	Sgemm(false, true, 1, n, k, 1, a, k, b, k, 0, forked, n)
	rows := prof.Snapshot()
	if len(rows) != 1 || rows[0].Workers.Launches != 1 {
		t.Fatalf("want one launch on one row, got %+v", rows)
	}
	// Two workers: the launch's busy+idle is workers x wall, and the
	// workers' kernel windows (one each) are its attribution.
	r := rows[0]
	if len(r.Phases) != 1 || r.Phases[0].Phase != string(PhSgemmKernel) || r.Phases[0].Count != 2 {
		t.Fatalf("want two %s windows, got %+v", PhSgemmKernel, r.Phases)
	}
	if r.AttributedNS > r.MeasuredNS {
		t.Fatalf("attributed %d exceeds measured %d", r.AttributedNS, r.MeasuredNS)
	}
	if i := sameBits(forked, serial); i >= 0 {
		t.Fatalf("forked m=1 product differs from workers=1 at %d", i)
	}
}

// The skinny kernels are on the zero-allocation serial path like the
// packed one: their blocks live on the stack.
func TestSgemmSkinnyZeroAlloc(t *testing.T) {
	const m, n, k = 4, 1030, 200
	rng := rand.New(rand.NewSource(3))
	a, b, c := randSlice(rng, m*k), randSlice(rng, k*n), make([]float32, m*n)
	for _, transB := range []bool{false, true} {
		ldb := n
		if transB {
			ldb = k
		}
		if avg := testing.AllocsPerRun(10, func() {
			SgemmWorkers(1, false, transB, m, n, k, 1, a, k, b, ldb, 0, c, n)
		}); avg != 0 {
			t.Fatalf("transB=%v: serial skinny Sgemm allocates %v/op, want 0", transB, avg)
		}
	}
}
