package conv

import (
	"math"
	"runtime"
	"testing"

	"ucudnn/internal/blas"
	"ucudnn/internal/tensor"
)

// winogradWideShape has the filter bank testShapes cannot afford to run
// through every algorithm: two kc-blocks of C, and K in two mc-blocks of
// whole panels plus a partial one.
var winogradWideShape = tensor.ConvShape{
	In:     tensor.Shape{N: 2, C: 200, H: 13, W: 13},
	Filt:   tensor.Filter{K: 70, C: 200, R: 3, S: 3},
	Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
}

// Both Winograd algorithms on the wide bank: right against the direct
// reference, and bit-identical however many workers share the tiles.
func TestWinogradWideFilterBank(t *testing.T) {
	cs := winogradWideShape
	for _, op := range Ops {
		x, w, y := randomProblem(cs, 91)
		xr, wr, yr := x.Clone(), w.Clone(), y.Clone()
		runRef(op, cs, xr, wr, yr, 0.75, 0.25)
		want := resultOf(op, xr, wr, yr)
		for _, algo := range []Algo{AlgoWinograd, AlgoWinogradNonfused} {
			if !Supported(op, algo, cs) {
				continue
			}
			var ref []float32
			for _, p := range []int{1, 2, 3} {
				withWorkers(p, func() {
					xa, wa, ya := x.Clone(), w.Clone(), y.Clone()
					if err := Run(op, algo, cs, xa, wa, ya, 0.75, 0.25, wsFor(t, op, algo, cs)); err != nil {
						t.Fatalf("P=%d %v/%v: %v", p, op, algo, err)
					}
					got := resultOf(op, xa, wa, ya)
					if ref == nil {
						ref = got
						if !tensor.AllClose(got, want, tolFor(algo, cs), 1e-3) {
							t.Errorf("%v/%v: maxdiff %g", op, algo, tensor.MaxAbsDiff(got, want))
						}
						return
					}
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
							t.Fatalf("P=%d %v/%v: elem %d = %x, P=1 gave %x", p, op, algo, i, math.Float32bits(got[i]), math.Float32bits(ref[i]))
						}
					}
				})
			}
		}
	}
}

// The filter bank's order is blas.PackA's: every position of the whole
// panels names the pair PackA puts there, the partial panel's rows follow
// row-major, and the positions cover the k*c pairs exactly once.
func TestWinogradFilterBankIsPackAOrder(t *testing.T) {
	for _, kc := range [][2]int{{30, 200}, {7, 5}, {128, 96}, {3, 2}, {8, 400}} {
		k, c := kc[0], kc[1]
		a := make([]float32, k*c)
		for i := range a {
			a[i] = float32(i)
		}
		packed := make([]float32, blas.PackAFloats(k, c))
		blas.PackA(packed, false, k, c, 1, a, c)
		g := wgCtx{k: k, c: c}
		pf, pm := k&^(blas.MR-1), (k+blas.MR-1)&^(blas.MR-1)
		seen := make([]bool, k*c)
		for q := 0; q < k*c; q++ {
			kk, cc := g.uPair(q)
			if kk < 0 || kk >= k || cc < 0 || cc >= c || seen[kk*c+cc] {
				t.Fatalf("k=%d c=%d: position %d names pair (%d, %d) out of range or twice", k, c, q, kk, cc)
			}
			seen[kk*c+cc] = true
			if q >= pf*c {
				if q != kk*c+cc {
					t.Fatalf("k=%d c=%d: partial-panel position %d names (%d, %d), want row-major", k, c, q, kk, cc)
				}
				continue
			}
			// PackA pads every kc-block's panels to pm rows; the bank keeps pf.
			k0 := q / (pf * blas.KC) * blas.KC
			if got := packed[pm*k0+(q-pf*k0)]; got != a[kk*c+cc] {
				t.Fatalf("k=%d c=%d: position %d names (%d, %d), PackA has element %v there", k, c, q, kk, cc, got)
			}
		}
	}
}

// A forked Winograd call allocates for its forks, not for its tile blocks:
// the count at P=2 is the same for 3 blocks as for 27, and small. (The
// per-block closures of the kernels these replaced made it 5 per block
// and stage.)
func TestWinogradForkAllocsIndependentOfBlocks(t *testing.T) {
	prevP := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prevP)
	prev := SetMaxWorkers(2)
	defer SetMaxWorkers(prev)
	allocs := func(op Op, algo Algo, n int) float64 {
		cs := tensor.ConvShape{
			In:     tensor.Shape{N: n, C: 4, H: 12, W: 12},
			Filt:   tensor.Filter{K: 8, C: 4, R: 3, S: 3},
			Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
		}
		x, w, y := randomProblem(cs, 71)
		ws := wsFor(t, op, algo, cs)
		run := func() {
			if err := Run(op, algo, cs, x, w, y, 1, 0, ws); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(10, run)
	}
	for _, op := range []Op{Forward, BackwardData} {
		for _, algo := range []Algo{AlgoWinograd, AlgoWinogradNonfused} {
			few, many := allocs(op, algo, 4), allocs(op, algo, 48) // 144 and 1728 F(2,3) tiles
			if few != many || few > 12 {
				t.Errorf("%v/%v at P=2: %.0f allocs/op on the small batch, %.0f on the large; want equal and at most 12", op, algo, few, many)
			}
		}
	}
}

// Non-fused Winograd's BackwardFilter allocates no more at its
// MinWorkspace floor than with its full Workspace. The floor admits one
// tile worker, but the spectral products dU[e] = Wb[e]·V[e]ᵀ (here 32 x
// 32 x 100 tiles each, above blas's small-product rule) need no arena:
// they are one launch over e, each product serial on its worker, so the
// floor adds no launch per product.
func TestWinogradBackwardFilterFloorAllocs(t *testing.T) {
	prevP := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prevP)
	prev := SetMaxWorkers(2)
	defer SetMaxWorkers(prev)
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 4, C: 32, H: 28, W: 28},
		Filt:   tensor.Filter{K: 32, C: 32, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	op, algo := BackwardFilter, AlgoWinogradNonfused
	tr := winogradTransformFor(op, cs, false)
	_, _, total := winogradTiles(tr.M, 28, 28, cs.In.N)
	if macs := int64(cs.Filt.K) * int64(cs.Filt.C) * int64(total); macs < 1<<16 {
		t.Fatalf("one spectral product is %d MACs, below blas's small-product rule", macs)
	}
	x, w, y := randomProblem(cs, 79)
	allocs := func(size func(Op, Algo, tensor.ConvShape) (int64, bool)) float64 {
		bytes, _ := size(op, algo, cs)
		ws := make([]float32, (bytes+3)/4)
		run := func() {
			if err := Run(op, algo, cs, x, w, y, 1, 0, ws); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(10, run)
	}
	floor, full := allocs(MinWorkspace), allocs(Workspace)
	if floor > full {
		t.Errorf("%v/%v at P=2: %.0f allocs/op at MinWorkspace, %.0f at Workspace; want the floor at most the full grant",
			op, algo, floor, full)
	}
}
