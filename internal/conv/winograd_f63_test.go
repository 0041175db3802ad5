package conv

import (
	"testing"

	"ucudnn/internal/tensor"
)

// f63Shape has 16x16 output planes, above winogradLargeTileMin in both
// extents, so the non-fused path must select F(6x6,3x3).
var f63Shape = tensor.ConvShape{
	In:     tensor.Shape{N: 2, C: 4, H: 16, W: 16},
	Filt:   tensor.Filter{K: 5, C: 4, R: 3, S: 3},
	Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
}

// The tile-size rule is a pure function of the shape: F(6,3) on large
// output planes, F(4,3) below the threshold, F(2,3) fused, F(2,5) for
// 5x5 — and the device cost model reads it through WinogradTiles.
func TestWinogradTileSelection(t *testing.T) {
	small := testShapes[0] // 8x8 output
	if m := winogradM(Forward, f63Shape, false); m != 6 {
		t.Fatalf("large-plane non-fused m = %d, want 6", m)
	}
	if m := winogradM(BackwardData, f63Shape, false); m != 6 {
		t.Fatalf("BackwardData large-plane m = %d, want 6 (dX extents 16x16)", m)
	}
	if m := winogradM(Forward, small, false); m != 4 {
		t.Fatalf("small-plane non-fused m = %d, want 4", m)
	}
	if m := winogradM(Forward, f63Shape, true); m != 2 {
		t.Fatalf("fused m = %d, want 2", m)
	}
	cs5 := small
	cs5.Filt.R, cs5.Filt.S = 5, 5
	cs5.Params.PadH, cs5.Params.PadW = 2, 2
	if m := winogradM(Forward, cs5, false); m != 2 {
		t.Fatalf("5x5 non-fused m = %d, want 2", m)
	}
	// Mixed extents stay on F(4,3): one short side is enough to make the
	// 8-wide tile halo dominate.
	tall := f63Shape
	tall.In.W = 8
	if m := winogradM(Forward, tall, false); m != 4 {
		t.Fatalf("16x8 non-fused m = %d, want 4", m)
	}
}

// F(6,3) accuracy vs the direct reference, bounded by an explicit
// absolute tolerance on unit-scale inputs (the probe error of the bare
// transform is ~2e-5; the bound leaves room for the C-dim accumulation).
func TestWinogradF63AccuracyVsDirect(t *testing.T) {
	const tol = 2e-3
	for _, op := range Ops {
		if !Supported(op, AlgoWinogradNonfused, f63Shape) {
			t.Fatalf("%v unsupported", op)
		}
		x, w, y := randomProblem(f63Shape, 63)
		xr, wr, yr := x.Clone(), w.Clone(), y.Clone()
		runRef(op, f63Shape, xr, wr, yr, 1, 0)
		ws := wsFor(t, op, AlgoWinogradNonfused, f63Shape)
		if err := Run(op, AlgoWinogradNonfused, f63Shape, x, w, y, 1, 0, ws); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		got, want := resultOf(op, x, w, y), resultOf(op, xr, wr, yr)
		if d := tensor.MaxAbsDiff(got, want); d > tol {
			t.Errorf("%v: F(6,3) maxdiff %g > %g", op, d, tol)
		}
	}
}
