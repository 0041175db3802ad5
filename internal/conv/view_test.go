package conv

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ucudnn/internal/tensor"
)

// poison fills the channels a view leaves out: a NaN that any read
// carries into the result, and whose bits show any write.
var poison = math.Float32frombits(0x7fc0dead)

// embed copies dense into channels [1, 1+C) of a tensor two channels
// wider whose other channels are poisoned, and returns the channel view
// and the wide tensor.
func embed(dense *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	s := dense.Shape
	wide := tensor.New(s.N, s.C+2, s.H, s.W)
	wide.Fill(poison)
	v := wide.Channels(1, s.C)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					v.Set(n, c, h, w, dense.At(n, c, h, w))
				}
			}
		}
	}
	return &v, wide
}

// sameAsView reports the first element where the channel view of wide
// differs from dense bit for bit, or where a channel outside the view
// lost its poison.
func sameAsView(dense, wide *tensor.Tensor) error {
	s := wide.Shape
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					got := math.Float32bits(wide.At(n, c, h, w))
					want := math.Float32bits(poison)
					if c >= 1 && c <= dense.Shape.C {
						want = math.Float32bits(dense.At(n, c-1, h, w))
					}
					if got != want {
						return fmt.Errorf("wide (%d,%d,%d,%d) = %#x, want %#x", n, c, h, w, got, want)
					}
				}
			}
		}
	}
	return nil
}

// runWindows runs op over the samples of x and y in windows of the given
// sizes, each a Sample of the operands; BackwardFilter accumulates every
// window after the first, as a micro-batched plan does.
func runWindows(op Op, algo Algo, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, sizes []int) error {
	lo := 0
	for i, n := range sizes {
		b := beta
		if op == BackwardFilter && i > 0 {
			b = 1
		}
		mcs := cs.WithN(n)
		bytes, _ := Workspace(op, algo, mcs)
		ws := make([]float32, (bytes+3)/4)
		if err := Run(op, algo, mcs, x.Sample(lo, n), w, y.Sample(lo, n), alpha, b, ws); err != nil {
			return err
		}
		lo += n
	}
	return nil
}

// viewShapes are the testShapes whose paths a view could break: padded
// 3x3 (both Winograds), 5x5 (F(2,5)), stride 2, dilation, F(6,3),
// several lane blocks, and the identity lowering with two KC blocks.
var viewShapes = []int{0, 2, 3, 5, 8, 9, 12}

// Every kernel runs on sample-strided views: on channels [1, 1+C) of
// tensors whose other channels are poisoned, each (op, supported
// algorithm) must produce the bits of the same call on dense copies and
// leave every other channel untouched, at one and two workers, whole and
// as micro-batch Samples of the view. Both blends run: beta = 0 must
// clear only the view's own channels.
func TestKernelsOnChannelViews(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	for _, p := range []int{1, 2} {
		SetMaxWorkers(p)
		for _, si := range viewShapes {
			cs := testShapes[si]
			windows := [][]int{{cs.In.N}}
			if cs.In.N > 1 {
				windows = append(windows, []int{1, cs.In.N - 1})
			}
			for _, op := range Ops {
				for _, algo := range AlgosFor(op) {
					if !Supported(op, algo, cs) {
						continue
					}
					for _, blend := range [][2]float32{{1, 0}, {0.75, 0.5}} {
						for _, sizes := range windows {
							name := fmt.Sprintf("P=%d/shape %d/%v/%v/alpha=%v,beta=%v/windows %v", p, si, op, algo, blend[0], blend[1], sizes)
							x, w, y := randomProblem(cs, int64(si+7))
							xv, xw := embed(x)
							yv, yw := embed(y)
							wv := w.Clone()
							if err := runWindows(op, algo, cs, x, w, y, blend[0], blend[1], sizes); err != nil {
								t.Fatalf("%s: dense: %v", name, err)
							}
							if err := runWindows(op, algo, cs, xv, wv, yv, blend[0], blend[1], sizes); err != nil {
								t.Fatalf("%s: view: %v", name, err)
							}
							if err := sameAsView(x, xw); err != nil {
								t.Fatalf("%s: x: %v", name, err)
							}
							if err := sameAsView(y, yw); err != nil {
								t.Fatalf("%s: y: %v", name, err)
							}
							for i := range w.Data {
								if math.Float32bits(w.Data[i]) != math.Float32bits(wv.Data[i]) {
									t.Fatalf("%s: w[%d] = %v on views, %v dense", name, i, wv.Data[i], w.Data[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// Run checks that each operand's data covers its shape before any
// kernel can index past it.
func TestRunRejectsShortOperands(t *testing.T) {
	cs := testShapes[0]
	per := cs.In.C * cs.In.H * cs.In.W
	for _, tc := range []struct {
		name string
		x    func() *tensor.Tensor
	}{
		{"short dense", func() *tensor.Tensor {
			x := tensor.NewShaped(cs.In)
			x.Data = x.Data[:len(x.Data)-1]
			return x
		}},
		{"short view", func() *tensor.Tensor {
			wide := tensor.New(cs.In.N, cs.In.C+1, cs.In.H, cs.In.W)
			v := wide.Channels(1, cs.In.C)
			v.Data = v.Data[:len(v.Data)-1]
			return &v
		}},
		{"stride < C·H·W", func() *tensor.Tensor {
			return &tensor.Tensor{Shape: cs.In, Stride: per - 1, Data: make([]float32, cs.In.N*per)}
		}},
	} {
		for _, algo := range AlgosFor(Forward) {
			if !Supported(Forward, algo, cs) {
				continue
			}
			_, w, y := randomProblem(cs, 3)
			err := Run(Forward, algo, cs, tc.x(), w, y, 1, 0, wsFor(t, Forward, algo, cs))
			if err == nil || !strings.Contains(err.Error(), "do not cover") {
				t.Errorf("%s/%v: err = %v, want one about coverage", tc.name, algo, err)
			}
		}
	}
	x, w, y := randomProblem(cs, 3)
	w.Data = w.Data[:len(w.Data)-1]
	if err := Run(Forward, AlgoDirect, cs, x, w, y, 1, 0, nil); err == nil || !strings.Contains(err.Error(), "do not cover") {
		t.Errorf("short filter: err = %v", err)
	}
}
