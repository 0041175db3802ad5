package conv_test

import (
	"math/rand"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/tensor"
	"ucudnn/internal/testkit"
)

// The FFT kernels' output bits are pinned as FNV fingerprints for every
// op on both spectral algorithms, at shapes chosen for the geometry's
// edges: K and C above fftFilterChunk (several filter chunks), FFT_TILING
// with several tiles per axis and with one, a 5x5 filter with pad 2, a
// single sample, and the alpha = beta = 0.5 blend. The numbers are those
// of the kernels at commit 18b80f7, before FFT and FFT_TILING shared one
// geometry.
func TestFFTOutputBitsPinned(t *testing.T) {
	shape := func(n, c, h, w, k, r, pad int) tensor.ConvShape {
		return tensor.ConvShape{
			In:     tensor.Shape{N: n, C: c, H: h, W: w},
			Filt:   tensor.Filter{K: k, C: c, R: r, S: r},
			Params: tensor.ConvParams{PadH: pad, PadW: pad, StrideH: 1, StrideW: 1},
		}
	}
	for _, tc := range []struct {
		name        string
		cs          tensor.ConvShape
		alpha, beta float32
		// Forward, BackwardData, BackwardFilter on FFT, then on FFT_TILING.
		pins [2][3]uint64
	}{
		{"chunks", shape(2, 40, 10, 10, 36, 3, 1), 0.5, 0.5, [2][3]uint64{
			{0x7507c1da6342ba10, 0xd3c41e1921bc4259, 0x9901fb94f7355fd6},
			{0x2a25f9af99ccff5b, 0x789367cef4195f88, 0x9609ecc19fc03a7c},
		}},
		{"tiles", shape(2, 3, 70, 66, 4, 3, 1), 0.5, 0.5, [2][3]uint64{
			{0xacba6cc72680f083, 0x048e8c40e1cd2d73, 0x20357eb6e0b3d92d},
			{0x01acfb75d61aabe1, 0x0b1372e5fb8c8d08, 0x2cf96bec5d7059cf},
		}},
		{"5x5", shape(2, 3, 17, 15, 5, 5, 2), 1, 0, [2][3]uint64{
			{0x2f0ec0c39980eef2, 0x4ab3975db0f124ac, 0x113e5818bb65a590},
			{0x2f0ec0c39980eef2, 0x4ab3975db0f124ac, 0x113e5818bb65a590},
		}},
		{"n1", shape(1, 4, 9, 14, 3, 3, 0), 0.5, 0.5, [2][3]uint64{
			{0x30fa6a9897b65f36, 0xe5a01a6d9408b5ec, 0x09e1e4bfd07c7b16},
			{0x3968ea6d40c84ce7, 0x31f2dbf691f78f4a, 0xcb53b911cc8184fc},
		}},
	} {
		for i, algo := range []conv.Algo{conv.AlgoFFT, conv.AlgoFFTTiling} {
			for j, op := range conv.Ops {
				rng := rand.New(rand.NewSource(32))
				x := tensor.NewShaped(tc.cs.In)
				x.Randomize(rng, 1)
				w := tensor.NewFilter(tc.cs.Filt.K, tc.cs.Filt.C, tc.cs.Filt.R, tc.cs.Filt.S)
				w.Randomize(rng, 1)
				y := tensor.NewShaped(tc.cs.OutShape())
				y.Randomize(rng, 1)
				full, ok := conv.Workspace(op, algo, tc.cs)
				if !ok {
					t.Fatalf("%s: %v/%v unsupported", tc.name, op, algo)
				}
				if err := conv.Run(op, algo, tc.cs, x, w, y, tc.alpha, tc.beta, make([]float32, full/4)); err != nil {
					t.Fatalf("%s %v/%v: %v", tc.name, op, algo, err)
				}
				out := map[conv.Op][]float32{conv.Forward: y.Data, conv.BackwardData: x.Data, conv.BackwardFilter: w.Data}[op]
				if got := testkit.Fingerprint(out); got != tc.pins[i][j] {
					t.Errorf("%s %v/%v: fingerprint %#016x, want %#016x", tc.name, op, algo, got, tc.pins[i][j])
				}
			}
		}
	}
}
