package conv

import (
	"math"
	"testing"

	"ucudnn/internal/tensor"
)

// Dedicated worker-count determinism test for the FFT algorithms on a
// shape large enough that plane and tile transforms genuinely spread
// across workers (the generic TestWorkerCountBitwiseInvariance matrix
// uses small shapes where most stages collapse to one worker). Also
// crosses workspace grants: the MinWorkspace single-scratch floor must
// be bit-identical to the full per-worker layout at every P.
func TestFFTAlgoBitwiseAcrossWorkersAndWorkspace(t *testing.T) {
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 2, C: 5, H: 20, W: 36},
		Filt:   tensor.Filter{K: 6, C: 5, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	for _, algo := range []Algo{AlgoFFT, AlgoFFTTiling} {
		for _, op := range Ops {
			if !Supported(op, algo, cs) {
				t.Fatalf("%v/%v unsupported on the test shape", op, algo)
			}
			full, _ := Workspace(op, algo, cs)
			floor, _ := MinWorkspace(op, algo, cs)
			var ref []float32
			for _, p := range []int{1, 2, 3, 4} {
				for _, wsBytes := range []int64{full, floor} {
					withWorkers(p, func() {
						x, w, y := randomProblem(cs, 77)
						ws := make([]float32, (wsBytes+3)/4)
						if err := Run(op, algo, cs, x, w, y, 0.5, 0.5, ws); err != nil {
							t.Fatalf("P=%d %v/%v: %v", p, op, algo, err)
						}
						got := resultOf(op, x, w, y)
						if ref == nil {
							ref = append([]float32(nil), got...)
							return
						}
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
								t.Fatalf("P=%d ws=%dB %v/%v: elem %d = %x, reference %x",
									p, wsBytes, op, algo, i,
									math.Float32bits(got[i]), math.Float32bits(ref[i]))
							}
						}
					})
				}
			}
		}
	}
}

// The device model calls the geometry accessors for every candidate it
// prices, so they must not allocate.
func TestGeometryAccessorsDoNotAllocate(t *testing.T) {
	cs := testShapes[0]
	allocs := testing.AllocsPerRun(10, func() {
		for _, op := range Ops {
			FFTGeometry(op, AlgoFFT, cs)
			FFTGeometry(op, AlgoFFTTiling, cs)
			WinogradTiles(op, AlgoWinogradNonfused, cs)
		}
	})
	if allocs != 0 {
		t.Fatalf("geometry accessors allocate %v times per call set", allocs)
	}
}
