package winograd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laneCase is one of the five lane transforms with its per-tile oracle
// and tile geometry: rows x rows in, outRows x outRows out.
type laneCase struct {
	name          string
	rows, outRows func(t *Transform) int
	oracle        func(t *Transform, dst, src, tmp []float32)
	// run transforms w tiles from src (a gathered block, or bank rows at
	// srcStride) to dst rows at dstStride.
	fromBlock bool
	run       func(t *Transform, dst []float32, dstStride int, dstBlock *LaneBlock, src []float32, srcStride int, srcBlock *LaneBlock, w int, tmp *LaneBlock)
}

var laneCases = []laneCase{
	{
		name: "Input", fromBlock: true,
		rows: func(t *Transform) int { return t.Alpha }, outRows: func(t *Transform) int { return t.Alpha },
		oracle: (*Transform).InputTransform,
		run: func(t *Transform, dst []float32, dstStride int, _ *LaneBlock, _ []float32, _ int, src *LaneBlock, w int, tmp *LaneBlock) {
			t.InputLanes(dst, dstStride, src, w, tmp)
		},
	},
	{
		name: "Filter", fromBlock: true,
		rows: func(t *Transform) int { return t.R }, outRows: func(t *Transform) int { return t.Alpha },
		oracle: (*Transform).FilterTransform,
		run: func(t *Transform, dst []float32, dstStride int, _ *LaneBlock, _ []float32, _ int, src *LaneBlock, w int, tmp *LaneBlock) {
			t.FilterLanes(dst, dstStride, src, w, tmp)
		},
	},
	{
		name: "OutputAdjoint", fromBlock: true,
		rows: func(t *Transform) int { return t.M }, outRows: func(t *Transform) int { return t.Alpha },
		oracle: (*Transform).OutputAdjoint,
		run: func(t *Transform, dst []float32, dstStride int, _ *LaneBlock, _ []float32, _ int, src *LaneBlock, w int, tmp *LaneBlock) {
			t.OutputAdjointLanes(dst, dstStride, src, w, tmp)
		},
	},
	{
		name: "Output",
		rows: func(t *Transform) int { return t.Alpha }, outRows: func(t *Transform) int { return t.M },
		oracle: (*Transform).OutputTransform,
		run: func(t *Transform, _ []float32, _ int, dst *LaneBlock, src []float32, srcStride int, _ *LaneBlock, w int, tmp *LaneBlock) {
			t.OutputLanes(dst, src, srcStride, w, tmp)
		},
	},
	{
		name: "FilterAdjoint",
		rows: func(t *Transform) int { return t.Alpha }, outRows: func(t *Transform) int { return t.R },
		oracle: (*Transform).FilterAdjoint,
		run: func(t *Transform, _ []float32, _ int, dst *LaneBlock, src []float32, srcStride int, _ *LaneBlock, w int, tmp *LaneBlock) {
			t.FilterAdjointLanes(dst, src, srcStride, w, tmp)
		},
	},
}

// laneTransforms are the four (m, r) the convolution kernels generate.
var laneTransforms = [][2]int{{2, 3}, {4, 3}, {6, 3}, {2, 5}}

// laneWidths: one lane, around one group of eight, a full block, and a
// tail block (groups of eight plus stragglers).
var laneWidths = []int{1, 7, 8, 9, Lanes, 43}

// laneTile fills one tile for lane x of a test: random values salted with
// +0, -0, denormals and, for whole tiles, the all-zero border tile.
func laneTile(rng *rand.Rand, tile []float32, x int) {
	if x%5 == 3 {
		clear(tile) // a tile wholly inside the zero padding
		return
	}
	for i := range tile {
		switch rng.Intn(8) {
		case 0:
			tile[i] = 0
		case 1:
			tile[i] = float32(math.Copysign(0, -1))
		case 2:
			tile[i] = math.Float32frombits(uint32(1 + rng.Intn(1<<20))) // denormal
		case 3:
			tile[i] = -math.Float32frombits(uint32(1 + rng.Intn(1<<20)))
		default:
			tile[i] = rng.Float32()*4 - 2
		}
	}
}

// checkLanesMatchOracle runs every lane transform of every generated
// (m, r) at every width through whichever of the AVX kernel and its twin
// is selected, against the per-tile oracle.
func checkLanesMatchOracle(t *testing.T) {
	t.Helper()
	const pad = 5 // bank rows are wider than the block: strides differ
	for _, mr := range laneTransforms {
		tr, err := NewTransform(mr[0], mr[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, lc := range laneCases {
			for _, w := range laneWidths {
				name := fmt.Sprintf("F(%d,%d)/%s/w=%d", mr[0], mr[1], lc.name, w)
				rng := rand.New(rand.NewSource(int64(1000*mr[0] + 100*mr[1] + w)))
				rows, outRows := lc.rows(tr), lc.outRows(tr)
				in, out := rows*rows, outRows*outRows
				tiles := make([]float32, w*in)
				for x := 0; x < w; x++ {
					laneTile(rng, tiles[x*in:(x+1)*in], x)
				}
				want := make([]float32, w*out)
				scratch := make([]float32, MaxAlpha*MaxAlpha)
				for x := 0; x < w; x++ {
					lc.oracle(tr, want[x*out:(x+1)*out], tiles[x*in:(x+1)*in], scratch)
				}

				var srcBlock, dstBlock, tmp LaneBlock
				for i := range tmp {
					tmp[i] = float32(math.NaN()) // scratch contents must not matter
				}
				bankStride := w + pad
				srcBank := make([]float32, in*bankStride)
				dstBank := make([]float32, out*bankStride)
				ls := LaneStride(w)
				for x := 0; x < w; x++ {
					for e := 0; e < in; e++ {
						srcBlock[e*ls+x] = tiles[x*in+e]
						srcBank[e*bankStride+x] = tiles[x*in+e]
					}
				}
				for i := range dstBank {
					dstBank[i] = -77 // sentinel: lanes past w stay untouched
				}
				lc.run(tr, dstBank, bankStride, &dstBlock, srcBank, bankStride, &srcBlock, w, &tmp)
				for x := 0; x < w; x++ {
					for e := 0; e < out; e++ {
						got := dstBlock[e*ls+x]
						if lc.fromBlock {
							got = dstBank[e*bankStride+x]
						}
						if math.Float32bits(got) != math.Float32bits(want[x*out+e]) {
							t.Fatalf("%s: tile %d element %d = %x, per-tile oracle %x", name, x, e,
								math.Float32bits(got), math.Float32bits(want[x*out+e]))
						}
					}
				}
				if lc.fromBlock {
					for e := 0; e < out; e++ {
						for x := w; x < bankStride; x++ {
							if dstBank[e*bankStride+x] != -77 {
								t.Fatalf("%s: row %d wrote lane %d past its %d tiles", name, e, x, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestLanesMatchPerTileOracle: the bit contract of lanes.go on the
// kernels this machine runs.
func TestLanesMatchPerTileOracle(t *testing.T) {
	checkLanesMatchOracle(t)
}

// TestLaneMulGenericMatchesChain pins the twin itself to the definition
// — one mul-then-add chain from zero per element — on arbitrary strides
// and lane ranges, so the oracle test above cannot pass by two kernels
// agreeing on something else.
func TestLaneMulGenericMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const ra, ca, srcStride, dstStride, lo, hi = 3, 5, 19, 23, 2, 17
	coef := make([]float32, ra*ca)
	src := make([]float32, ca*srcStride)
	for i := range coef {
		coef[i] = rng.Float32()*2 - 1
	}
	laneTile(rng, src, 0)
	dst := make([]float32, ra*dstStride)
	laneMulGeneric(dst, dstStride, coef, ra, ca, src, srcStride, lo, hi)
	for i := 0; i < ra; i++ {
		for x := 0; x < dstStride; x++ {
			var want float32
			if x >= lo && x < hi {
				for a := 0; a < ca; a++ {
					want += coef[i*ca+a] * src[a*srcStride+x]
				}
			}
			if got := dst[i*dstStride+x]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("row %d lane %d = %x, want %x", i, x, math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}
