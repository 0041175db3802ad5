// Package ucudnn_test hosts the repository-level benchmark harness: one
// testing.B target per paper table/figure (regenerating the experiment on
// the simulated device model), plus micro-benchmarks of the real CPU
// convolution kernels and the optimizer machinery.
//
// Run with:
//
//	go test -bench=. -benchmem
package ucudnn_test

import (
	"io"
	"testing"

	"ucudnn/internal/bench"
	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/ilp"
	"ucudnn/internal/lp"
	"ucudnn/internal/tensor"
)

func benchCfg(batch int) bench.Config {
	return bench.Config{Device: device.P100, Batch: batch, Iters: 1, Out: io.Discard}
}

// runExperiment executes a bench experiment b.N times.
func runExperiment(b *testing.B, name string, batch int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(name, benchCfg(batch)); err != nil {
			b.Fatal(err)
		}
	}
}

// Each of the following regenerates one figure/table of the paper
// (reduced batch sizes keep bench iterations tractable; the cmd/ucudnn-
// bench tool runs them at paper scale).

func BenchmarkFig1(b *testing.B)    { runExperiment(b, "fig1", 64) }
func BenchmarkFig8(b *testing.B)    { runExperiment(b, "fig8", 64) }
func BenchmarkFig9(b *testing.B)    { runExperiment(b, "fig9", 128) }
func BenchmarkFig10(b *testing.B)   { runExperiment(b, "fig10", 32) }
func BenchmarkFig11(b *testing.B)   { runExperiment(b, "fig11", 16) }
func BenchmarkFig12(b *testing.B)   { runExperiment(b, "fig12", 16) }
func BenchmarkFig13(b *testing.B)   { runExperiment(b, "fig13", 16) }
func BenchmarkFig14(b *testing.B)   { runExperiment(b, "fig14", 64) }
func BenchmarkTable1(b *testing.B)  { runExperiment(b, "table1", 0) }
func BenchmarkOptTime(b *testing.B) { runExperiment(b, "opttime", 32) }

// BenchmarkOptimizerWR measures the WR dynamic program (benchmarking +
// DP) on conv2 per policy — the paper's §IV-B optimization-cost metric.
func BenchmarkOptimizerWR(b *testing.B) {
	for _, pol := range core.Policies {
		b.Run(pol.String(), func(b *testing.B) {
			k := core.Kernel{Op: conv.Forward, Shape: bench.Conv2(256)}
			for i := 0; i < b.N; i++ {
				// A fresh bencher each iteration so the cache doesn't hide
				// the benchmarking cost.
				bc := core.NewBencher(cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend), nil, 1)
				if _, err := core.OptimizeWR(bc, k, 64<<20, pol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizerWD measures the full WD pipeline (desirable sets +
// ILP) over AlexNet's five forward kernels.
func BenchmarkOptimizerWD(b *testing.B) {
	shapes := []tensor.ConvShape{
		bench.Conv2(64),
		{In: tensor.Shape{N: 64, C: 192, H: 13, W: 13}, Filt: tensor.Filter{K: 384, C: 192, R: 3, S: 3},
			Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}},
		{In: tensor.Shape{N: 64, C: 384, H: 13, W: 13}, Filt: tensor.Filter{K: 256, C: 384, R: 3, S: 3},
			Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}},
	}
	var kernels []core.Kernel
	for _, cs := range shapes {
		for _, op := range conv.Ops {
			kernels = append(kernels, core.Kernel{Op: op, Shape: cs})
		}
	}
	for i := 0; i < b.N; i++ {
		bc := core.NewBencher(cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend), nil, 1)
		if _, err := core.OptimizeWD(bc, kernels, 120<<20, core.PolicyPowerOfTwo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel measures the real CPU implementations of each forward
// algorithm on a small 3x3 problem (throughput in flops via b.SetBytes is
// not meaningful here; ns/op comparisons are).
func BenchmarkKernel(b *testing.B) {
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 4, C: 16, H: 28, W: 28},
		Filt:   tensor.Filter{K: 32, C: 16, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	x := tensor.NewShaped(cs.In)
	w := tensor.NewFilter(32, 16, 3, 3)
	y := tensor.NewShaped(cs.OutShape())
	for _, algo := range conv.AlgosFor(conv.Forward) {
		if !conv.Supported(conv.Forward, algo, cs) {
			continue
		}
		wsBytes, _ := conv.Workspace(conv.Forward, algo, cs)
		ws := make([]float32, (wsBytes+3)/4)
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := conv.Run(conv.Forward, algo, cs, x, w, y, 1, 0, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkILPResNet50Scale measures the branch & bound on a WD-sized
// multiple-choice knapsack (the paper reports 562 variables in 5.46 ms
// with GLPK).
func BenchmarkILPResNet50Scale(b *testing.B) {
	// 48 groups x ~10 Pareto options each.
	var c, wsRow []float64
	var groups [][]int
	idx := 0
	for g := 0; g < 48; g++ {
		var ids []int
		for o := 0; o < 10; o++ {
			c = append(c, 10.0/(1+0.2*float64(o)))
			wsRow = append(wsRow, float64(o*12))
			ids = append(ids, idx)
			idx++
		}
		groups = append(groups, ids)
	}
	n := len(c)
	prob := &ilp.Problem{
		LP: lp.Problem{
			C:   c,
			A:   [][]float64{wsRow},
			B:   []float64{900},
			Rel: []lp.Relation{lp.LE},
		},
		Binary: make([]bool, n),
	}
	for i := range prob.Binary {
		prob.Binary[i] = true
	}
	for _, ids := range groups {
		row := make([]float64, n)
		for _, id := range ids {
			row[id] = 1
		}
		prob.LP.A = append(prob.LP.A, row)
		prob.LP.B = append(prob.LP.B, 1)
		prob.LP.Rel = append(prob.LP.Rel, lp.EQ)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ilp.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesirableSet measures the Pareto-front DP alone.
func BenchmarkDesirableSet(b *testing.B) {
	for _, pol := range []core.Policy{core.PolicyPowerOfTwo, core.PolicyAll} {
		b.Run(pol.String(), func(b *testing.B) {
			bc := core.NewBencher(cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend), nil, 1)
			k := core.Kernel{Op: conv.Forward, Shape: bench.Conv2(256)}
			bc.PerfsForSizes(k, pol.CandidateSizes(256)) // pre-warm the cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.DesirableSet(bc, k, 120<<20, pol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation regenerates the design-choice ablations
// (Pareto-pruning reduction, WD kernel dedup, cache reuse).
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation", 64) }

// BenchmarkConcurrency regenerates the Inception multi-stream extension.
func BenchmarkConcurrency(b *testing.B) { runExperiment(b, "concurrency", 32) }
