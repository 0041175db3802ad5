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
	"math/rand"
	"testing"

	"ucudnn/internal/bench"
	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/ilp"
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
				bc := core.NewBencher(cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend), nil)
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
		bc := core.NewBencher(cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend), nil)
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
	// 48 groups x 10 Pareto options each: 10 µs down to 3.6 µs for 0 to
	// 108 MiB, under 900 MiB.
	prob := &ilp.Problem{Budget: 900 << 20}
	for g := 0; g < 48; g++ {
		var items []ilp.Item
		for o := 0; o < 10; o++ {
			items = append(items, ilp.Item{Cost: int64(10000 / (1 + 0.2*float64(o))), Weight: int64(o*12) << 20})
		}
		prob.Classes = append(prob.Classes, items)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ilp.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILPDenseNetPlan measures the solve alone on the instance the
// end-to-end benchmark's densenet_plan workload cycles (bench.DenseNetPlan):
// 117 classes / 296 items under a budget that binds, rebuilt here from
// prebuilt desirable sets the way core.OptimizeWD assembles it.
func BenchmarkILPDenseNetPlan(b *testing.B) {
	// Striped workspace sizes, and so the instance, scale with the engine's
	// worker cap; pin the cap the 296-item instance was recorded at.
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	uc, err := bench.DenseNetPlan(device.P100)
	if err != nil {
		b.Fatal(err)
	}
	want := uc.WDStats()
	bc := core.NewBencher(uc.Inner(), nil)
	prob := &ilp.Problem{Budget: want.EffectiveBudget}
	var kernels []core.Kernel
	count := map[string]int64{}
	for _, p := range want.Plans { // one per registered kernel, in registration order
		key := p.Kernel.String()
		if count[key]++; count[key] == 1 {
			kernels = append(kernels, p.Kernel)
		}
	}
	for _, k := range kernels {
		front, err := core.DesirableSet(bc, k, prob.Budget, core.PolicyPowerOfTwo)
		if err != nil {
			b.Fatal(err)
		}
		items := make([]ilp.Item, len(front))
		for i, sc := range front {
			items[i] = ilp.Item{Cost: count[k.String()] * int64(sc.Time), Weight: sc.Workspace}
		}
		prob.Classes = append(prob.Classes, items)
	}
	res, err := ilp.Solve(prob)
	if err != nil {
		b.Fatal(err)
	}
	if len(prob.Classes) != 117 || want.ILPVars != 296 || res.Cost != int64(want.TotalTime) || res.Nodes != want.ILPNodes {
		b.Fatalf("not the densenet_plan instance: %d classes, %d items, cost %d vs %d, %d nodes vs %d",
			len(prob.Classes), want.ILPVars, res.Cost, int64(want.TotalTime), res.Nodes, want.ILPNodes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ilp.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesirableSet measures the Pareto-front DP alone, on conv2's
// forward kernel at N=64 under 120 MiB.
func BenchmarkDesirableSet(b *testing.B) {
	for _, pol := range []core.Policy{core.PolicyPowerOfTwo, core.PolicyAll} {
		b.Run(pol.String(), func(b *testing.B) {
			bc := core.NewBencher(cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend), nil)
			k := core.Kernel{Op: conv.Forward, Shape: bench.Conv2(64)}
			bc.PerfsForSizes(k, pol.CandidateSizes(64)) // pre-warm the cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.DesirableSet(bc, k, 120<<20, pol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFillUniform measures parameter initialisation alone: one
// tensor.FillUniform of 1 Mi floats into touched memory from a generator
// that earlier fills have already drawn from, as every layer after the
// first finds it. Each op adopts the generator's stream afresh, which is
// its one allocation.
func BenchmarkFillUniform(b *testing.B) {
	dst := make([]float32, 1<<20)
	rng := rand.New(rand.NewSource(1))
	tensor.FillUniform(dst, rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.FillUniform(dst, rng, 0.01)
	}
}

// BenchmarkAblation regenerates the design-choice ablations
// (Pareto-pruning reduction, WD kernel dedup, cache reuse).
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation", 64) }

// BenchmarkConcurrency regenerates the Inception multi-stream extension.
func BenchmarkConcurrency(b *testing.B) { runExperiment(b, "concurrency", 32) }
