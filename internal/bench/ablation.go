package bench

import (
	"fmt"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
)

// Ablation quantifies the design choices behind WD's tractability
// (§III-C1): how Pareto pruning collapses the exponential configuration
// space to tens of ILP variables per kernel, and how kernel
// deduplication shrinks replicated networks' ILPs. The paper reports a
// maximum desirable-set size of 68 for AlexNet against an O(|A|^N)
// unpruned space.
func Ablation(cfg Config) error {
	cfg = cfg.withDefaults()
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}
	b := core.NewBencher(newModelHandle(cfg), nil)

	t := newTable(cfg, fmt.Sprintf("Ablation: Pareto pruning per AlexNet forward kernel (%s, N=%d, 120 MiB)",
		cfg.Device.Name, batch),
		"kernel", "policy", "unpruned_configs", "pruned_front", "reduction")
	maxFront := 0
	for _, l := range alexNetFwdShapes(batch) {
		k := core.Kernel{Op: conv.Forward, Shape: l.Shape}
		for _, pol := range []core.Policy{core.PolicyPowerOfTwo, core.PolicyAll} {
			front, err := core.DesirableSet(b, k, 120*MiB, pol)
			if err != nil {
				return err
			}
			if len(front) > maxFront {
				maxFront = len(front)
			}
			unpruned := countConfigs(b, k, 120*MiB, pol)
			t.row(l.Name, pol.String(),
				fmt.Sprintf("%.3g", unpruned),
				fmt.Sprintf("%d", len(front)),
				fmt.Sprintf("%.1e x", unpruned/float64(len(front))))
		}
	}
	t.flush()
	fmt.Fprintf(cfg.Out, "max desirable-set size: %d (paper: 68)\n", maxFront)

	// Kernel deduplication: the WD ILP over ResNet-50's kernels with and
	// without grouping identical (op, shape) pairs.
	_, run, err := netRun(cfg, "resnet50", "wr", core.PolicyUndivided, 8*MiB, 32)
	if err != nil {
		return err
	}
	unique := len(run.UC.Plans())
	// Every conv layer contributes Forward+BackwardFilter (+BackwardData
	// unless it is the stem).
	totalKernels := 3*len(run.Net.ConvLayers()) - 1
	t2 := newTable(cfg, "Ablation: WD kernel deduplication (ResNet-50, N=32)",
		"total_kernels", "unique_kernels", "dedup_factor")
	t2.row(fmt.Sprintf("%d", totalKernels), fmt.Sprintf("%d", unique),
		fmt.Sprintf("%.2fx", float64(totalKernels)/float64(unique)))
	t2.flush()

	// Benchmark-cache effect: planning AlexNet twice with a shared cache.
	t3 := newTable(cfg, "Ablation: benchmark cache reuse (AlexNet forward kernels)",
		"pass", "optimization_time")
	cache, _ := core.NewCache("")
	for pass := 1; pass <= 2; pass++ {
		bc := core.NewBencher(newModelHandle(cfg), cache)
		start := time.Now()
		for _, l := range alexNetFwdShapes(batch) {
			if _, err := core.OptimizeWR(bc, core.Kernel{Op: conv.Forward, Shape: l.Shape}, 64*MiB, core.PolicyAll); err != nil {
				return err
			}
		}
		t3.row(fmt.Sprintf("%d", pass), time.Since(start).String())
	}
	t3.flush()
	return nil
}

// countConfigs counts (approximately, in float64) the unpruned
// configuration space: ordered-multiset divisions of the mini-batch into
// candidate sizes, weighted by the number of admissible algorithms at
// each size.
func countConfigs(b *core.Bencher, k core.Kernel, limit int64, pol core.Policy) float64 {
	n := k.Shape.In.N
	sizes := pol.CandidateSizes(n)
	perfs := b.PerfsForSizes(k, sizes)
	algos := map[int]float64{}
	for _, m := range sizes {
		cnt := 0.0
		for _, p := range perfs[m] {
			if p.Memory <= limit {
				cnt++
			}
		}
		algos[m] = cnt
	}
	// DP over multisets: process sizes in order so each multiset counts
	// once; ways[i] = number of configurations covering i samples.
	ways := make([]float64, n+1)
	ways[0] = 1
	for _, m := range sizes {
		for i := m; i <= n; i++ {
			ways[i] += ways[i-m] * algos[m]
		}
	}
	return ways[n]
}
