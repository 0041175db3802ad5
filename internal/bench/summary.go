package bench

import (
	"fmt"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
)

// Summary reproduces the paper's headline numbers in one table: the
// abstract's 1.63x AlexNet and 1.21x ResNet-18 convolution speedups on
// P100, Fig. 9's 2.33x conv2 speedup, and Fig. 1's 4.51x selection cliff.
func Summary(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable(cfg, fmt.Sprintf("Headline results (%s)", cfg.Device.Name),
		"metric", "paper", "measured")

	// Fig 1 cliff on conv2 forward at N=256.
	h := newModelHandle(cfg)
	cs := Conv2(256)
	best, err := bestPerf(h, conv.Forward, cs, 1<<40)
	if err != nil {
		return err
	}
	cliff := 1.0
	if best.Memory > 0 {
		if fb, err := h.PickAlgo(conv.Forward, cs, cudnn.SpecifyWorkspaceLimit, best.Memory-1); err == nil {
			cliff = float64(fb.Time) / float64(best.Time)
		}
	}
	t.row("conv2 -1 byte slowdown", "4.51x", fmt.Sprintf("%.2fx", cliff))

	// Fig 9: conv2 WR@64MiB, all vs undivided.
	b := core.NewBencher(h, nil)
	k := core.Kernel{Op: conv.Forward, Shape: cs}
	undiv, err := core.OptimizeWR(b, k, 64*MiB, core.PolicyUndivided)
	if err != nil {
		return err
	}
	all, err := core.OptimizeWR(b, k, 64*MiB, core.PolicyAll)
	if err != nil {
		return err
	}
	t.row("conv2 fwd WR(all) speedup @64MiB", "2.33x",
		fmt.Sprintf("%.2fx", float64(undiv.Time)/float64(all.Time)))

	// Abstract: AlexNet convolution-only speedup at 64 MiB (N=256).
	repU, _, err := netRun(cfg, "alexnet", "wr", core.PolicyUndivided, 64*MiB, 256)
	if err != nil {
		return err
	}
	repA, _, err := netRun(cfg, "alexnet", "wr", core.PolicyAll, 64*MiB, 256)
	if err != nil {
		return err
	}
	t.row("AlexNet conv speedup @64MiB", "1.63x",
		fmt.Sprintf("%.2fx", float64(convOnly(repU))/float64(convOnly(repA))))
	t.row("AlexNet iteration speedup @64MiB", "1.40x",
		fmt.Sprintf("%.2fx", float64(repU.Total())/float64(repA.Total())))

	// Abstract: ResNet-18 convolution speedup (N=128).
	r18U, _, err := netRun(cfg, "resnet18", "wr", core.PolicyUndivided, 64*MiB, 128)
	if err != nil {
		return err
	}
	r18A, _, err := netRun(cfg, "resnet18", "wr", core.PolicyAll, 64*MiB, 128)
	if err != nil {
		return err
	}
	t.row("ResNet-18 conv speedup @64MiB", "1.21x",
		fmt.Sprintf("%.2fx", float64(convOnly(r18U))/float64(convOnly(r18A))))

	t.flush()
	return nil
}
