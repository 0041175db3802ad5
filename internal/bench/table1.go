package bench

import (
	"fmt"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/device"
)

// Table1 prints the simulated evaluation environment (the reproduction of
// the paper's Table I; software rows are replaced by this repository's
// substitutions, which DESIGN.md documents).
func Table1(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable(cfg, "Table I: simulated device specifications",
		"device", "peak_SP_TFlops", "mem_GiB", "bandwidth_GBs", "launch_overhead_us", "SMs")
	for _, d := range device.Devices {
		t.row(d.Name,
			fmt.Sprintf("%.2f", d.PeakFlops/1e12),
			fmt.Sprintf("%d", d.MemBytes>>30),
			fmt.Sprintf("%.0f", d.MemBW/1e9),
			fmt.Sprintf("%.0f", float64(d.LaunchOverhead.Microseconds())),
			fmt.Sprintf("%d", d.SMs))
	}
	t.flush()
	fmt.Fprintln(cfg.Out, "software: cuDNN -> internal/cudnn; GLPK -> internal/lp+ilp; Caffe/TensorFlow -> internal/dnn")
	return nil
}

// OptTime reproduces the §IV-B optimization-cost observations: the time
// to optimize (benchmark + DP) under each policy for AlexNet's kernels,
// and the WD ILP statistics for ResNet-50 (the paper reports 562 binary
// variables solved in 5.46 ms by GLPK).
func OptTime(cfg Config) error {
	cfg = cfg.withDefaults()
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}
	t := newTable(cfg, fmt.Sprintf("Optimization cost: AlexNet WR (%s, N=%d, 64 MiB)", cfg.Device.Name, batch),
		"policy", "optimization_time")
	for _, pol := range core.Policies {
		start := time.Now()
		b := core.NewBencher(newModelHandle(cfg), nil, 1)
		for _, l := range alexNetFwdShapes(batch) {
			for _, op := range conv.Ops {
				if _, err := core.OptimizeWR(b, core.Kernel{Op: op, Shape: l.Shape}, 64*MiB, pol); err != nil {
					return err
				}
			}
		}
		t.row(pol.String(), time.Since(start).String())
	}
	t.flush()

	// WD ILP statistics on ResNet-50.
	_, run, err := netRun(cfg, "resnet50", "wd", core.PolicyPowerOfTwo, 159*16*MiB, 32)
	if err != nil {
		return err
	}
	s := run.UC.WDStats()
	t2 := newTable(cfg, "WD ILP statistics: ResNet-50 (N=32)",
		"binary_vars", "bnb_nodes", "solve_time")
	t2.row(fmt.Sprintf("%d", s.ILPVars), fmt.Sprintf("%d", s.ILPNodes), s.SolveTime.String())
	t2.flush()
	return nil
}
